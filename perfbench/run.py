#!/usr/bin/env python3
"""SpikeTune benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the library, the `serve` daemon and the
probe (perfbench_probe) from source into $CARGO_TARGET_DIR (default
.bench_build), runs the workload, checks its outputs, prints every metric by
name with unit and sample count, and ends stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  Exits 1
when a correctness gate fails or checked nothing, 2 when the build or a
process fails.  Workloads, metrics and the layer map: perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
WORKLOADS = ("infer_sparse", "serve_request", "serve_stream_churn",
             "train_epoch")

# Which workload metric each generic end-to-end metric is, per workload.
E2E_SOURCE = {
    "infer_sparse": {"throughput": "infer_fps",
                     "latency_p50_ms": "window_p50_ms"},
    "serve_request": {"throughput": "capacity_qps",
                      "latency_p50_ms": "req_p50_ms"},
    "serve_stream_churn": {"throughput": "stream_steps_per_s",
                           "latency_p50_ms": "step_p50_ms"},
    "train_epoch": {"throughput": "train_samples_per_s",
                    "latency_p50_ms": "train_step_p50_ms"},
}
# The named end-to-end metrics each workload prints (README.md).
NAMED = {
    "infer_sparse": ["setup_s", "peak_rss_mb", "infer_fps", "window_p50_ms",
                     "window_p90_ms"],
    "serve_request": ["setup_s", "peak_rss_mb", "error_rate", "req_p50_ms",
                      "req_p99_ms", "slo_qps", "capacity_qps"],
    "serve_stream_churn": ["setup_s", "peak_rss_mb", "error_rate",
                           "stream_steps_per_s", "step_p50_ms",
                           "step_p99_ms"],
    "train_epoch": ["setup_s", "peak_rss_mb", "train_samples_per_s",
                    "train_step_p50_ms", "eval_samples_per_s", "eval_p50_ms"],
}
SERVE_SETUP_REPS = 7
DAEMON_FLAGS = ["--model", "csnn", "--beta", "0.5", "--theta", "1.5",
                "--port", "0"]
PROBE_TIMEOUT_S = 150


class BenchError(Exception):
    """A build or process failure: no result is printed."""


def log(msg):
    print(msg, flush=True)


# --- Build ------------------------------------------------------------------


def build():
    """Configures and builds serve + perfbench_probe; returns their paths."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("run from the repository root: src/ not found")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    os.makedirs(RUN_DIR, exist_ok=True)
    build_log = os.path.join(RUN_DIR, "build.log")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "serve", "perfbench_probe"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(build_dir, "spiketune", "src", "serve"),
            os.path.join(build_dir, "perfbench_probe"),
            build_dir)


def fingerprint(build_dir):
    """Machine and build identity recorded with every result."""
    fp = {"nproc": len(os.sched_getaffinity(0)),
          "command": " ".join([sys.executable] + sys.argv)}
    try:
        with open(os.path.join(build_dir, "fingerprint.json")) as f:
            fp.update(json.load(f))
    except (OSError, ValueError):
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    fp["git_commit"] = (git.stdout.strip() if git.returncode == 0
                        else "none (not a git checkout)")
    # The sources the benchmark built, for checkouts without git.
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    fp["source_sha256"] = h.hexdigest()[:16]
    return fp


# --- Processes ----------------------------------------------------------------


def _die_with_parent():
    """Child-side: SIGTERM the child if this benchmark process dies."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)
    except OSError:
        pass


class Proc:
    """A child whose stdout lines are read by a thread into a queue."""

    def __init__(self, argv, cwd, stdin=False):
        self.argv = argv
        self.exec_ns = time.monotonic_ns()
        self.p = subprocess.Popen(
            argv, cwd=cwd, text=True, bufsize=1,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent)
        self.lines = queue.Queue()
        self.out = []
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.p.stdout:
            self.out.append(line.rstrip("\n"))
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, pattern, timeout):
        """Returns the first match of `pattern` in a new line."""
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            try:
                line = self.lines.get(timeout=max(left, 0.01))
            except queue.Empty:
                line = None
                if left > 0:
                    continue
            if line is None:
                raise BenchError("%s: no %r (exit %s): %s" % (
                    os.path.basename(self.argv[0]), pattern, self.p.poll(),
                    " | ".join(self.out[-5:])))
            m = re.search(pattern, line)
            if m:
                return m

    def send(self, line):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()

    def finish(self, timeout):
        """Waits for exit; returns (returncode, last JSON line or None)."""
        try:
            rc = self.p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()
            raise BenchError("%s timed out" % os.path.basename(self.argv[0]))
        self.reader.join(timeout=5)
        result = None
        for line in self.out:
            if line.startswith("{"):
                result = json.loads(line)
            elif line not in ("ready",) and not line.startswith("setup_s"):
                log("  " + line)
        return rc, result

    def stop(self, sig=signal.SIGTERM, timeout=30):
        """Signals the child (if alive) and reaps it; kills on timeout."""
        if self.p.poll() is None:
            self.p.send_signal(sig)
            try:
                self.p.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.reader.join(timeout=5)
        return self.p.returncode


def cpu_jiffies():
    """(steal, total) CPU time of the machine from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for pid %d" % pid)


class Daemon:
    """The shipped `serve` daemon on --port 0 with default workers/threads."""

    def __init__(self, serve_bin, workdir, extra):
        os.makedirs(workdir)
        self.ledger = os.path.join(workdir, "ledger", "serve.jsonl")
        self.proc = Proc([serve_bin] + DAEMON_FLAGS + ["--ledger", "ledger"] +
                         extra, cwd=workdir)
        self.exec_ns = self.proc.exec_ns
        try:
            self.port = int(self.proc.expect(r"serving csnn on [^:]+:(\d+)",
                                             timeout=60).group(1))
        except BenchError:
            self.proc.stop()
            raise

    def stop(self):
        """SIGTERM (drain), reap, and check the accounting identity."""
        rc = self.proc.stop()
        final = None
        if os.path.exists(self.ledger):
            with open(self.ledger) as f:
                for line in f:
                    rec = json.loads(line)
                    if rec.get("record") == "final":
                        final = rec
        if rc != 0 or final is None:
            return rc, final, False
        answered = sum(final.get(k, 0) for k in (
            "served", "dropped_responses", "deadline_shed", "internal_errors",
            "stream_orphan_steps"))
        return rc, final, final.get("admitted", -1) == answered


# --- Workloads ----------------------------------------------------------------


def probe_argv(probe_bin, name, seed, seconds, trace, out_dir, conns=None):
    argv = [probe_bin, name, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", "1" if trace else "0", "--out", out_dir]
    if conns is not None:
        argv += ["--conns", str(conns)]
    return argv


def run_in_process(bins, probe_name, seed, seconds, trace, out_dir):
    proc = Proc(probe_argv(bins[1], probe_name, seed, seconds, trace,
                           out_dir), cwd=out_dir)
    try:
        rc, result = proc.finish(PROBE_TIMEOUT_S)
    finally:
        proc.stop()
    if result is None:
        raise BenchError("%s printed no result (exit %d)" % (probe_name, rc))
    return result


def run_serve(bins, probe_name, seed, seconds, trace, out_dir, churn):
    """Starts the daemon SERVE_SETUP_REPS times; the last one takes load."""
    serve_bin, probe_bin, _ = bins
    conns = min(4, len(os.sched_getaffinity(0)))
    extra = []
    if churn:  # live cap at half the 32-per-connection stream count
        extra = ["--max-streams", str(16 * conns), "--stream-dir", "spill"]
    probe = Proc(probe_argv(probe_bin, probe_name, seed, seconds, trace,
                            out_dir, conns), cwd=out_dir, stdin=True)
    daemons = []
    gates = []
    try:
        probe.expect(r"^ready$", timeout=60)
        for rep in range(SERVE_SETUP_REPS):
            d = Daemon(serve_bin, os.path.join(out_dir, "daemon%d" % rep),
                       extra)
            daemons.append(d)
            probe.send("setup %d %d" % (d.port, d.exec_ns))
            probe.expect(r"^setup_s ", timeout=60)
            if rep + 1 < SERVE_SETUP_REPS:
                rc, _, ok = d.stop()
                gates.append(("daemon_drain_setup%d" % rep, rc == 0 and ok,
                              "exit %s, accounting identity %s" % (
                                  rc, "holds" if ok else "FAILS")))
        d = daemons[-1]
        probe.send("load %d" % d.port)
        rc, result = probe.finish(PROBE_TIMEOUT_S)
        if result is None:
            raise BenchError("%s printed no result (exit %d)" % (probe_name,
                                                                  rc))
        rss = vm_hwm_mb(d.proc.p.pid)
        rc, final, ok = d.stop()
        admitted = (final or {}).get("admitted", 0)
        gates.append(("daemon_accounting_identity", rc == 0 and ok and
                      admitted > 0,
                      "exit %s; admitted %s == served + dropped + shed + "
                      "internal + orphan: %s" % (rc, admitted, ok)))
    finally:
        probe.stop()
        for d in daemons:
            d.proc.stop()
    for name, ok, detail in gates:
        log("gate %s: %s (%s)" % (name, "ok" if ok else "FAILED", detail))
        result["gates"].append({"name": name, "ok": ok, "detail": detail})
    result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB",
                                        "samples": 1}
    return result


def run_workload(bins, workload, seed, seconds, trace):
    """One pass of a workload; returns the probe's result document."""
    out_dir = os.path.join(RUN_DIR, "%s%s" % (workload,
                                              "-traced" if trace else ""))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    if workload == "infer_sparse":
        return run_in_process(bins, "infer", seed, seconds, trace, out_dir)
    if workload == "train_epoch":
        return run_in_process(bins, "train", seed, seconds, trace, out_dir)
    if workload == "serve_request":
        return run_serve(bins, "serve-request", seed, seconds, trace, out_dir,
                         churn=False)
    result = run_serve(bins, "serve-stream", seed, seconds, trace, out_dir,
                       churn=True)
    if trace:  # the same churn in process: StreamManager without the daemon
        probe = run_in_process(bins, "stream-probe", seed, seconds, trace,
                               out_dir)
        result["metrics"].update(probe["metrics"])
        result["gates"] += probe["gates"]
    return result


def e2e_metrics(workload, result, spec):
    """The BENCHMARK.json end-to-end metrics of one workload pass."""
    out = {}
    for m in spec["end_to_end"]:
        source = E2E_SOURCE[workload].get(m["name"], m["name"])
        if source not in result["metrics"]:
            failed = [g["name"] for g in result["gates"] if not g["ok"]]
            raise BenchError("%s reported no %s (failed gates: %s)" % (
                workload, source, ", ".join(failed) or "none"))
        out[m["name"]] = {"value": result["metrics"][source]["value"],
                          "unit": m["unit"],
                          "samples": result["metrics"][source]["samples"]}
    return out


def print_table(title, metrics, names):
    log("== %s ==" % title)
    for name in names:
        m = metrics.get(name)
        if m is not None:
            log("  %-34s %14.6g %-10s n=%d" % (name, m["value"], m["unit"],
                                              m.get("samples", 1)))


def gates_ok(results):
    gates = [g for r in results for g in r["gates"]]
    return bool(gates) and all(g["ok"] for g in gates)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bins = build()
    fp = fingerprint(bins[2])
    log("fingerprint " + json.dumps(fp, sort_keys=True))
    steal0, total0 = cpu_jiffies()

    if not args.trace:
        result = run_workload(bins, args.workload, args.seed, args.seconds,
                              False)
        results = [result]
        print_table(args.workload, result["metrics"], NAMED[args.workload])
        metrics = e2e_metrics(args.workload, result, spec)
    else:
        # The named workload untraced and traced (the difference is the
        # tracing overhead), then every other workload traced for a quarter
        # of the time, so that each traced run measures every layer.
        half = max(1.0, args.seconds / 2)
        quarter = max(1.0, args.seconds / 4)
        plain = run_workload(bins, args.workload, args.seed, half, False)
        results = [plain]
        layer = {}
        for w in WORKLOADS:
            traced = run_workload(bins, w, args.seed,
                                  half if w == args.workload else quarter,
                                  True)
            results.append(traced)
            print_table(w + " (traced)", traced["metrics"],
                        [n for n in traced["metrics"] if "." in n])
            layer.update({k: v for k, v in traced["metrics"].items()
                          if "." in k})
            if w == args.workload:
                untraced = e2e_metrics(w, plain, spec)
                for name, m in e2e_metrics(w, traced, spec).items():
                    base = untraced[name]["value"]
                    layer["trace.overhead." + name] = {
                        "value": m["value"] / base - 1 if base else 0.0,
                        "unit": "ratio", "samples": 1}
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] not in layer:
                raise BenchError("per-layer metric %s not measured"
                                 % m["name"])
            metrics[m["name"]] = dict(layer[m["name"]], unit=m["unit"])

    # Time the hypervisor gave this VM's CPUs to others: on a shared host it
    # explains runs that read far slower than their neighbours.
    steal1, total1 = cpu_jiffies()
    fp["host_steal_pct"] = round(
        100.0 * (steal1 - steal0) / max(total1 - total0, 1), 2)
    log("host CPU steal during the run: %.2f %%" % fp["host_steal_pct"])
    correct = gates_ok(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    with open(os.path.join(RUN_DIR, "result-%s.json" % args.workload),
              "w") as f:
        json.dump({"fingerprint": fp, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "correct": correct,
                   "results": results}, f, indent=1)
    print_table("result", metrics, list(metrics))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()}}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(3))
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
