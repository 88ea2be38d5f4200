// SERVE — closed/open-loop load generator for the serving daemon.
//
// Drives a running `serve` daemon over TCP with per-connection client
// threads, measures per-request latency, and reports p50/p99/p999 plus the
// sustained QPS into BENCH_serve.json.  Two loops:
//
//   * closed (--qps 0, default): every connection keeps exactly one
//     request in flight; the aggregate completion rate IS the max
//     sustainable QPS for that concurrency.
//   * open (--qps R): arrivals are paced to the target rate across the
//     connections, and latency is measured from the *scheduled* send time,
//     so queueing delay from a daemon that cannot keep up counts against
//     it (no coordinated omission).
//
// Parity gate: the first --parity requests per connection are also run
// through a direct, local InferenceSession on an identically-constructed
// model, and the served spike counts must match BITWISE — dynamic batching
// must be invisible in the results, whatever batch each request rode in.
// Any mismatch fails the run (exit 1); a performance number for a wrong
// result is worthless.
//
// Unhappy paths are tallied separately, never lumped: overload rejections,
// shutdown drops, deadline misses (--deadline-us arms a per-request
// budget), internal errors, bad requests, and raw disconnects each get
// their own count in the table and the JSON.  With --retries N, transient
// failures (overload, internal error, disconnect) are retried with
// exponential backoff (--backoff-ms base) and automatic reconnect — the
// client survives a chaos daemon running --fault-spec — and the report
// separates goodput (completed) from retries and gave_up (budget
// exhausted).  Terminal outcomes (deadline miss, bad request, daemon
// draining) are never retried.
//
// A daemon SIGTERMed mid-burst is tolerated and reported: completed
// requests keep their latencies and parity checks, requests refused with
// `shutting-down` (or cut by the closing connection) are tallied as
// shutdown drops, and the JSON records shutdown_observed = true.
//
//   ./serve_loadgen --port 7421 --model mlp --requests 2000 --conns 8
//   ./serve_loadgen --port 7421 --qps 500 --json BENCH_serve.json
//   ./serve_loadgen --port 7421 --retries 8 --deadline-us 5000  # chaos
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <filesystem>

#include "core/cli.h"
#include "core/error.h"
#include "core/json.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "exp/ledger_flags.h"
#include "exp/standard_flags.h"
#include "infer/session.h"
#include "obs/ledger.h"
#include "obs/metrics.h"
#include "serve/transport.h"
#include "snn/model_zoo.h"

using namespace spiketune;

namespace {

using Clock = std::chrono::steady_clock;

struct ConnResult {
  std::vector<double> latencies_ms;
  // Daemon-reported per-stage times (us) for each completed request, from
  // the response's queue/assemble/infer diagnostics.
  std::vector<double> queue_us;
  std::vector<double> assemble_us;
  std::vector<double> infer_us;
  std::int64_t completed = 0;
  std::int64_t rejected_overload = 0;
  std::int64_t shutdown_drops = 0;
  std::int64_t deadline_misses = 0;   // kDeadlineExceeded (terminal)
  std::int64_t internal_errors = 0;   // kInternalError responses seen
  std::int64_t bad_requests = 0;      // kBadRequest (terminal)
  std::int64_t disconnects = 0;       // connection died mid-roundtrip
  std::int64_t retries = 0;           // resend attempts made
  std::int64_t gave_up = 0;           // retry budget exhausted
  std::int64_t parity_checked = 0;
  std::int64_t parity_failures = 0;
  std::int64_t max_batch_seen = 0;
};

/// One sample's spike window, firing with probability `density` per
/// element per step.  Deterministic per (seed, conn, request).
std::vector<float> make_window(std::uint32_t num_steps, std::int64_t elems,
                               double density, Rng& rng) {
  std::vector<float> data(static_cast<std::size_t>(num_steps) *
                          static_cast<std::size_t>(elems));
  for (float& v : data) v = rng.uniform() < density ? 1.0f : 0.0f;
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("host", "127.0.0.1", "daemon address");
  flags.declare("port", "7421", "daemon port");
  flags.declare("connect-retry-ms", "4000",
                "keep retrying the initial connect this long (daemon "
                "startup race)");
  flags.declare("model", "mlp",
                "reference topology for the parity gate: must match the "
                "daemon's --model");
  flags.declare("beta", "0.5", "LIF leak (must match the daemon)");
  flags.declare("theta", "1.5", "LIF threshold (must match the daemon)");
  flags.declare("conns", "4", "concurrent client connections");
  flags.declare("requests", "400", "total requests across all connections");
  flags.declare("num-steps", "8", "timesteps per request window");
  flags.declare("density", "0.15", "input spike probability per step");
  flags.declare("qps", "0",
                "open-loop target rate (0 = closed loop at --conns "
                "concurrency)");
  flags.declare("deadline-us", "0",
                "per-request latency budget sent on the wire (0 = none)");
  flags.declare("retries", "0",
                "retry budget per request for transient failures "
                "(overload / disconnect / internal error; 0 = give up "
                "immediately, the pre-chaos behavior)");
  flags.declare("backoff-ms", "5",
                "base retry backoff, doubled per attempt");
  flags.declare("streams", "0",
                "streaming mode: open this many concurrent "
                "streams across --conns connections and step each one "
                "--steps-per-stream times (0 = plain request mode)");
  flags.declare("steps-per-stream", "16",
                "streaming mode: chunks sent per stream (each chunk is "
                "--num-steps timesteps)");
  flags.declare("stream-hz", "0",
                "streaming mode: per-stream chunk cadence (chunks/s; 0 = "
                "closed loop, step as fast as the daemon answers)");
  flags.declare("parity", "8",
                "verify this many responses per connection bitwise against "
                "a direct InferenceSession (-1 = all); in streaming mode, "
                "replay this many streams per connection through a direct "
                "StreamState (every chunk and the close totals)");
  flags.declare("json", "BENCH_serve.json", "JSON summary path (empty: skip)");
  flags.declare("ledger", "", "write a run ledger into this directory");
  exp::declare_standard_flags(flags, exp::DriverKind::kPlain);
  try {
    flags.parse(argc - 1, argv + 1);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }
  const auto std_flags =
      exp::apply_standard_flags(flags, exp::DriverKind::kPlain);

  // Read every flag value up front so a malformed value (e.g. --port=x)
  // prints usage and exits 2 like an unknown flag, instead of aborting.
  std::string host;
  int port = 0, retry_ms = 0, conns = 0;
  std::int64_t total_requests = 0, parity_per_conn = 0;
  std::int64_t retry_budget = 0, backoff_ms = 0;
  std::uint64_t deadline_us = 0;
  std::uint32_t num_steps = 0;
  double density = 0.0, qps = 0.0;
  float beta = 0.0f, theta = 0.0f;
  std::int64_t streams_total = 0, steps_per_stream = 0;
  double stream_hz = 0.0;
  try {
    host = flags.get("host");
    port = static_cast<int>(flags.get_int("port"));
    retry_ms = static_cast<int>(flags.get_int("connect-retry-ms"));
    conns = static_cast<int>(flags.get_int("conns"));
    total_requests = flags.get_int("requests");
    num_steps = static_cast<std::uint32_t>(flags.get_int("num-steps"));
    density = flags.get_double("density");
    qps = flags.get_double("qps");
    deadline_us = static_cast<std::uint64_t>(flags.get_int("deadline-us"));
    retry_budget = flags.get_int("retries");
    backoff_ms = flags.get_int("backoff-ms");
    parity_per_conn = flags.get_int("parity");
    beta = static_cast<float>(flags.get_double("beta"));
    theta = static_cast<float>(flags.get_double("theta"));
    streams_total = flags.get_int("streams");
    steps_per_stream = flags.get_int("steps-per-stream");
    stream_hz = flags.get_double("stream-hz");
    ST_REQUIRE(conns > 0 && total_requests > 0,
               "--conns and --requests must be positive");
    ST_REQUIRE(streams_total >= 0 && steps_per_stream > 0,
               "--streams must be >= 0 and --steps-per-stream positive");
    ST_REQUIRE(retry_budget >= 0 && backoff_ms >= 0,
               "--retries and --backoff-ms must be non-negative");
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }

  // Reference model for the parity gate: identical construction to the
  // daemon (same zoo topology, same weight seed), so weights are bitwise
  // the same.
  snn::LifConfig lif;
  lif.beta = beta;
  lif.threshold = theta;
  const std::string model_name = flags.get("model");
  std::unique_ptr<snn::SpikingNetwork> net;
  Shape per_sample;
  if (model_name == "csnn") {
    snn::CsnnConfig cfg;
    cfg.lif = lif;
    net = snn::make_svhn_csnn(cfg);
    per_sample = Shape{cfg.in_channels, cfg.image_size, cfg.image_size};
  } else if (model_name == "mlp") {
    snn::MlpConfig cfg;
    cfg.lif = lif;
    net = snn::make_snn_mlp(cfg);
    per_sample = Shape{cfg.in_features};
  } else {
    std::cerr << "unknown --model '" << model_name << "'\n";
    return 2;
  }
  const auto model = infer::CompiledModel::compile(*net, per_sample);
  net.reset();
  const std::int64_t in_elems = per_sample.numel();
  const std::int64_t out_features = model.output_shape()[0];

  if (streams_total > 0) {
    // --- Streaming mode -----------------------------------------------
    // Every stream sends `steps_per_stream` chunks of `num_steps`
    // timesteps.  With --stream-hz R each chunk launches on the stream's
    // own open-loop schedule and latency is measured from the scheduled
    // slot (no coordinated omission); at 0 the connections step their
    // streams round-robin as fast as the daemon answers.  The parity gate
    // replays checked streams through a direct StreamState on a local
    // session: every chunk's counts AND the close totals must match
    // bitwise — LRU eviction/restore on the daemon must be invisible.
    std::cout << "== SERVE loadgen (streaming): " << host << ":" << port
              << ", " << streams_total << " streams over " << conns
              << " conns, " << steps_per_stream << " chunks x T "
              << num_steps
              << (stream_hz > 0
                      ? ", " + fmt_f(stream_hz, 1) + " chunks/s/stream"
                      : std::string(", closed loop"))
              << " ==\n";

    struct StreamConnResult {
      std::vector<double> step_ms;
      std::int64_t opened = 0;
      std::int64_t open_rejects = 0;
      std::int64_t steps_completed = 0;
      std::int64_t step_errors = 0;
      std::int64_t closed = 0;
      std::int64_t shutdown_drops = 0;
      std::int64_t disconnects = 0;
      std::int64_t parity_checked = 0;  // chunks compared bitwise
      std::int64_t parity_failures = 0;
      std::int64_t totals_checked = 0;  // close replies compared
      std::int64_t totals_failures = 0;
    };
    std::vector<StreamConnResult> sres(static_cast<std::size_t>(conns));
    std::atomic<bool> sconnect_failed{false};
    std::string sconnect_error;
    std::mutex sconnect_mu;
    const auto ts_start = Clock::now();

    std::vector<std::thread> sthreads;
    sthreads.reserve(static_cast<std::size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      sthreads.emplace_back([&, c] {
        StreamConnResult& r = sres[static_cast<std::size_t>(c)];
        std::unique_ptr<serve::TcpClient> client;
        try {
          client = std::make_unique<serve::TcpClient>(host, port, retry_ms);
        } catch (const Error& e) {
          std::lock_guard<std::mutex> lock(sconnect_mu);
          sconnect_failed.store(true);
          sconnect_error = e.what();
          return;
        }
        struct LocalStream {
          std::uint64_t id = 0;  // 0 after an open reject: skipped
          Rng rng{0};
          infer::StreamState ref_state;  // parity replay state
          bool check = false;
        };
        std::vector<LocalStream> mine;
        for (std::int64_t g = c; g < streams_total; g += conns) {
          LocalStream s;
          s.id = static_cast<std::uint64_t>(g) + 1;
          s.rng = Rng(0x57e4317eadULL ^ (0x9e3779b97f4a7c15ULL * s.id));
          s.check = parity_per_conn < 0 ||
                    static_cast<std::int64_t>(mine.size()) < parity_per_conn;
          mine.push_back(std::move(s));
        }
        std::unique_ptr<infer::InferenceSession> ref;

        for (LocalStream& s : mine) {
          const auto ack = client->stream_open(s.id);
          if (ack.disconnected) {
            ++r.disconnects;
            return;
          }
          if (!ack.ok) {
            if (ack.error.code == serve::ErrorCode::kShuttingDown) {
              ++r.shutdown_drops;
              return;
            }
            ++r.open_rejects;
            s.id = 0;
            continue;
          }
          ++r.opened;
          if (s.check) s.ref_state = infer::StreamState(model);
        }

        std::vector<std::int64_t> dims{1};
        for (std::int64_t d : per_sample.dims()) dims.push_back(d);
        for (std::int64_t k = 0; k < steps_per_stream; ++k) {
          for (LocalStream& s : mine) {
            if (s.id == 0) continue;
            serve::InferRequest req;
            req.request_id =
                (s.id << 16) | static_cast<std::uint64_t>(k);
            req.num_steps = num_steps;
            req.elems_per_step = static_cast<std::uint32_t>(in_elems);
            req.deadline_us = deadline_us;
            req.data = make_window(num_steps, in_elems, density, s.rng);

            auto scheduled = Clock::now();
            if (stream_hz > 0) {
              // Per-stream phase spreads chunk launches evenly over the
              // cadence interval across the whole fleet.
              const double phase = static_cast<double>(s.id - 1) /
                                   static_cast<double>(streams_total);
              scheduled =
                  ts_start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     (static_cast<double>(k) + phase) /
                                     stream_hz));
              std::this_thread::sleep_until(scheduled);
            }
            const auto reply = client->stream_step(s.id, req);
            if (reply.disconnected) {
              ++r.disconnects;
              return;
            }
            if (!reply.ok) {
              if (reply.error.code == serve::ErrorCode::kShuttingDown) {
                ++r.shutdown_drops;
                return;
              }
              // A shed or errored chunk never advanced the daemon's
              // stream state, so the local replay skips it too — the
              // close totals still have to agree.
              ++r.step_errors;
              continue;
            }
            ++r.steps_completed;
            r.step_ms.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          scheduled)
                    .count());
            if (s.check) {
              if (ref == nullptr) {
                infer::InferOptions opts = std_flags.infer;
                opts.max_batch = 1;
                ref = std::make_unique<infer::InferenceSession>(model, opts);
              }
              std::vector<Tensor> window;
              window.reserve(num_steps);
              for (std::uint32_t t = 0; t < num_steps; ++t) {
                Tensor x{Shape(dims)};
                std::memcpy(
                    x.data(), req.data.data() + t * in_elems,
                    static_cast<std::size_t>(in_elems) * sizeof(float));
                window.push_back(std::move(x));
              }
              infer::StreamState* st = &s.ref_state;
              const infer::InferenceResult want = ref->run(&st, 1, window);
              ++r.parity_checked;
              if (std::memcmp(want.spike_counts.data(),
                              reply.response.spike_counts.data(),
                              static_cast<std::size_t>(out_features) *
                                  sizeof(float)) != 0)
                ++r.parity_failures;
            }
          }
        }

        for (LocalStream& s : mine) {
          if (s.id == 0) continue;
          const auto cres = client->stream_close(s.id);
          if (cres.disconnected) {
            ++r.disconnects;
            return;
          }
          if (!cres.ok) {
            ++r.step_errors;
            continue;
          }
          ++r.closed;
          if (s.check) {
            ++r.totals_checked;
            const std::vector<float>& want = s.ref_state.cumulative_counts();
            if (cres.totals.steps_done !=
                    static_cast<std::uint64_t>(s.ref_state.steps_done()) ||
                cres.totals.cumulative_counts.size() != want.size() ||
                (!want.empty() &&
                 std::memcmp(want.data(),
                             cres.totals.cumulative_counts.data(),
                             want.size() * sizeof(float)) != 0))
              ++r.totals_failures;
          }
        }
      });
    }
    for (std::thread& t : sthreads) t.join();
    const double elapsed_s =
        std::chrono::duration<double>(Clock::now() - ts_start).count();
    if (sconnect_failed.load()) {
      std::cerr << "cannot reach the daemon: " << sconnect_error << "\n";
      return 1;
    }

    std::vector<double> step_lat;
    StreamConnResult tot;
    std::int64_t max_concurrent = 0;
    for (const StreamConnResult& r : sres) {
      step_lat.insert(step_lat.end(), r.step_ms.begin(), r.step_ms.end());
      tot.opened += r.opened;
      tot.open_rejects += r.open_rejects;
      tot.steps_completed += r.steps_completed;
      tot.step_errors += r.step_errors;
      tot.closed += r.closed;
      tot.shutdown_drops += r.shutdown_drops;
      tot.disconnects += r.disconnects;
      tot.parity_checked += r.parity_checked;
      tot.parity_failures += r.parity_failures;
      tot.totals_checked += r.totals_checked;
      tot.totals_failures += r.totals_failures;
    }
    // Every surviving open stream steps concurrently through the burst.
    max_concurrent = tot.opened;
    const LatencyStats slat = summarize_latencies(step_lat);
    const double steps_per_s =
        elapsed_s > 0 ? static_cast<double>(tot.steps_completed) / elapsed_s
                      : 0.0;
    // A gate that was asked to check (--parity != 0) and checked nothing
    // has not passed.
    const bool parity_ok = tot.parity_failures == 0 &&
                           tot.totals_failures == 0 &&
                           (parity_per_conn == 0 || tot.parity_checked > 0);

    // Daemon-side stream counters (STAT): eviction/restore traffic and the
    // daemon's own concurrency high-water mark.  Best-effort.
    std::int64_t d_peak = -1, d_evicted = -1, d_restored = -1;
    try {
      serve::TcpClient probe(host, port, 0);
      const serve::TcpClient::StatReply stat_reply = probe.stat(0);
      if (!stat_reply.disconnected) {
        const JsonValue stat = JsonValue::parse(stat_reply.json, "STAT");
        if (const JsonValue* st = stat.find("streams")) {
          d_peak = static_cast<std::int64_t>(st->number_or("peak_live", -1));
          d_evicted =
              static_cast<std::int64_t>(st->number_or("evicted", -1));
          d_restored =
              static_cast<std::int64_t>(st->number_or("restored", -1));
        }
      }
    } catch (const Error&) {
    }

    AsciiTable table({"metric", "value"});
    table.set_title("serve loadgen streaming (" +
                    std::to_string(tot.steps_completed) + " steps, " +
                    fmt_f(elapsed_s, 2) + "s)");
    table.add_row({"streams opened", std::to_string(tot.opened) + " of " +
                                         std::to_string(streams_total)});
    table.add_row({"max concurrent", std::to_string(max_concurrent)});
    table.add_row({"steps/s", fmt_f(steps_per_s, 0)});
    table.add_row({"step p50", fmt_f(slat.p50, 2) + "ms"});
    table.add_row({"step p99", fmt_f(slat.p99, 2) + "ms"});
    table.add_row({"step p999", fmt_f(slat.p999, 2) + "ms"});
    table.add_row({"open rejects", std::to_string(tot.open_rejects)});
    table.add_row({"step errors", std::to_string(tot.step_errors)});
    table.add_row({"closed", std::to_string(tot.closed)});
    table.add_row({"shutdown drops", std::to_string(tot.shutdown_drops)});
    table.add_row({"disconnects", std::to_string(tot.disconnects)});
    if (d_evicted >= 0) {
      table.add_row({"daemon evicted/restored",
                     std::to_string(d_evicted) + " / " +
                         std::to_string(d_restored)});
      table.add_row({"daemon peak live", std::to_string(d_peak)});
    }
    table.add_row(
        {"parity", parity_per_conn == 0
                       ? std::string("skipped (--parity 0)")
                       : (parity_ok ? "ok" : "FAILED") + std::string(" (") +
                             std::to_string(tot.parity_checked) +
                             " chunks, " +
                             std::to_string(tot.totals_checked) +
                             " totals)"});
    table.print(std::cout);

    const std::string json = flags.get("json");
    if (!json.empty()) {
      std::ofstream out(json);
      ST_REQUIRE(out.good(), "cannot open " + json + " for writing");
      out << "{\n"
          << "  \"model\": \"" << model_name << "\",\n"
          << "  \"mode\": \"streaming\",\n"
          << "  \"streaming\": {\n"
          << "    \"streams\": " << streams_total << ",\n"
          << "    \"conns\": " << conns << ",\n"
          << "    \"chunk_steps\": " << num_steps << ",\n"
          << "    \"steps_per_stream\": " << steps_per_stream << ",\n"
          << "    \"stream_hz\": " << stream_hz << ",\n"
          << "    \"opened\": " << tot.opened << ",\n"
          << "    \"open_rejects\": " << tot.open_rejects << ",\n"
          << "    \"max_concurrent_streams\": " << max_concurrent << ",\n"
          << "    \"steps_completed\": " << tot.steps_completed << ",\n"
          << "    \"step_errors\": " << tot.step_errors << ",\n"
          << "    \"closed\": " << tot.closed << ",\n"
          << "    \"shutdown_drops\": " << tot.shutdown_drops << ",\n"
          << "    \"disconnects\": " << tot.disconnects << ",\n"
          << "    \"elapsed_s\": " << elapsed_s << ",\n"
          << "    \"steps_per_s\": " << steps_per_s << ",\n"
          << "    \"step_mean_ms\": " << slat.mean << ",\n"
          << "    \"step_p50_ms\": " << slat.p50 << ",\n"
          << "    \"step_p99_ms\": " << slat.p99 << ",\n"
          << "    \"step_p999_ms\": " << slat.p999 << ",\n"
          << "    \"daemon_peak_live\": " << d_peak << ",\n"
          << "    \"daemon_evicted\": " << d_evicted << ",\n"
          << "    \"daemon_restored\": " << d_restored << ",\n"
          << "    \"parity_chunks_checked\": " << tot.parity_checked
          << ",\n"
          << "    \"parity_totals_checked\": " << tot.totals_checked
          << ",\n"
          << "    \"parity\": " << (parity_ok ? "true" : "false") << "\n"
          << "  }\n"
          << "}\n";
      std::cout << "wrote " << json << "\n";
    }

    if (obs::metrics_enabled()) {
      obs::set(obs::gauge("loadgen.stream_steps_per_s"), steps_per_s);
      obs::set(obs::gauge("loadgen.parity"), parity_ok ? 1.0 : 0.0);
    }
    const std::string ledger_dir = flags.get("ledger");
    if (!ledger_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(ledger_dir, ec);
      obs::RunLedger ledger(ledger_dir + "/serve_loadgen.jsonl");
      obs::LedgerManifest m;
      m.run_id = "serve_loadgen";
      m.threads = conns;
      m.argv = exp::join_argv(argc, argv);
      m.build = std::string("cxx ") + __VERSION__;
      m.info.emplace_back("model", model_name);
      m.info.emplace_back("mode", "streaming");
      m.params.emplace_back("streams", static_cast<double>(streams_total));
      m.params.emplace_back("steps_per_stream",
                            static_cast<double>(steps_per_stream));
      m.params.emplace_back("chunk_steps", static_cast<double>(num_steps));
      ledger.write_manifest(m);
      obs::LedgerFinal fin;
      fin.values.emplace_back("steps_per_s", steps_per_s);
      fin.values.emplace_back("step_p99_ms", slat.p99);
      fin.values.emplace_back("steps_completed",
                              static_cast<double>(tot.steps_completed));
      fin.values.emplace_back("max_concurrent_streams",
                              static_cast<double>(max_concurrent));
      fin.values.emplace_back("parity", parity_ok ? 1.0 : 0.0);
      ledger.write_final(fin);
      std::cout << "wrote " << ledger.path() << "\n";
    }

    if (!parity_ok && tot.parity_checked == 0) {
      std::cerr << "STREAM PARITY FAILURE: --parity " << parity_per_conn
                << " requested, but no chunk was checked\n";
      return 1;
    }
    if (!parity_ok) {
      std::cerr << "STREAM PARITY FAILURE: " << tot.parity_failures
                << " chunk mismatches, " << tot.totals_failures
                << " close-total mismatches (of " << tot.parity_checked
                << " chunks / " << tot.totals_checked
                << " totals checked)\n";
      return 1;
    }
    if (tot.steps_completed == 0) {
      std::cerr << "no stream steps completed\n";
      return 1;
    }
    return 0;
  }

  const std::int64_t per_conn =
      (total_requests + conns - 1) / conns;  // last conn may send fewer
  std::cout << "== SERVE loadgen: " << host << ":" << port << ", "
            << total_requests << " requests over " << conns
            << " conns, T " << num_steps << ", "
            << (qps > 0 ? "open loop @ " + fmt_f(qps, 0) + " QPS"
                        : std::string("closed loop"))
            << (deadline_us > 0
                    ? ", deadline " + std::to_string(deadline_us) + "us"
                    : std::string())
            << (retry_budget > 0
                    ? ", retries " + std::to_string(retry_budget)
                    : std::string())
            << " ==\n";

  std::vector<ConnResult> results(static_cast<std::size_t>(conns));
  std::atomic<bool> connect_failed{false};
  std::string connect_error;
  std::mutex connect_error_mu;
  const auto t_start = Clock::now();
  const double interval_s = qps > 0 ? 1.0 / qps : 0.0;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnResult& r = results[static_cast<std::size_t>(c)];
      const std::int64_t first = c * per_conn;
      const std::int64_t count =
          std::max<std::int64_t>(0,
                                 std::min(per_conn, total_requests - first));
      if (count == 0) return;
      std::unique_ptr<serve::TcpClient> client;
      try {
        client = std::make_unique<serve::TcpClient>(host, port, retry_ms);
      } catch (const Error& e) {
        std::lock_guard<std::mutex> lock(connect_error_mu);
        connect_failed.store(true);
        connect_error = e.what();
        return;
      }
      // Parity checks run on a private single-sample session (sessions are
      // not thread-safe).
      std::unique_ptr<infer::InferenceSession> ref;
      Rng rng(0x10adc4feULL ^ (0x9e3779b97f4a7c15ULL *
                               static_cast<std::uint64_t>(c + 1)));
      // Exponential backoff before retry attempt `attempt` (1-based).
      const auto backoff = [&](std::int64_t attempt) {
        const std::int64_t shift = std::min<std::int64_t>(attempt - 1, 6);
        std::this_thread::sleep_for(
            std::chrono::milliseconds(backoff_ms << shift));
      };
      r.latencies_ms.reserve(static_cast<std::size_t>(count));
      bool conn_dead = false;
      for (std::int64_t i = 0; i < count && !conn_dead; ++i) {
        serve::InferRequest req;
        req.request_id =
            (static_cast<std::uint64_t>(c) << 32) |
            static_cast<std::uint64_t>(i);
        req.num_steps = num_steps;
        req.elems_per_step = static_cast<std::uint32_t>(in_elems);
        req.deadline_us = deadline_us;
        req.data = make_window(num_steps, in_elems, density, rng);

        // Open loop: launch at the scheduled slot (global slot index
        // interleaves connections); measure from the schedule, not the
        // actual send, so a backed-up daemon pays its queueing delay.
        auto scheduled = Clock::now();
        if (qps > 0) {
          scheduled =
              t_start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(
                                (static_cast<double>(i) *
                                     static_cast<double>(conns) +
                                 static_cast<double>(c)) *
                                interval_s));
          std::this_thread::sleep_until(scheduled);
        }

        // Send / retry until completed, terminal, or out of budget.
        serve::TcpClient::Reply reply;
        bool completed = false;
        std::int64_t attempts = 0;
        for (;;) {
          if (client == nullptr) {
            // Reconnect (single attempt; the backoff paces the loop).  A
            // refused connect means the daemon is gone — a drain, from
            // this side — so stop the connection like a shutdown drop.
            try {
              client = std::make_unique<serve::TcpClient>(host, port, 0);
            } catch (const Error&) {
              if (attempts < retry_budget) {
                ++attempts;
                ++r.retries;
                backoff(attempts);
                continue;
              }
              ++r.shutdown_drops;
              conn_dead = true;
              break;
            }
          }
          reply = client->roundtrip(req);
          if (reply.disconnected) {
            ++r.disconnects;
            client.reset();
            if (attempts < retry_budget) {
              ++attempts;
              ++r.retries;
              backoff(attempts);
              continue;
            }
            if (retry_budget == 0) {
              // Pre-chaos semantics: a cut connection means the daemon
              // drained away; stop this connection.
              ++r.shutdown_drops;
              conn_dead = true;
            } else {
              ++r.gave_up;
            }
            break;
          }
          if (!reply.ok) {
            if (reply.error.code == serve::ErrorCode::kShuttingDown) {
              ++r.shutdown_drops;
              conn_dead = true;
              break;
            }
            if (reply.error.code == serve::ErrorCode::kOverloaded) {
              ++r.rejected_overload;
              if (attempts < retry_budget) {
                ++attempts;
                ++r.retries;
                backoff(attempts);
                continue;
              }
              break;  // budget gone; move on to the next request
            }
            if (reply.error.code == serve::ErrorCode::kDeadlineExceeded) {
              ++r.deadline_misses;  // terminal: the answer is already late
              break;
            }
            if (reply.error.code == serve::ErrorCode::kInternalError) {
              ++r.internal_errors;
              if (attempts < retry_budget) {
                ++attempts;
                ++r.retries;
                backoff(attempts);
                continue;
              }
              ++r.gave_up;
              break;
            }
            ++r.bad_requests;  // terminal: resending cannot fix it
            break;
          }
          completed = true;
          break;
        }
        if (!completed) continue;
        const auto t_done = Clock::now();
        ++r.completed;
        r.max_batch_seen = std::max(
            r.max_batch_seen,
            static_cast<std::int64_t>(reply.response.batch));
        r.latencies_ms.push_back(
            std::chrono::duration<double, std::milli>(t_done - scheduled)
                .count());
        r.queue_us.push_back(
            static_cast<double>(reply.response.queue_ns) / 1e3);
        r.assemble_us.push_back(
            static_cast<double>(reply.response.assemble_ns) / 1e3);
        r.infer_us.push_back(
            static_cast<double>(reply.response.infer_ns) / 1e3);

        if (parity_per_conn < 0 || r.parity_checked < parity_per_conn) {
          if (ref == nullptr) {
            infer::InferOptions opts = std_flags.infer;
            opts.max_batch = 1;
            ref = std::make_unique<infer::InferenceSession>(model, opts);
          }
          std::vector<std::int64_t> dims{1};
          for (std::int64_t d : per_sample.dims()) dims.push_back(d);
          std::vector<Tensor> window;
          window.reserve(num_steps);
          for (std::uint32_t t = 0; t < num_steps; ++t) {
            Tensor x{Shape(dims)};
            std::memcpy(x.data(), req.data.data() + t * in_elems,
                        static_cast<std::size_t>(in_elems) * sizeof(float));
            window.push_back(std::move(x));
          }
          const infer::InferenceResult want = ref->run(window);
          ++r.parity_checked;
          if (std::memcmp(want.spike_counts.data(),
                          reply.response.spike_counts.data(),
                          static_cast<std::size_t>(out_features) *
                              sizeof(float)) != 0)
            ++r.parity_failures;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();

  if (connect_failed.load()) {
    std::cerr << "cannot reach the daemon: " << connect_error << "\n";
    return 1;
  }

  std::vector<double> latencies;
  std::vector<double> queue_us, assemble_us, infer_us;
  ConnResult total;
  for (const ConnResult& r : results) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    queue_us.insert(queue_us.end(), r.queue_us.begin(), r.queue_us.end());
    assemble_us.insert(assemble_us.end(), r.assemble_us.begin(),
                       r.assemble_us.end());
    infer_us.insert(infer_us.end(), r.infer_us.begin(), r.infer_us.end());
    total.completed += r.completed;
    total.rejected_overload += r.rejected_overload;
    total.shutdown_drops += r.shutdown_drops;
    total.deadline_misses += r.deadline_misses;
    total.internal_errors += r.internal_errors;
    total.bad_requests += r.bad_requests;
    total.disconnects += r.disconnects;
    total.retries += r.retries;
    total.gave_up += r.gave_up;
    total.parity_checked += r.parity_checked;
    total.parity_failures += r.parity_failures;
    total.max_batch_seen = std::max(total.max_batch_seen, r.max_batch_seen);
  }
  const LatencyStats lat = summarize_latencies(latencies);
  const LatencyStats st_queue = summarize_latencies(queue_us);
  const LatencyStats st_assemble = summarize_latencies(assemble_us);
  const LatencyStats st_infer = summarize_latencies(infer_us);
  // Goodput counts only completed (parity-checkable) responses, so under
  // chaos it is the number that matters; retries and misses are overhead.
  const double achieved_qps =
      elapsed_s > 0 ? static_cast<double>(total.completed) / elapsed_s : 0.0;
  const bool shutdown_observed = total.shutdown_drops > 0;
  // A gate that was asked to check (--parity != 0) and checked nothing has
  // not passed.
  const bool parity_ok = total.parity_failures == 0 &&
                         (parity_per_conn == 0 || total.parity_checked > 0);

  // Post-burst STAT probe: record whether the daemon's flight recorder was
  // armed for this burst (the CI overhead comparison keys BENCH_serve.json
  // pairs on it) and how much it dropped.  Best-effort — a daemon that
  // already drained or crashed just leaves the fields out.
  int flight_armed = -1;  // -1 unknown, 0 disarmed, 1 armed
  std::int64_t flight_dropped = 0;
  try {
    serve::TcpClient probe(host, port, 0);
    const serve::TcpClient::StatReply stat_reply = probe.stat(0);
    if (!stat_reply.disconnected) {
      const JsonValue stat = JsonValue::parse(stat_reply.json, "STAT");
      if (const JsonValue* flight = stat.find("flight")) {
        const JsonValue* armed = flight->find("armed");
        if (armed != nullptr && armed->is_bool())
          flight_armed = armed->as_bool() ? 1 : 0;
        flight_dropped =
            static_cast<std::int64_t>(flight->number_or("dropped", 0));
      }
    }
  } catch (const Error&) {
  }

  AsciiTable table({"metric", "value"});
  table.set_title("serve loadgen (" + std::to_string(total.completed) +
                  " completed, " + fmt_f(elapsed_s, 2) + "s)");
  table.add_row({"QPS (goodput)", fmt_f(achieved_qps, 0)});
  table.add_row({"p50", fmt_f(lat.p50, 2) + "ms"});
  table.add_row({"p90", fmt_f(lat.p90, 2) + "ms"});
  table.add_row({"p99", fmt_f(lat.p99, 2) + "ms"});
  table.add_row({"p999", fmt_f(lat.p999, 2) + "ms"});
  table.add_row({"mean", fmt_f(lat.mean, 2) + "ms"});
  table.add_row({"queue wait", fmt_f(st_queue.mean, 0) + "us mean / " +
                                   fmt_f(st_queue.p99, 0) + "us p99"});
  table.add_row({"assembly", fmt_f(st_assemble.mean, 0) + "us mean / " +
                                 fmt_f(st_assemble.p99, 0) + "us p99"});
  table.add_row({"inference", fmt_f(st_infer.mean, 0) + "us mean / " +
                                  fmt_f(st_infer.p99, 0) + "us p99"});
  table.add_row({"max batch seen", std::to_string(total.max_batch_seen)});
  table.add_row({"overload rejections",
                 std::to_string(total.rejected_overload)});
  table.add_row({"shutdown drops", std::to_string(total.shutdown_drops)});
  table.add_row({"deadline misses", std::to_string(total.deadline_misses)});
  table.add_row({"internal errors", std::to_string(total.internal_errors)});
  table.add_row({"bad requests", std::to_string(total.bad_requests)});
  table.add_row({"disconnects", std::to_string(total.disconnects)});
  table.add_row({"retries", std::to_string(total.retries)});
  table.add_row({"gave up", std::to_string(total.gave_up)});
  table.add_row({"parity",
                 parity_per_conn == 0
                     ? std::string("skipped (--parity 0)")
                     : (parity_ok ? "ok" : "FAILED") + std::string(" (") +
                           std::to_string(total.parity_checked) +
                           " checked)"});
  table.print(std::cout);

  const std::string json = flags.get("json");
  if (!json.empty()) {
    std::ofstream out(json);
    ST_REQUIRE(out.good(), "cannot open " + json + " for writing");
    out << "{\n"
        << "  \"model\": \"" << model_name << "\",\n"
        << "  \"mode\": \"" << (qps > 0 ? "open" : "closed") << "\",\n"
        << "  \"target_qps\": " << qps << ",\n"
        << "  \"conns\": " << conns << ",\n"
        << "  \"num_steps\": " << num_steps << ",\n"
        << "  \"requests\": " << total_requests << ",\n"
        << "  \"completed\": " << total.completed << ",\n"
        << "  \"rejected_overload\": " << total.rejected_overload << ",\n"
        << "  \"shutdown_drops\": " << total.shutdown_drops << ",\n"
        << "  \"shutdown_observed\": "
        << (shutdown_observed ? "true" : "false") << ",\n"
        << "  \"deadline_us\": " << deadline_us << ",\n"
        << "  \"deadline_misses\": " << total.deadline_misses << ",\n"
        << "  \"internal_errors\": " << total.internal_errors << ",\n"
        << "  \"bad_requests\": " << total.bad_requests << ",\n"
        << "  \"disconnects\": " << total.disconnects << ",\n"
        << "  \"retry_budget\": " << retry_budget << ",\n"
        << "  \"retries\": " << total.retries << ",\n"
        << "  \"gave_up\": " << total.gave_up << ",\n"
        << "  \"elapsed_s\": " << elapsed_s << ",\n"
        << "  \"max_sustainable_qps\": " << achieved_qps << ",\n"
        << "  \"goodput_qps\": " << achieved_qps << ",\n"
        << "  \"mean_ms\": " << lat.mean << ",\n"
        << "  \"p50_ms\": " << lat.p50 << ",\n"
        << "  \"p90_ms\": " << lat.p90 << ",\n"
        << "  \"p99_ms\": " << lat.p99 << ",\n"
        << "  \"p999_ms\": " << lat.p999 << ",\n"
        << "  \"queue_mean_us\": " << st_queue.mean << ",\n"
        << "  \"queue_p99_us\": " << st_queue.p99 << ",\n"
        << "  \"assemble_mean_us\": " << st_assemble.mean << ",\n"
        << "  \"assemble_p99_us\": " << st_assemble.p99 << ",\n"
        << "  \"infer_mean_us\": " << st_infer.mean << ",\n"
        << "  \"infer_p99_us\": " << st_infer.p99 << ",\n"
        << "  \"max_batch_seen\": " << total.max_batch_seen << ",\n";
    if (flight_armed >= 0)
      out << "  \"flight_recorder_armed\": "
          << (flight_armed == 1 ? "true" : "false") << ",\n"
          << "  \"flight_dropped\": " << flight_dropped << ",\n";
    out << "  \"parity_checked\": " << total.parity_checked << ",\n"
        << "  \"parity\": " << (parity_ok ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "wrote " << json << "\n";
  }

  // Metrics and the run ledger are written on EVERY exit below — the
  // parity-failure path especially, since a gate trip with no final record
  // used to look identical to a run that never happened.
  if (obs::metrics_enabled()) {
    obs::set(obs::gauge("loadgen.goodput_qps"), achieved_qps);
    obs::set(obs::gauge("loadgen.completed"),
             static_cast<double>(total.completed));
    obs::set(obs::gauge("loadgen.parity"), parity_ok ? 1.0 : 0.0);
  }
  const std::string ledger_dir = flags.get("ledger");
  if (!ledger_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(ledger_dir, ec);
    obs::RunLedger ledger(ledger_dir + "/serve_loadgen.jsonl");
    obs::LedgerManifest m;
    m.run_id = "serve_loadgen";
    m.threads = conns;
    m.argv = exp::join_argv(argc, argv);
    m.build = std::string("cxx ") + __VERSION__;
    m.info.emplace_back("model", model_name);
    m.info.emplace_back("mode", qps > 0 ? "open" : "closed");
    m.params.emplace_back("requests", static_cast<double>(total_requests));
    m.params.emplace_back("conns", static_cast<double>(conns));
    m.params.emplace_back("num_steps", static_cast<double>(num_steps));
    m.params.emplace_back("density", density);
    ledger.write_manifest(m);
    obs::LedgerFinal fin;
    fin.values.emplace_back("goodput_qps", achieved_qps);
    fin.values.emplace_back("p99_ms", lat.p99);
    fin.values.emplace_back("completed",
                            static_cast<double>(total.completed));
    fin.values.emplace_back("parity", parity_ok ? 1.0 : 0.0);
    fin.values.emplace_back("shutdown_observed",
                            shutdown_observed ? 1.0 : 0.0);
    ledger.write_final(fin);
    std::cout << "wrote " << ledger.path() << "\n";
  }

  if (!parity_ok) {
    if (total.parity_checked == 0)
      std::cerr << "PARITY FAILURE: --parity " << parity_per_conn
                << " requested, but no response was checked\n";
    else
      std::cerr << "PARITY FAILURE: " << total.parity_failures << " of "
                << total.parity_checked
                << " checked responses differ from a direct "
                   "InferenceSession run\n";
    return 1;
  }
  if (total.completed == 0) {
    std::cerr << "no requests completed\n";
    return 1;
  }
  return 0;
}
