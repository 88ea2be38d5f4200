// serve — the spiketune serving daemon.
//
// Compiles a model-zoo network into a CompiledModel, starts the TCP server
// (dynamic batching + admission control, see serve/server.h), and runs
// until SIGINT/SIGTERM.  Shutdown is cooperative and drain-safe: the
// signal sets a flag through the self-pipe handler (obs/signal_flush.h),
// the daemon stops accepting, answers every admitted request, flushes
// telemetry and the ledger, and exits 0 — clients observing the drain get
// `shutting-down` errors or a closed connection, never a half-written
// frame.
//
//   ./serve --model mlp --port 7421 --workers 2
//   ./serve --model csnn --batch 32 --latency-budget-us 3000 --ledger runs
//   ./serve --model csnn --metrics-out serve_metrics.csv
#include <poll.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>

#include "core/cli.h"
#include "core/error.h"
#include "core/parallel.h"
#include "exp/ledger_flags.h"
#include "exp/standard_flags.h"
#include "obs/crash.h"
#include "obs/flight.h"
#include "obs/ledger.h"
#include "obs/signal_flush.h"
#include "serve/server.h"
#include "snn/model_zoo.h"

using namespace spiketune;

int main(int argc, char** argv) {
  CliFlags flags;
  flags.declare("model", "mlp", "topology: csnn (quickstart) | mlp");
  flags.declare("beta", "0.5", "LIF membrane leak");
  flags.declare("theta", "1.5", "LIF firing threshold");
  flags.declare("host", "127.0.0.1", "bind address");
  flags.declare("port", "7421", "TCP port (0 = ephemeral, printed at start)");
  flags.declare("workers", "2", "inference worker threads");
  flags.declare("batch", "16", "max samples coalesced per batch");
  flags.declare("latency-budget-us", "2000",
                "how long a batch stays open for batchmates");
  flags.declare("queue-depth", "256",
                "admission control: max queued requests before overload "
                "rejections");
  flags.declare("max-steps", "64", "per-request window-length cap");
  flags.declare("max-streams", "4096",
                "streaming: max per-stream states held in memory; "
                "beyond it the coldest streams spill to --stream-dir");
  flags.declare("stream-dir", "",
                "streaming: checkpoint directory for LRU-evicted and "
                "drain-checkpointed stream state (empty = no spilling; "
                "opens past --max-streams are refused)");
  flags.declare("ledger", "", "write a run ledger into this directory");
  flags.declare("span-log", "",
                "write sampled request spans (JSONL) here at drain");
  flags.declare("span-sample", "16",
                "record every Nth request's span (0 = off, 1 = all)");
  flags.declare("span-capacity", "4096", "spans retained in the ring");
  flags.declare("stat-window-s", "10",
                "STAT snapshots aggregate over this many trailing seconds");
  flags.declare("slo-target-ms", "0",
                "latency SLO target in ms (0 disables SLO tracking)");
  flags.declare("slo-budget", "0.01",
                "allowed SLO violation fraction (error budget)");
  flags.declare("send-timeout-ms", "5000",
                "cut a connection whose peer stops reading after this long "
                "mid-write (0 = unbounded)");
  flags.declare("idle-timeout-ms", "60000",
                "reap connections with no completed frame for this long "
                "(0 = never)");
  flags.declare("fault-spec", "",
                "deterministic fault injection, e.g. "
                "seed=42,p_partial=0.3,p_disconnect=0.01,p_corrupt=0.01 "
                "(empty = off; see DESIGN.md §13 for the grammar)");
  flags.declare("fault-log", "",
                "write the fired-fault schedule (JSONL) here at drain");
  flags.declare("flight-recorder", "true",
                "black-box flight recorder (obs/flight.h): per-thread event "
                "rings dumped into the crash bundle on a fatal signal");
  flags.declare("flight-events", "4096",
                "flight-recorder ring capacity per thread (rounded up to a "
                "power of two)");
  flags.declare("crash-dir", "serve_crash",
                "crash-bundle directory for the fatal-signal handler "
                "(empty = no crash handler)");
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

  // Cooperative shutdown must be armed BEFORE telemetry: once armed, the
  // flush-and-exit signal handler stands down and SIGTERM means "drain".
  obs::install_shutdown_request();
  const auto std_flags =
      exp::apply_standard_flags(flags, exp::DriverKind::kPlain);

  // Read every flag value up front so a malformed value (e.g. --port=x)
  // prints usage and exits 2 like an unknown flag, instead of aborting.
  snn::LifConfig lif;
  serve::ServerConfig cfg;
  bool flight_on = true;
  std::int64_t flight_events = 4096;
  std::string crash_dir;
  try {
    flight_on = flags.get_bool("flight-recorder");
    flight_events = flags.get_int("flight-events");
    crash_dir = flags.get("crash-dir");
    lif.beta = static_cast<float>(flags.get_double("beta"));
    lif.threshold = static_cast<float>(flags.get_double("theta"));
    cfg.host = flags.get("host");
    cfg.port = static_cast<int>(flags.get_int("port"));
    cfg.num_workers = static_cast<int>(flags.get_int("workers"));
    cfg.max_batch = flags.get_int("batch");
    cfg.batch_timeout_us = flags.get_int("latency-budget-us");
    cfg.max_queue_depth = flags.get_int("queue-depth");
    cfg.max_steps = flags.get_int("max-steps");
    cfg.max_live_streams = flags.get_int("max-streams");
    cfg.stream_checkpoint_dir = flags.get("stream-dir");
    cfg.sparse_crossover = std_flags.infer.sparse_crossover;
    cfg.span_log = flags.get("span-log");
    cfg.span_sample_every =
        static_cast<std::uint64_t>(flags.get_int("span-sample"));
    cfg.span_capacity =
        static_cast<std::size_t>(flags.get_int("span-capacity"));
    cfg.stat_window_s = static_cast<int>(flags.get_int("stat-window-s"));
    cfg.slo_target_ms = flags.get_double("slo-target-ms");
    cfg.slo_budget = flags.get_double("slo-budget");
    cfg.send_timeout_ms = static_cast<int>(flags.get_int("send-timeout-ms"));
    cfg.idle_timeout_ms = static_cast<int>(flags.get_int("idle-timeout-ms"));
    cfg.fault_spec = flags.get("fault-spec");
    cfg.fault_log = flags.get("fault-log");
    if (!cfg.fault_spec.empty())
      serve::FaultSpec::parse(cfg.fault_spec);  // fail fast on a bad spec
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << flags.usage(argv[0]);
    return 2;
  }
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
  net.reset();  // the compiled model is self-contained

  // Identification for STAT / serve_top / the crash bundle: a build stamp
  // plus an FNV-1a fingerprint over everything that shapes this daemon's
  // behavior, so a post-mortem can tell *which* configuration crashed.
  const std::string build_stamp = std::string("cxx ") + __VERSION__;
  const std::string argv_text = exp::join_argv(argc, argv);
  cfg.build_stamp = build_stamp;
  cfg.config_fingerprint =
      obs::fnv1a64(build_stamp + "\n" + model_name + "\n" + argv_text);

  // Black-box forensics, armed before any request can arrive.  The flight
  // recorder is on by default: its disabled-path cost is one atomic load,
  // and its armed-path cost is a handful of stores per request — cheap
  // insurance that the *next* crash leaves evidence.
  if (flight_on) {
    obs::FlightConfig fc;
    fc.events_per_thread = static_cast<std::uint32_t>(flight_events);
    obs::arm_flight_recorder(fc);
  }
  if (!crash_dir.empty()) {
    obs::CrashHandlerConfig cc;
    cc.bundle_dir = crash_dir;
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(cfg.config_fingerprint));
    cc.fingerprint_text = "build: " + build_stamp + "\nmodel: " + model_name +
                          "\nfingerprint: " + hex + "\nargv: " + argv_text;
    obs::install_crash_handler(cc);
  }

  serve::Server server(model, cfg);
  server.start();
  if (!crash_dir.empty()) {
    // The span ring rides along in the crash bundle (extra.jsonl), kept
    // fresh by the handler's refresher thread.  Cleared before the server
    // (and its SpanRecorder) is destroyed.
    obs::set_crash_extra_provider(
        [&server] { return server.spans().dump_jsonl(); });
  }
  std::cout << "serving " << model_name << " on " << cfg.host << ":"
            << server.port() << " (" << cfg.num_workers
            << " workers, max batch " << cfg.max_batch << ", budget "
            << cfg.batch_timeout_us << "us)" << std::endl;

  // The manifest goes down at STARTUP, not drain: a crash mid-burst must
  // leave a parseable ledger for spiketune_flightdump to append its
  // post-mortem final record to (parse_ledger requires a manifest first).
  const std::string ledger_dir = flags.get("ledger");
  obs::RunLedger ledger;
  if (!ledger_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(ledger_dir, ec);
    ledger = obs::RunLedger(ledger_dir + "/serve.jsonl");
    obs::LedgerManifest m;
    m.run_id = "serve";
    m.config_fingerprint = cfg.config_fingerprint;
    m.threads = num_threads();
    m.argv = argv_text;
    m.build = build_stamp;
    m.info.emplace_back("model", model_name);
    m.params.emplace_back("workers", static_cast<double>(cfg.num_workers));
    m.params.emplace_back("max_batch", static_cast<double>(cfg.max_batch));
    m.params.emplace_back("batch_timeout_us",
                          static_cast<double>(cfg.batch_timeout_us));
    m.params.emplace_back("max_queue_depth",
                          static_cast<double>(cfg.max_queue_depth));
    m.params.emplace_back("max_live_streams",
                          static_cast<double>(cfg.max_live_streams));
    ledger.write_manifest(m);
  }

  // Block until the first SIGINT/SIGTERM; a second signal force-kills.
  for (;;) {
    struct pollfd pfd = {obs::shutdown_fd(), POLLIN, 0};
    const int rc = poll(&pfd, 1, -1);
    if (rc > 0 || obs::shutdown_requested()) break;
  }
  std::cout << "signal " << obs::shutdown_signum()
            << " received; draining" << std::endl;
  server.drain_and_stop();
  // The provider captured `server`; cut it loose before server goes away
  // (and before the final snapshot refresh below misses the drain dump).
  obs::set_crash_extra_provider(nullptr);
  const serve::Server::Stats stats = server.stats();

  if (ledger.enabled()) {
    obs::LedgerFinal fin;
    fin.exit_kind = "drain";  // signal-requested cooperative shutdown
    fin.values.emplace_back("connections",
                            static_cast<double>(stats.connections));
    fin.values.emplace_back("admitted", static_cast<double>(stats.admitted));
    fin.values.emplace_back("served", static_cast<double>(stats.served));
    fin.values.emplace_back("batches", static_cast<double>(stats.batches));
    fin.values.emplace_back("rejected_overload",
                            static_cast<double>(stats.rejected_overload));
    fin.values.emplace_back("rejected_draining",
                            static_cast<double>(stats.rejected_draining));
    fin.values.emplace_back("bad_requests",
                            static_cast<double>(stats.bad_requests));
    fin.values.emplace_back("dropped_responses",
                            static_cast<double>(stats.dropped_responses));
    fin.values.emplace_back("deadline_requests",
                            static_cast<double>(stats.deadline_requests));
    fin.values.emplace_back("deadline_shed",
                            static_cast<double>(stats.deadline_shed));
    fin.values.emplace_back("internal_errors",
                            static_cast<double>(stats.internal_errors));
    fin.values.emplace_back("idle_reaped",
                            static_cast<double>(stats.idle_reaped));
    fin.values.emplace_back("send_timeouts",
                            static_cast<double>(stats.send_timeouts));
    fin.values.emplace_back("max_batch_seen",
                            static_cast<double>(stats.max_batch_seen));
    fin.values.emplace_back("stat_requests",
                            static_cast<double>(stats.stat_requests));
    fin.values.emplace_back("streams_opened",
                            static_cast<double>(stats.streams_opened));
    fin.values.emplace_back("streams_closed",
                            static_cast<double>(stats.streams_closed));
    fin.values.emplace_back("streams_evicted",
                            static_cast<double>(stats.streams_evicted));
    fin.values.emplace_back("streams_restored",
                            static_cast<double>(stats.streams_restored));
    fin.values.emplace_back("streams_checkpointed",
                            static_cast<double>(stats.streams_checkpointed));
    fin.values.emplace_back("stream_peak_live",
                            static_cast<double>(stats.stream_peak_live));
    fin.values.emplace_back("stream_steps",
                            static_cast<double>(stats.stream_steps));
    fin.values.emplace_back("stream_orphan_steps",
                            static_cast<double>(stats.stream_orphan_steps));
    fin.values.emplace_back("spans_recorded",
                            static_cast<double>(server.spans().recorded()));
    if (server.slo().enabled()) {
      fin.values.emplace_back("slo_ok",
                              static_cast<double>(server.slo().ok()));
      fin.values.emplace_back(
          "slo_violations", static_cast<double>(server.slo().violations()));
      fin.values.emplace_back("slo_burn", server.slo().burn());
    }
    ledger.write_final(fin);
    std::cout << "wrote " << ledger.path() << std::endl;
  }

  std::cout << "drained: served " << stats.served << " requests in "
            << stats.batches << " batches (max batch "
            << stats.max_batch_seen << "); exiting 0" << std::endl;
  return 0;
}
