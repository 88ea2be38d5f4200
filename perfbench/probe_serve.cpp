// Load generators for the serve daemon.
//
// run.py starts each daemon and talks to this probe over stdin/stdout:
//
//   probe -> "ready"                     inputs and expected outputs built
//   run.py -> "setup <port> <exec_ns>"   daemon exec'd at CLOCK_MONOTONIC
//                                        exec_ns; one checked request
//   probe -> "setup_s <seconds>"         exec -> first OK response
//   run.py -> "load <port>"              run the measured phases
//   probe -> result JSON, then exits
//
// Every response is compared bitwise against the same input run through a
// local InferenceSession (plain requests) or local StreamStates (stream
// chunks and close totals); a run that verified nothing fails.
//
// serve-request: open-loop plain INFER windows (T 8, density 0.15) over
// `conns` connections, timed from the scheduled send.  Phases: the nominal
// rate (40% of the run), a ladder of three higher rates (10% each; the SLO
// search), then a closed-loop burst (30%) for the daemon's capacity.
//
// serve-stream: closed-loop stream churn.  Each connection owns 32 stream
// slots and cycles open -> 4 chunks each (round robin over its slots) ->
// close until the run ends; run.py caps live streams at half the stream
// count, so almost every step restores one stream and spills another.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/json.h"
#include "infer/session.h"
#include "probe.h"
#include "serve/transport.h"

namespace perfbench {

namespace {

using spiketune::JsonValue;
using spiketune::infer::CompiledModel;
using spiketune::infer::InferenceSession;
using spiketune::infer::StreamState;
using spiketune::serve::InferRequest;
using spiketune::serve::TcpClient;

constexpr std::int64_t kSteps = 8;
constexpr double kDensity = 0.15;
constexpr std::int64_t kPool = 32;  // distinct request windows
constexpr double kNominalQps = 250.0;
constexpr double kLadderQps[] = {350.0, 450.0, 550.0};
constexpr double kSloMs = 25.0;         // p99 limit for slo_qps
constexpr double kLagGrowthMs = 2.0;    // backlog: late lag - early lag
constexpr int kConnectRetryMs = 5000;
constexpr double kRateBinS = 0.5;  // throughput = median rate over bins

std::uint64_t seconds_ns(double s) { return static_cast<std::uint64_t>(s * 1e9); }

void sleep_until_ns(std::uint64_t t) {
  const std::uint64_t now = now_ns();
  if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

/// Reads one command line from run.py; empty on EOF.
std::string read_command() {
  std::string line;
  if (!std::getline(std::cin, line)) return "";
  return line;
}

/// Answers "setup <port> <exec_ns>" commands until "load <port>" arrives;
/// returns the load port (or -1 on EOF / a failed setup request).
template <typename CheckedFirst>
int serve_setups(Report& report, const CheckedFirst& first_ok) {
  std::cout << "ready" << std::endl;
  std::vector<double> setup_s;
  for (;;) {
    const std::string cmd = read_command();
    std::istringstream in(cmd);
    std::string verb;
    int port = 0;
    in >> verb >> port;
    if (verb == "load") {
      report.metric("setup_s", quantile(setup_s, 0.5), "s",
                    static_cast<std::int64_t>(setup_s.size()));
      return port;
    }
    if (verb != "setup") return -1;
    std::uint64_t exec_ns = 0;
    in >> exec_ns;
    TcpClient client("127.0.0.1", port, kConnectRetryMs);
    if (!first_ok(client)) {
      report.gate("setup_first_response", false,
                  "first request after daemon start failed or mismatched");
      return -1;
    }
    const double s = static_cast<double>(now_ns() - exec_ns) / 1e9;
    setup_s.push_back(s);
    std::cout << "setup_s " << s << std::endl;
  }
}

/// Windowed stage means from a STAT document.
double stat_stage_mean(const JsonValue& stat, const char* stage) {
  const JsonValue* stages = stat.find("stages");
  const JsonValue* h = stages ? stages->find(stage) : nullptr;
  return h ? h->number_or("mean", 0.0) : 0.0;
}

JsonValue fetch_stat(TcpClient& client) {
  const auto reply = client.stat(0);
  if (!reply.ok) throw std::runtime_error("STAT request failed");
  return JsonValue::parse(reply.json, "STAT");
}

// --- serve-request -----------------------------------------------------------

/// One request's outcome, from its scheduled send time.
struct Sample {
  double latency_ms = 0.0;    // scheduled send -> response
  double lag_ms = 0.0;        // scheduled send -> actual send
  double roundtrip_ms = 0.0;  // actual send -> response
  double queue_us = 0.0, assemble_us = 0.0, infer_us = 0.0;
  double batch = 0.0;
  std::uint64_t done_ns = 0;  // response arrival
};

struct PhaseResult {
  std::vector<Sample> samples;
  std::int64_t attempted = 0, failed = 0, checked = 0, mismatched = 0;
  std::uint64_t start_ns = 0, end_ns = 0;  // the scheduled phase
};

class RequestLoad {
 public:
  RequestLoad(const Options& opt, int conns) : opt_(opt), conns_(conns) {
    const auto net = make_served_net();
    model_ = CompiledModel::compile(*net, served_input_shape());
    std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x5e7e);
    const auto window =
        spike_window(kSteps, kPool, served_input_shape(), kDensity, rng);
    InferenceSession session(model_, batch_options(kPool));
    const Tensor counts = session.run(window).spike_counts;
    out_features_ = counts.shape()[1];
    for (std::int64_t r = 0; r < kPool; ++r) {
      InferRequest req;
      req.num_steps = static_cast<std::uint32_t>(kSteps);
      req.elems_per_step =
          static_cast<std::uint32_t>(served_input_shape().numel());
      req.data = window_row(window, r);
      requests_.push_back(std::move(req));
      expected_.emplace_back(counts.data() + r * out_features_,
                             counts.data() + (r + 1) * out_features_);
    }
    for (int c = 0; c < conns_; ++c) logs_.emplace_back(opt.trace);
  }

  /// One checked request (the daemon's first OK response).
  bool first_ok(TcpClient& client) {
    InferRequest req = requests_[0];
    req.request_id = 1;
    const auto reply = client.roundtrip(req);
    return reply.ok && matches(reply.response.spike_counts, 0);
  }

  int run(int port, Report& report);

 private:
  bool matches(const std::vector<float>& got, std::int64_t pool) const {
    return static_cast<std::int64_t>(got.size()) == out_features_ &&
           same_bits(got.data(), expected_[pool].data(), out_features_);
  }
  /// Runs every connection for `seconds`: open loop at `qps` (> 0) or
  /// closed loop (qps == 0).
  PhaseResult phase(std::uint64_t phase_id, double qps, double seconds);

  const Options& opt_;
  int conns_;
  CompiledModel model_;
  std::int64_t out_features_ = 0;
  std::vector<InferRequest> requests_;
  std::vector<std::vector<float>> expected_;
  std::vector<std::unique_ptr<TcpClient>> clients_;
  std::vector<SpanLog> logs_;  // one per connection thread
};

PhaseResult RequestLoad::phase(std::uint64_t phase_id, double qps,
                               double seconds) {
  std::vector<PhaseResult> per(static_cast<std::size_t>(conns_));
  const std::uint64_t start = now_ns() + 1'000'000;  // 1 ms to spawn
  const std::uint64_t end = start + seconds_ns(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns_; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& r = per[static_cast<std::size_t>(c)];
      TcpClient& client = *clients_[static_cast<std::size_t>(c)];
      SpanLog& log = logs_[static_cast<std::size_t>(c)];
      const double period_ns = qps > 0 ? 1e9 * conns_ / qps : 0.0;
      std::uint64_t closed_next = start;
      for (std::uint64_t k = 0;; ++k) {
        // Scheduled send: a fixed per-connection cadence, phase-shifted
        // so the connections interleave evenly.
        const std::uint64_t sched =
            qps > 0 ? start + static_cast<std::uint64_t>(
                                  (static_cast<double>(k) +
                                   static_cast<double>(c) / conns_) *
                                  period_ns)
                    : closed_next;
        if (sched >= end) break;
        sleep_until_ns(sched);
        // Each connection cycles through its own slice of the pool, so no
        // request object is shared between threads.
        const std::int64_t per = kPool / conns_;
        const std::int64_t pool =
            c * per + static_cast<std::int64_t>(k % static_cast<std::uint64_t>(per));
        InferRequest& req = requests_[static_cast<std::size_t>(pool)];
        const std::uint64_t id = (phase_id << 48) |
                                 (static_cast<std::uint64_t>(c) << 40) | k;
        req.request_id = id;
        ++r.attempted;
        const std::uint64_t sent = now_ns();
        const auto reply = client.roundtrip(req);
        const std::uint64_t done = now_ns();
        closed_next = done;
        const auto root = log.add("loadgen.request", sched, done, id);
        log.add("serve.roundtrip", sent, done, id, root);
        if (!reply.ok) {
          ++r.failed;
          if (reply.disconnected) break;
          continue;
        }
        ++r.checked;
        if (!matches(reply.response.spike_counts, pool)) ++r.mismatched;
        Sample s;
        s.latency_ms = static_cast<double>(done - sched) / 1e6;
        s.lag_ms = static_cast<double>(sent - sched) / 1e6;
        s.roundtrip_ms = static_cast<double>(done - sent) / 1e6;
        s.queue_us = static_cast<double>(reply.response.queue_ns) / 1e3;
        s.assemble_us = static_cast<double>(reply.response.assemble_ns) / 1e3;
        s.infer_us = static_cast<double>(reply.response.infer_ns) / 1e3;
        s.batch = reply.response.batch;
        s.done_ns = done;
        r.samples.push_back(s);
      }
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult all;
  for (auto& r : per) {
    all.samples.insert(all.samples.end(), r.samples.begin(), r.samples.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.checked += r.checked;
    all.mismatched += r.mismatched;
  }
  // Chronological, so the first and last quarters of a rung are its start
  // and its end.
  std::sort(all.samples.begin(), all.samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_ns < b.done_ns; });
  all.start_ns = start;
  all.end_ns = end;
  return all;
}

template <typename F>
std::vector<double> pick(const std::vector<Sample>& samples, F field) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(field(s));
  return out;
}

int RequestLoad::run(int port, Report& report) {
  for (int c = 0; c < conns_; ++c)
    clients_.push_back(
        std::make_unique<TcpClient>("127.0.0.1", port, kConnectRetryMs));

  std::int64_t attempted = 0, failed = 0, checked = 0, mismatched = 0;
  const auto tally = [&](const PhaseResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    checked += p.checked;
    mismatched += p.mismatched;
  };

  // Nominal rate: latency percentiles and the per-layer breakdown.
  const PhaseResult nominal = phase(1, kNominalQps, 0.4 * opt_.seconds);
  tally(nominal);
  const std::uint64_t stat_t0 = now_ns();
  const JsonValue stat = fetch_stat(*clients_[0]);
  const double stat_ms = ms_since(stat_t0);

  // SLO search: the nominal rate is the ladder's first rung.
  double slo_qps = 0.0;
  std::int64_t slo_samples = 0;
  const auto rung = [&](double qps, const PhaseResult& p) {
    const auto lat = pick(p.samples, [](const Sample& s) { return s.latency_ms; });
    const auto lag = pick(p.samples, [](const Sample& s) { return s.lag_ms; });
    const std::size_t q = lag.size() / 4;
    const double early = mean({lag.begin(), lag.begin() + q});
    const double late = mean({lag.end() - q, lag.end()});
    const double p99 = quantile(lat, 0.99);
    const bool ok = p.failed == 0 && !p.samples.empty() && p99 <= kSloMs &&
                    late - early <= kLagGrowthMs;
    std::cout << "rung " << qps << " qps: p99 " << p99 << " ms, lag "
              << early << " -> " << late << " ms" << (ok ? "" : " (miss)")
              << std::endl;
    if (ok && qps > slo_qps) {
      slo_qps = qps;
      slo_samples = static_cast<std::int64_t>(lat.size());
    }
  };
  rung(kNominalQps, nominal);
  std::uint64_t phase_id = 2;
  for (double qps : kLadderQps) {
    const PhaseResult p = phase(phase_id++, qps, 0.1 * opt_.seconds);
    tally(p);
    rung(qps, p);
  }

  // Capacity: every connection closed loop; the median rate over
  // half-second bins, so one stall does not decide the figure.
  const PhaseResult cap = phase(phase_id, 0.0, 0.3 * opt_.seconds);
  tally(cap);
  const auto done = [&] {
    std::vector<std::uint64_t> t;
    for (const Sample& s : cap.samples) t.push_back(s.done_ns);
    return t;
  }();

  report.count_attempt(attempted, failed);
  report.gate("serve_responses_verified", checked > 0 && mismatched == 0,
              std::to_string(checked - mismatched) + "/" +
                  std::to_string(checked) +
                  " responses bitwise equal to a local InferenceSession");

  const auto lat =
      pick(nominal.samples, [](const Sample& s) { return s.latency_ms; });
  const auto n = static_cast<std::int64_t>(lat.size());
  report.metric("req_p50_ms", quantile(lat, 0.5), "ms", n);
  report.metric("req_p99_ms", quantile(lat, 0.99), "ms", n);
  report.metric("slo_qps", slo_qps, "req/s", slo_samples);
  report.metric("capacity_qps",
                median_rate(done, cap.start_ns, cap.end_ns, kRateBinS),
                "req/s", static_cast<std::int64_t>(cap.samples.size()));
  report.metric("error_rate",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                "ratio", attempted);

  // Per-layer breakdown at the nominal rate (means per request).
  const auto m = [&](auto field) { return mean(pick(nominal.samples, field)); };
  const double roundtrip = m([](const Sample& s) { return s.roundtrip_ms; });
  const double queue = m([](const Sample& s) { return s.queue_us; });
  const double assemble = m([](const Sample& s) { return s.assemble_us; });
  const double infer = m([](const Sample& s) { return s.infer_us; });
  report.metric("serve.roundtrip_ms", roundtrip, "ms", n);
  report.metric("serve.queue_us", queue, "us", n);
  report.metric("serve.assemble_us", assemble, "us", n);
  report.metric("serve.infer_us", infer, "us", n);
  report.metric("serve.batch", m([](const Sample& s) { return s.batch; }),
                "requests", n);
  report.metric("serve.wire_us", 1e3 * roundtrip - queue - assemble - infer,
                "us", n);
  report.metric("serve.stat_ms", stat_ms, "ms", 1);
  report.metric("serve.stat.decode_us", stat_stage_mean(stat, "decode_us"),
                "us", 1);
  report.metric("serve.stat.respond_us", stat_stage_mean(stat, "respond_us"),
                "us", 1);
  report.metric("loadgen.lag_ms",
                m([](const Sample& s) { return s.lag_ms; }), "ms", n);
  if (opt_.trace) {
    std::vector<const SpanLog*> logs;
    for (const SpanLog& l : logs_) logs.push_back(&l);
    finish_spans(opt_, logs);
  }
  return 0;
}

// --- serve-stream --------------------------------------------------------------

bool same_counts(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         same_bits(a.data(), b.data(), static_cast<std::int64_t>(a.size()));
}

constexpr std::int64_t kSlots = 32;  // streams per connection
constexpr std::int64_t kChunkSteps = 4;
constexpr std::int64_t kChunks = 4;

class StreamLoad {
 public:
  StreamLoad(const Options& opt, int conns) : opt_(opt), conns_(conns) {
    const auto net = make_served_net();
    model_ = CompiledModel::compile(*net, served_input_shape());
    InferenceSession session(model_, batch_options(kSlots));
    std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x57e4);
    conn_.resize(static_cast<std::size_t>(conns_));
    for (auto& cd : conn_) {
      std::vector<StreamState> states(kSlots, session.make_stream());
      std::vector<StreamState*> ptrs;
      for (auto& s : states) ptrs.push_back(&s);
      for (std::int64_t j = 0; j < kChunks; ++j) {
        const auto chunk = spike_window(kChunkSteps, kSlots,
                                        served_input_shape(), kDensity, rng);
        const Tensor counts = session.run(ptrs.data(), kSlots, chunk).spike_counts;
        out_features_ = counts.shape()[1];
        for (std::int64_t s = 0; s < kSlots; ++s) {
          InferRequest req;
          req.num_steps = static_cast<std::uint32_t>(kChunkSteps);
          req.elems_per_step =
              static_cast<std::uint32_t>(served_input_shape().numel());
          req.data = window_row(chunk, s);
          cd.requests.push_back(std::move(req));
          cd.expected.emplace_back(counts.data() + s * out_features_,
                                   counts.data() + (s + 1) * out_features_);
          cd.totals.push_back(states[static_cast<std::size_t>(s)]
                                  .cumulative_counts());
        }
      }
    }
    for (int c = 0; c < conns_; ++c) logs_.emplace_back(opt.trace);
  }

  bool first_ok(TcpClient& client) {
    InferRequest req = conn_[0].requests[0];
    req.request_id = 1;
    // A plain request over slot 0's first chunk equals that chunk on a
    // fresh stream.
    const auto reply = client.roundtrip(req);
    return reply.ok &&
           same_counts(reply.response.spike_counts, conn_[0].expected[0]);
  }

  int run(int port, Report& report);

 private:
  /// Per connection, index [chunk * kSlots + slot]: the request, its
  /// expected counts, and the slot's cumulative counts after that chunk.
  struct ConnData {
    std::vector<InferRequest> requests;
    std::vector<std::vector<float>> expected;
    std::vector<std::vector<float>> totals;
  };
  struct ConnResult {
    std::vector<double> step_ms, open_ms, close_ms, queue_us, infer_us;
    std::vector<std::uint64_t> step_done_ns;
    std::int64_t attempted = 0, failed = 0, checked = 0, mismatched = 0;
    std::uint64_t last_step_ns = 0;
  };
  void drive(int c, std::uint64_t start, std::uint64_t end, ConnResult& r);

  const Options& opt_;
  int conns_;
  CompiledModel model_;
  std::int64_t out_features_ = 0;
  std::vector<ConnData> conn_;
  std::vector<std::unique_ptr<TcpClient>> clients_;
  std::vector<SpanLog> logs_;
};

void StreamLoad::drive(int c, std::uint64_t start, std::uint64_t end,
                       ConnResult& r) {
  TcpClient& client = *clients_[static_cast<std::size_t>(c)];
  SpanLog& log = logs_[static_cast<std::size_t>(c)];
  const ConnData& cd = conn_[static_cast<std::size_t>(c)];
  const auto timed = [&](const char* name, std::uint64_t id, auto&& call,
                         std::vector<double>& into) {
    const std::uint64_t t0 = now_ns();
    auto result = call();
    const std::uint64_t t1 = now_ns();
    log.add(name, t0, t1, id);
    into.push_back(static_cast<double>(t1 - t0) / 1e6);
    return result;
  };
  sleep_until_ns(start);
  bool done = false;
  for (std::uint64_t gen = 0; !done; ++gen) {
    const auto id_of = [&](std::int64_t slot) {
      return (gen << 24) | (static_cast<std::uint64_t>(c) << 16) |
             static_cast<std::uint64_t>(slot + 1);
    };
    std::vector<std::int64_t> chunks_done(kSlots, -1);  // -1: not open
    for (std::int64_t s = 0; s < kSlots; ++s) {
      ++r.attempted;
      const auto ack = timed("stream.open", id_of(s),
                             [&] { return client.stream_open(id_of(s)); },
                             r.open_ms);
      if (!ack.ok) {
        ++r.failed;
        if (ack.disconnected) return;
        continue;
      }
      chunks_done[static_cast<std::size_t>(s)] = 0;
    }
    for (std::int64_t j = 0; j < kChunks && !done; ++j) {
      for (std::int64_t s = 0; s < kSlots && !done; ++s) {
        if (chunks_done[static_cast<std::size_t>(s)] != j) continue;
        const std::size_t at = static_cast<std::size_t>(j * kSlots + s);
        InferRequest req = cd.requests[at];
        req.request_id = id_of(s);
        ++r.attempted;
        const auto reply = timed(
            "stream.step", id_of(s),
            [&] { return client.stream_step(id_of(s), req); }, r.step_ms);
        r.last_step_ns = now_ns();
        done = r.last_step_ns >= end;
        if (!reply.ok) {
          ++r.failed;
          if (reply.disconnected) return;
          continue;
        }
        r.step_done_ns.push_back(r.last_step_ns);
        ++chunks_done[static_cast<std::size_t>(s)];
        ++r.checked;
        if (!same_counts(reply.response.spike_counts, cd.expected[at]))
          ++r.mismatched;
        r.queue_us.push_back(static_cast<double>(reply.response.queue_ns) / 1e3);
        r.infer_us.push_back(static_cast<double>(reply.response.infer_ns) / 1e3);
      }
    }
    for (std::int64_t s = 0; s < kSlots; ++s) {
      const std::int64_t k = chunks_done[static_cast<std::size_t>(s)];
      if (k < 0) continue;
      ++r.attempted;
      const auto closed = timed("stream.close", id_of(s),
                                [&] { return client.stream_close(id_of(s)); },
                                r.close_ms);
      if (!closed.ok) {
        ++r.failed;
        if (closed.disconnected) return;
        continue;
      }
      // Lifetime totals: the cumulative counts after the last chunk sent.
      const std::vector<float> want =
          k == 0 ? std::vector<float>(static_cast<std::size_t>(out_features_), 0.0f)
                 : cd.totals[static_cast<std::size_t>((k - 1) * kSlots + s)];
      ++r.checked;
      if (closed.totals.steps_done !=
              static_cast<std::uint64_t>(k * kChunkSteps) ||
          !same_counts(closed.totals.cumulative_counts, want))
        ++r.mismatched;
    }
  }
}

int StreamLoad::run(int port, Report& report) {
  for (int c = 0; c < conns_; ++c)
    clients_.push_back(
        std::make_unique<TcpClient>("127.0.0.1", port, kConnectRetryMs));
  const JsonValue before = fetch_stat(*clients_[0]);

  std::vector<ConnResult> per(static_cast<std::size_t>(conns_));
  const std::uint64_t start = now_ns() + 1'000'000;
  const std::uint64_t end = start + seconds_ns(opt_.seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns_; ++c)
    threads.emplace_back(
        [&, c] { drive(c, start, end, per[static_cast<std::size_t>(c)]); });
  for (auto& t : threads) t.join();
  const JsonValue after = fetch_stat(*clients_[0]);

  ConnResult all;
  std::uint64_t last = start;
  for (const ConnResult& r : per) {
    const auto append = [](std::vector<double>& dst,
                           const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(all.step_ms, r.step_ms);
    append(all.open_ms, r.open_ms);
    append(all.close_ms, r.close_ms);
    append(all.queue_us, r.queue_us);
    append(all.infer_us, r.infer_us);
    all.step_done_ns.insert(all.step_done_ns.end(), r.step_done_ns.begin(),
                            r.step_done_ns.end());
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.checked += r.checked;
    all.mismatched += r.mismatched;
    last = std::max(last, r.last_step_ns);
  }
  const auto counter = [](const JsonValue& stat, const char* key) {
    const JsonValue* s = stat.find("streams");
    return s ? s->number_or(key, 0.0) : 0.0;
  };
  const double evicted = counter(after, "evicted") - counter(before, "evicted");
  const double restored =
      counter(after, "restored") - counter(before, "restored");

  report.count_attempt(all.attempted, all.failed);
  report.gate("stream_chunks_verified",
              all.checked > 0 && all.mismatched == 0,
              std::to_string(all.checked - all.mismatched) + "/" +
                  std::to_string(all.checked) +
                  " chunks and close totals bitwise equal to local "
                  "StreamStates");
  report.gate("stream_churn", evicted > 0 && restored > 0,
              std::to_string(static_cast<std::int64_t>(evicted)) +
                  " evictions, " +
                  std::to_string(static_cast<std::int64_t>(restored)) +
                  " restores");

  const auto steps = static_cast<std::int64_t>(all.step_ms.size());
  report.metric("stream_steps_per_s",
                median_rate(all.step_done_ns, start, last, kRateBinS),
                "steps/s", steps);
  report.metric("step_p50_ms", quantile(all.step_ms, 0.5), "ms", steps);
  report.metric("step_p99_ms", quantile(all.step_ms, 0.99), "ms", steps);
  report.metric("error_rate",
                all.attempted ? static_cast<double>(all.failed) / all.attempted
                              : 0.0,
                "ratio", all.attempted);
  const auto sized = [](const std::vector<double>& v) {
    return static_cast<std::int64_t>(v.size());
  };
  report.metric("stream.open_ms", mean(all.open_ms), "ms", sized(all.open_ms));
  report.metric("stream.step_ms", mean(all.step_ms), "ms", steps);
  report.metric("stream.close_ms", mean(all.close_ms), "ms",
                sized(all.close_ms));
  report.metric("stream.queue_us", mean(all.queue_us), "us", steps);
  report.metric("stream.infer_us", mean(all.infer_us), "us", steps);
  report.metric("stream.restored_per_step", steps ? restored / steps : 0.0,
                "ratio", steps);
  report.metric("stream.evicted_per_step", steps ? evicted / steps : 0.0,
                "ratio", steps);
  if (opt_.trace) {
    std::vector<const SpanLog*> logs;
    for (const SpanLog& l : logs_) logs.push_back(&l);
    finish_spans(opt_, logs);
  }
  return 0;
}

}  // namespace

int run_serve_request(const Options& opt, Report& report) {
  RequestLoad load(opt, opt.conns);
  const int port =
      serve_setups(report, [&](TcpClient& c) { return load.first_ok(c); });
  if (port <= 0) return 1;
  return load.run(port, report);
}

int run_serve_stream(const Options& opt, Report& report) {
  StreamLoad load(opt, opt.conns);
  const int port =
      serve_setups(report, [&](TcpClient& c) { return load.first_ok(c); });
  if (port <= 0) return 1;
  return load.run(port, report);
}

}  // namespace perfbench
