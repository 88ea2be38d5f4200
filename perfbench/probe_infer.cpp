// In-process inference workloads.
//
// infer: the sparse inference path alone.  csnn at beta 0.5 / theta 1.5,
// rate-coded windows at input density 0.15, batch 32, T 8, the default
// crossover, one kernel thread (the library's default participant count),
// moved to the next allowed CPU after each window.
// Every window is first checked bitwise against SpikingNetwork::forward;
// every timed window is checked against that reference again.
//
// stream-probe: infer::StreamManager + the batched streaming run() with the
// same stream count, live cap and round-robin schedule as the
// serve_stream_churn workload, so acquire/restore/release and the batched
// step are timed without the daemon around them.
#include <filesystem>
#include <iostream>

#include "hw/accelerator.h"
#include "infer/session.h"
#include "infer/stream.h"
#include "probe.h"

namespace perfbench {

namespace {

using spiketune::infer::CompiledModel;
using spiketune::infer::InferenceSession;

constexpr std::int64_t kBatch = 32;
constexpr std::int64_t kSteps = 8;
constexpr double kDensity = 0.15;
constexpr int kWindows = 4;
constexpr int kSetupReps = 9;

}  // namespace

int run_infer(const Options& opt, Report& report) {
  const Shape per_sample = served_input_shape();
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x1f);
  std::vector<std::vector<Tensor>> windows;
  for (int w = 0; w < kWindows; ++w)
    windows.push_back(spike_window(kSteps, kBatch, per_sample, kDensity, rng));
  SpanLog log(opt.trace);

  // Set-up as a user pays it: build the network, compile it, run the first
  // window through a fresh session.  Repeated on successive CPUs, like the
  // timed loop below; the median is reported.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s, compile_ms;
  std::unique_ptr<spiketune::snn::SpikingNetwork> net;
  CompiledModel model;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pin_to_cpu(cpus[static_cast<std::size_t>(rep) % cpus.size()]);
    const std::uint64_t t0 = now_ns();
    const auto root = log.begin("setup");
    auto s = log.begin("snn.build", 0, root);
    net = make_served_net();
    log.end(s);
    s = log.begin("infer.compile", 0, root);
    const std::uint64_t c0 = now_ns();
    model = CompiledModel::compile(*net, per_sample);
    compile_ms.push_back(ms_since(c0));
    log.end(s);
    s = log.begin("infer.first_window", 0, root);
    InferenceSession first(model, batch_options(kBatch));
    first.run(windows.front());
    log.end(s);
    log.end(root);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  // Correctness before timing: the session must match the training-stack
  // forward bit for bit on every window.
  std::vector<std::vector<float>> expected;
  int parity_ok = 0;
  {
    InferenceSession session(model, batch_options(kBatch));
    for (const auto& window : windows) {
      const Tensor ref = net->forward(window).spike_counts;
      const Tensor got = session.run(window).spike_counts;
      if (ref.numel() == got.numel() &&
          same_bits(ref.data(), got.data(), ref.numel()))
        ++parity_ok;
      expected.emplace_back(ref.data(), ref.data() + ref.numel());
    }
  }
  report.gate("infer_parity_vs_forward", parity_ok == kWindows,
              std::to_string(parity_ok) + "/" + std::to_string(kWindows) +
                  " windows bitwise equal to SpikingNetwork::forward");
  if (parity_ok != kWindows) return 1;

  // Timed loop.  Tracing adds a span per call and the session's own stage
  // clock (record_stage_times).  Successive windows run on successive CPUs:
  // on a shared host one core can be slowed by a neighbour for minutes, and
  // a thread left on it would make the whole run read slow.
  auto timed_options = batch_options(kBatch);
  timed_options.record_stage_times = opt.trace;
  InferenceSession session(model, timed_options);
  for (const auto& window : windows) session.run(window);  // warm
  std::vector<double> window_ms;
  std::int64_t mismatches = 0;
  std::uint64_t index_ns = 0, sparse_ns = 0, dense_ns = 0;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
    const std::size_t w = i % windows.size();
    pin_to_cpu(cpus[i % cpus.size()]);
    const auto span = log.begin("infer.run", i);
    const std::uint64_t t0 = now_ns();
    const auto out = session.run(windows[w]);
    window_ms.push_back(ms_since(t0));
    log.end(span);
    if (!same_bits(out.spike_counts.data(), expected[w].data(),
                   out.spike_counts.numel()))
      ++mismatches;
    index_ns += out.index_ns;
    sparse_ns += out.sparse_kernel_ns;
    dense_ns += out.dense_kernel_ns;
  }
  const auto n = static_cast<std::int64_t>(window_ms.size());
  report.count_attempt(n, mismatches);
  report.gate("infer_outputs", n > 0 && mismatches == 0,
              std::to_string(n - mismatches) + "/" + std::to_string(n) +
                  " timed windows bitwise equal to the reference");

  const double p50 = quantile(window_ms, 0.5);
  report.metric("setup_s", quantile(setup_s, 0.5), "s", kSetupReps);
  report.metric("infer_fps", kBatch / (p50 / 1e3), "samples/s", n);
  report.metric("window_p50_ms", p50, "ms", n);
  report.metric("window_p90_ms", quantile(window_ms, 0.9), "ms", n);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  report.info("threads", "1 (library default)");
  if (!opt.trace) return 0;

  // Per-layer view.  Stage clocks are per window; the rest of run() is
  // LIF, pooling and bookkeeping.  No layer takes the dense kernel at this
  // density (infer.dense_dispatches is 0); train_epoch reports the dense
  // side as eval.dense_kernel_ms.
  const double per_window = 1e6 * static_cast<double>(n);
  const double run_ms = mean(window_ms);
  const double stages_ms =
      static_cast<double>(index_ns + sparse_ns + dense_ns) / per_window;
  report.metric("infer.compile_ms", mean(compile_ms), "ms", kSetupReps);
  report.metric("infer.run_ms", run_ms, "ms", n);
  report.metric("infer.index_ms", index_ns / per_window, "ms", n);
  report.metric("infer.sparse_kernel_ms", sparse_ns / per_window, "ms", n);
  report.metric("infer.rest_ms", run_ms - stages_ms, "ms", n);

  // Exact counts over one pass of every window: dispatch decisions, input
  // density per synaptic layer, and the modeled accelerator for the same
  // spike record.
  auto stats_options = batch_options(kBatch);
  stats_options.record_stats = true;
  InferenceSession stats_session(model, stats_options);
  spiketune::snn::SpikeRecord record = model.make_record();
  std::int64_t sparse_dispatches = 0, dense_dispatches = 0;
  for (const auto& window : windows) {
    const auto out = stats_session.run(window);
    record.merge(out.stats);
    sparse_dispatches += out.sparse_dispatches;
    dense_dispatches += out.dense_dispatches;
  }
  report.metric("infer.sparse_dispatches",
                static_cast<double>(sparse_dispatches), "count", kWindows);
  report.metric("infer.dense_dispatches",
                static_cast<double>(dense_dispatches), "count", kWindows);
  for (const auto& [index, name] : synaptic_layers(model)) {
    report.metric("infer.density." + name,
                  record.layers()[index].input_density(), "ratio", kWindows);
  }
  const auto mapping =
      spiketune::hw::Accelerator().map(*net, record, kSteps);
  for (const auto& layer : mapping.perf.layers) {
    report.metric("hw.cycles_per_step." + layer.name, layer.cycles_per_step,
                  "cycles", 1);
  }
  report.metric("hw.latency_us", mapping.perf.latency_s * 1e6, "model_us", 1);
  report.metric("hw.fps_per_watt", mapping.perf.fps_per_watt, "FPS/W", 1);
  finish_spans(opt, {&log});
  return 0;
}

// --- stream-probe ---------------------------------------------------------------

namespace {

// Mirrors serve_stream_churn: 128 streams, 64 live, chunks of T 4, four
// streams stepped per batched call (one per load-generator connection).
// kStreams is a multiple of kGroup, and so is kLiveCap.
constexpr std::int64_t kStreams = 128;
constexpr std::int64_t kLiveCap = 64;
constexpr std::int64_t kChunkSteps = 4;
constexpr std::int64_t kChunks = 4;
constexpr std::int64_t kGroup = 4;

}  // namespace

int run_stream_probe(const Options& opt, Report& report) {
  using spiketune::infer::StreamManager;
  using spiketune::infer::StreamState;
  const Shape per_sample = served_input_shape();
  const auto net = make_served_net();
  const CompiledModel model = CompiledModel::compile(*net, per_sample);
  const std::int64_t out_features = model.output_shape()[0];
  const std::int64_t groups = kStreams / kGroup;

  // chunk[g][j]: the j-th chunk of the four streams in group g.
  std::mt19937_64 rng(opt.seed * 0x9e3779b97f4a7c15ULL + 0x5e);
  std::vector<std::vector<std::vector<Tensor>>> chunk(
      static_cast<std::size_t>(groups));
  for (auto& g : chunk)
    for (std::int64_t j = 0; j < kChunks; ++j)
      g.push_back(spike_window(kChunkSteps, kGroup, per_sample, kDensity, rng));

  // Expected per-chunk counts from streams that are never evicted.
  InferenceSession session(model, batch_options(kGroup));
  std::vector<std::vector<std::vector<float>>> expected(
      static_cast<std::size_t>(groups));
  for (std::int64_t g = 0; g < groups; ++g) {
    std::vector<StreamState> ref(kGroup, session.make_stream());
    std::vector<StreamState*> ptrs;
    for (auto& s : ref) ptrs.push_back(&s);
    for (std::int64_t j = 0; j < kChunks; ++j) {
      const Tensor c =
          session.run(ptrs.data(), kGroup, chunk[g][j]).spike_counts;
      expected[g].emplace_back(c.data(), c.data() + c.numel());
    }
  }

  const std::string spill = opt.out_dir + "/probe-spill";
  std::filesystem::remove_all(spill);
  StreamManager manager(model, kLiveCap, spill);
  SpanLog log(opt.trace);
  std::vector<double> resident_us, restore_us, release_us, step_ms;
  std::int64_t steps = 0, mismatches = 0;
  std::uint64_t gen = 0;
  // Generations of open -> kChunks chunks per stream (round robin, four
  // streams per batched call) -> close over `streams` streams until
  // `deadline`.
  const auto drive = [&](std::int64_t streams, std::uint64_t deadline) {
    for (bool done = false; !done; ++gen) {
      const auto id_of = [g = gen](std::int64_t slot) {
        return (g << 20) + static_cast<std::uint64_t>(slot) + 1;
      };
      for (std::int64_t s = 0; s < streams; ++s) manager.open(id_of(s));
      for (std::int64_t j = 0; j < kChunks && !done; ++j) {
        for (std::int64_t g = 0; g < streams / kGroup && !done; ++g) {
          StreamState* rows[kGroup];
          for (std::int64_t r = 0; r < kGroup; ++r) {  // ascending ids
            const std::uint64_t id = id_of(g * kGroup + r);
            const std::int64_t restored = manager.counters().restored;
            const std::uint64_t t0 = now_ns();
            rows[r] = manager.acquire(id);
            const std::uint64_t t1 = now_ns();
            if (rows[r] == nullptr) throw std::runtime_error("acquire failed");
            const bool was_restore = manager.counters().restored > restored;
            log.add(was_restore ? "stream.acquire_restore"
                                : "stream.acquire_resident",
                    t0, t1, id);
            (was_restore ? restore_us : resident_us)
                .push_back(static_cast<double>(t1 - t0) / 1e3);
          }
          const std::uint64_t t0 = now_ns();
          const Tensor c = session.run(rows, kGroup, chunk[g][j]).spike_counts;
          const std::uint64_t t1 = now_ns();
          log.add("stream.step_batch", t0, t1, id_of(g * kGroup));
          step_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
          for (std::int64_t r = 0; r < kGroup; ++r) {
            const std::uint64_t r0 = now_ns();
            manager.release(id_of(g * kGroup + r));
            const std::uint64_t r1 = now_ns();
            log.add("stream.release", r0, r1, id_of(g * kGroup + r));
            release_us.push_back(static_cast<double>(r1 - r0) / 1e3);
          }
          if (!same_bits(c.data(), expected[g][j].data(),
                         kGroup * out_features))
            ++mismatches;
          steps += kGroup;
          done = now_ns() >= deadline;
        }
      }
      for (std::int64_t s = 0; s < streams; ++s)
        manager.close(id_of(s), nullptr, nullptr);
    }
  };
  // Churn (twice the cap: every acquire restores) for 80% of the run, then
  // streams that all fit (every acquire is resident) for the rest.
  const std::uint64_t start = now_ns();
  drive(kStreams, start + static_cast<std::uint64_t>(0.8 * opt.seconds * 1e9));
  drive(kLiveCap, start + static_cast<std::uint64_t>(opt.seconds * 1e9));
  const auto counters = manager.counters();
  std::filesystem::remove_all(spill);
  report.count_attempt(steps, mismatches * kGroup);
  report.gate("stream_probe_outputs", steps > 0 && mismatches == 0,
              std::to_string(steps) + " stream steps bitwise equal to "
                                      "never-evicted streams");
  report.gate("stream_probe_churn",
              counters.evicted > 0 && counters.restored > 0,
              std::to_string(counters.evicted) + " evictions, " +
                  std::to_string(counters.restored) + " restores");
  const auto nsteps = static_cast<std::int64_t>(step_ms.size());
  report.metric("stream.acquire_resident_us", mean(resident_us), "us",
                static_cast<std::int64_t>(resident_us.size()));
  report.metric("stream.acquire_restore_us", mean(restore_us), "us",
                static_cast<std::int64_t>(restore_us.size()));
  report.metric("stream.release_us", mean(release_us), "us",
                static_cast<std::int64_t>(release_us.size()));
  report.metric("stream.step_batch_ms", mean(step_ms), "ms", nsteps);
  if (opt.trace) finish_spans(opt, {&log});
  return 0;
}

}  // namespace perfbench
