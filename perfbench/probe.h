// Shared pieces of the benchmark probe (perfbench_probe): the options every
// workload takes, the benchmark's own span log, the result document, and
// the seeded input generators.
//
// The probe measures spiketune from outside: it only calls public
// functions of the library and reads the counters those calls return.  The
// spans recorded here belong to the benchmark; nothing inside src/ is
// instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "infer/compiled_model.h"
#include "infer/options.h"
#include "snn/network.h"
#include "tensor/tensor.h"

namespace perfbench {

using spiketune::Shape;
using spiketune::Tensor;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time
  bool trace = false;     // record spans and per-layer metrics
  int conns = 4;          // load-generator connections (serve workloads)
  std::string out_dir;    // where spans.jsonl is written when tracing
};

/// CLOCK_MONOTONIC nanoseconds (comparable with Python's time.monotonic_ns).
std::uint64_t now_ns();
double ms_since(std::uint64_t start_ns);

// --- Spans ------------------------------------------------------------------

/// One timed call: name, [start, end], the span that contains it (index into
/// the same log, -1 for a root) and the request/stream id it served.
struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// Per-thread span log, kept in memory and written when the probe exits.
/// Disabled logs record nothing, so untraced runs pay one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  /// Opens a span and returns its index (-1 when disabled).
  std::int64_t begin(const char* name, std::uint64_t id = 0,
                     std::int64_t parent = -1);
  void end(std::int64_t index);
  /// Records an already-timed call.
  std::int64_t add(const char* name, std::uint64_t start_ns,
                   std::uint64_t end_ns, std::uint64_t id = 0,
                   std::int64_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Per-name totals over a set of logs.  Self time is a span's duration
/// minus the part of it that its child spans cover.
struct SpanStats {
  std::int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double mean_ms() const { return count ? total_ms / count : 0.0; }
  double mean_self_ms() const { return count ? self_ms / count : 0.0; }
};
std::map<std::string, SpanStats> summarize(
    const std::vector<const SpanLog*>& logs);

/// Appends every span as one JSON line ({"log","name","start_ns","end_ns",
/// "parent","id"}) to <opt.out_dir>/spans.jsonl and prints the per-name
/// count, mean and mean self time.
void finish_spans(const Options& opt, const std::vector<const SpanLog*>& logs);

// --- Result document ---------------------------------------------------------

/// What a workload hands back to run.py: named metrics with unit and sample
/// count, free-form info strings, and the correctness gates it evaluated.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::int64_t samples);
  void info(const std::string& key, const std::string& value);
  /// A gate that checked nothing must pass `ok = false`.
  void gate(const std::string& name, bool ok, const std::string& detail);
  void count_attempt(std::int64_t attempted, std::int64_t failed);
  bool all_gates_ok() const;
  /// One-line JSON document.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::int64_t samples;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<Gate> gates_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// --- Statistics ----------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Completions per second: the median over the whole `bin_s` bins of
/// [start_ns, end_ns) of how many `done_ns` stamps fall in each bin.
double median_rate(const std::vector<std::uint64_t>& done_ns,
                   std::uint64_t start_ns, std::uint64_t end_ns, double bin_s);
/// Peak resident set of this process in MB (VmHWM).
double peak_rss_mb();

/// The CPUs this process may run on, and pinning the calling thread to one.
std::vector<int> allowed_cpus();
void pin_to_cpu(int cpu);

// --- Inputs ------------------------------------------------------------------

/// The served model: the paper's CSNN (32C3-P2-32C3-MP2-256-10) on 3x32x32
/// inputs at the latency-optimal beta 0.5, theta 1.5.  The serve daemon
/// builds the same network from `--model csnn --beta 0.5 --theta 1.5`.
std::unique_ptr<spiketune::snn::SpikingNetwork> make_served_net();
Shape served_input_shape();

/// Rate-coded spike window: `steps` tensors shaped [batch, per_sample...],
/// each element firing with probability `density`.
std::vector<Tensor> spike_window(std::int64_t steps, std::int64_t batch,
                                 const Shape& per_sample, double density,
                                 std::mt19937_64& rng);

/// Default session options with buffers sized for `max_batch` samples.
spiketune::infer::InferOptions batch_options(std::int64_t max_batch);

/// (layer index, "conv1" | "conv2" | "fc1" | "fc2" ...) for the model's
/// synaptic layers, in order.
std::vector<std::pair<std::size_t, std::string>> synaptic_layers(
    const spiketune::infer::CompiledModel& model);

/// Row `row` of a window, flattened step-major ([steps, elems]) — the
/// layout of one wire request.
std::vector<float> window_row(const std::vector<Tensor>& window,
                              std::int64_t row);

/// True when two float buffers are bitwise identical.
bool same_bits(const float* a, const float* b, std::int64_t n);

/// FNV-1a over raw bytes, continuing from `h`; hex64 prints 16 hex digits.
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = kFnvBasis);
std::string hex64(std::uint64_t v);

// --- Workloads ---------------------------------------------------------------

int run_infer(const Options& opt, Report& report);
int run_stream_probe(const Options& opt, Report& report);
int run_train(const Options& opt, Report& report);
/// Daemon load generators: the daemon is started by run.py, which passes
/// each daemon's port on stdin (see probe_serve.cpp).
int run_serve_request(const Options& opt, Report& report);
int run_serve_stream(const Options& opt, Report& report);

}  // namespace perfbench
