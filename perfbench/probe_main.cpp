// perfbench_probe — the measuring half of the SpikeTune benchmark.
//
//   perfbench_probe <workload> --seed N --seconds S --trace 0|1 [--out DIR]
//
// Workloads: infer | stream-probe | train | serve-request | serve-stream.
// Prints human-readable progress, then one JSON result line (see Report) as
// the last line of stdout.  Exit code 0 when every correctness gate passed,
// 1 when one failed (or checked nothing), 2 on usage errors.  run.py drives
// this binary and the serve daemon; see README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "probe.h"
#include "snn/model_zoo.h"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

// --- Spans --------------------------------------------------------------------

std::int64_t SpanLog::begin(const char* name, std::uint64_t id,
                            std::int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, now_ns(), 0, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::end(std::int64_t index) {
  if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

std::int64_t SpanLog::add(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint64_t id,
                          std::int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, id});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, SpanStats> summarize(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SpanStats> out;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    // Children of one span run one after another on the log's thread, so
    // the time they cover is the sum of their clipped durations.
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent < 0) continue;
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
      const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
      if (hi > lo) child_ns[static_cast<std::size_t>(s.parent)] += hi - lo;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns
                                                      : 0;
      SpanStats& st = out[s.name];
      ++st.count;
      st.total_ms += static_cast<double>(dur) / 1e6;
      st.self_ms +=
          static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e6;
    }
  }
  return out;
}

void finish_spans(const Options& opt,
                  const std::vector<const SpanLog*>& logs) {
  for (const auto& [name, st] : summarize(logs)) {
    std::cout << "span " << name << ": n=" << st.count << " mean "
              << st.mean_ms() << " ms, self " << st.mean_self_ms() << " ms"
              << std::endl;
  }
  if (opt.out_dir.empty()) return;
  std::ofstream out(opt.out_dir + "/spans.jsonl", std::ios::app);
  for (std::size_t l = 0; l < logs.size(); ++l) {
    for (const Span& s : logs[l]->spans()) {
      out << "{\"log\":" << l << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}\n";
    }
  }
}

// --- Report -------------------------------------------------------------------

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::int64_t samples) {
  metrics_.push_back({name, value, unit, samples});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::gate(const std::string& name, bool ok,
                  const std::string& detail) {
  gates_.push_back({name, ok, detail});
  std::cout << "gate " << name << ": " << (ok ? "ok" : "FAILED") << " ("
            << detail << ")" << std::endl;
}

void Report::count_attempt(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::all_gates_ok() const {
  if (gates_.empty()) return false;
  for (const Gate& g : gates_)
    if (!g.ok) return false;
  return true;
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"samples\": " << m.samples << "}";
  }
  os << "}, \"info\": {";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i ? ", " : "") << json_string(info_[i].first) << ": "
       << json_string(info_[i].second);
  }
  os << "}, \"gates\": [";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    os << (i ? ", " : "") << "{\"name\": " << json_string(g.name)
       << ", \"ok\": " << (g.ok ? "true" : "false")
       << ", \"detail\": " << json_string(g.detail) << "}";
  }
  os << "]}";
  return os.str();
}

// --- Statistics -----------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

double median_rate(const std::vector<std::uint64_t>& done_ns,
                   std::uint64_t start_ns, std::uint64_t end_ns, double bin_s) {
  const auto bin_ns = static_cast<std::uint64_t>(bin_s * 1e9);
  const std::size_t bins =
      end_ns > start_ns ? static_cast<std::size_t>((end_ns - start_ns) / bin_ns)
                        : 0;
  if (bins == 0) return 0.0;
  std::vector<double> count(bins, 0.0);
  for (std::uint64_t t : done_ns) {
    if (t < start_ns) continue;
    const std::size_t b = static_cast<std::size_t>((t - start_ns) / bin_ns);
    if (b < bins) count[b] += 1.0;
  }
  return quantile(count, 0.5) / bin_s;
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(0, sizeof one, &one);
}

// --- Inputs -------------------------------------------------------------------

std::unique_ptr<spiketune::snn::SpikingNetwork> make_served_net() {
  spiketune::snn::CsnnConfig cfg;
  cfg.lif.beta = 0.5f;
  cfg.lif.threshold = 1.5f;
  return spiketune::snn::make_svhn_csnn(cfg);
}

Shape served_input_shape() {
  const spiketune::snn::CsnnConfig cfg;
  return Shape{cfg.in_channels, cfg.image_size, cfg.image_size};
}

std::vector<Tensor> spike_window(std::int64_t steps, std::int64_t batch,
                                 const Shape& per_sample, double density,
                                 std::mt19937_64& rng) {
  std::vector<std::int64_t> dims{batch};
  for (std::int64_t d : per_sample.dims()) dims.push_back(d);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<Tensor> window;
  window.reserve(static_cast<std::size_t>(steps));
  for (std::int64_t t = 0; t < steps; ++t) {
    Tensor x = Tensor::full(Shape(dims), 0.0f);
    float* p = x.data();
    for (std::int64_t i = 0; i < x.numel(); ++i)
      if (u(rng) < density) p[i] = 1.0f;
    window.push_back(std::move(x));
  }
  return window;
}

spiketune::infer::InferOptions batch_options(std::int64_t max_batch) {
  spiketune::infer::InferOptions options;
  options.max_batch = max_batch;
  return options;
}

std::vector<std::pair<std::size_t, std::string>> synaptic_layers(
    const spiketune::infer::CompiledModel& model) {
  using spiketune::infer::OpKind;
  std::vector<std::pair<std::size_t, std::string>> out;
  int conv = 0, fc = 0;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    const OpKind k = model.layers()[i].kind;
    if (k == OpKind::kConv2d)
      out.emplace_back(i, "conv" + std::to_string(++conv));
    if (k == OpKind::kLinear) out.emplace_back(i, "fc" + std::to_string(++fc));
  }
  return out;
}

std::vector<float> window_row(const std::vector<Tensor>& window,
                              std::int64_t row) {
  const std::int64_t elems = window.front().numel() / window.front().shape()[0];
  std::vector<float> out;
  out.reserve(static_cast<std::size_t>(elems) * window.size());
  for (const Tensor& step : window) {
    const float* p = step.data() + row * elems;
    out.insert(out.end(), p, p + elems);
  }
  return out;
}

bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " infer|stream-probe|train|serve-request|serve-stream"
               " --seed N --seconds S --trace 0|1 [--conns N] [--out DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage(argv[0]);
  const std::string workload = argv[1];
  Options opt;
  try {
    for (int i = 2; i < argc; i += 2) {
      if (i + 1 >= argc) return usage(argv[0]);
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--seed") {
        opt.seed = std::stoull(val);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(val);
      } else if (key == "--trace") {
        opt.trace = val == "1";
      } else if (key == "--conns") {
        opt.conns = std::stoi(val);
      } else if (key == "--out") {
        opt.out_dir = val;
      } else {
        return usage(argv[0]);
      }
    }
  } catch (const std::exception&) {
    return usage(argv[0]);
  }
  if (!(opt.seconds > 0.0) || opt.conns < 1 || opt.conns > 32)
    return usage(argv[0]);

  Report report;
  int rc = 0;
  try {
    if (workload == "infer") {
      rc = run_infer(opt, report);
    } else if (workload == "stream-probe") {
      rc = run_stream_probe(opt, report);
    } else if (workload == "train") {
      rc = run_train(opt, report);
    } else if (workload == "serve-request") {
      rc = run_serve_request(opt, report);
    } else if (workload == "serve-stream") {
      rc = run_serve_stream(opt, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    report.gate("no_exception", false, e.what());
    rc = 1;
  }
  if (rc == 0 && !report.all_gates_ok()) rc = 1;
  std::cout << report.json() << std::endl;
  return rc;
}
