// Observability subsystem tests: metrics registry semantics (including
// concurrent writers and the disabled fast path), LogHistogram bucket math,
// profiler scope nesting / self-time, and trace-JSON well-formedness
// (parsed back with a small recursive-descent JSON validator).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

using namespace spiketune;

namespace {

/// Enables the given telemetry bits for the lifetime of the guard.
class TelemetryGuard {
 public:
  explicit TelemetryGuard(unsigned bits) : bits_(bits) {
    obs::enable_telemetry(bits_);
  }
  ~TelemetryGuard() { obs::disable_telemetry(bits_); }
  TelemetryGuard(const TelemetryGuard&) = delete;
  TelemetryGuard& operator=(const TelemetryGuard&) = delete;

 private:
  unsigned bits_;
};

const obs::MetricSnapshot* find_metric(
    const std::vector<obs::MetricSnapshot>& snaps, const std::string& name) {
  for (const auto& s : snaps)
    if (s.name == name) return &s;
  return nullptr;
}
// The result points into `snaps`: a temporary would be gone before use.
const obs::MetricSnapshot* find_metric(std::vector<obs::MetricSnapshot>&&,
                                       const std::string&) = delete;

/// Minimal JSON syntax validator (objects, arrays, strings, numbers,
/// true/false/null).  Returns false on the first violation — enough to
/// prove the trace exporter emits well-formed JSON, including the "+Inf"
/// string and fractional-microsecond timestamps.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

TEST(Telemetry, BitsComposeAndClear) {
  EXPECT_FALSE(obs::metrics_enabled());
  {
    TelemetryGuard g(obs::kMetricsBit | obs::kProfileBit);
    EXPECT_TRUE(obs::metrics_enabled());
    EXPECT_TRUE(obs::profile_enabled());
    EXPECT_FALSE(obs::trace_enabled());
  }
  EXPECT_FALSE(obs::metrics_enabled());
  EXPECT_FALSE(obs::profile_enabled());
}

TEST(Metrics, CounterAccumulates) {
  const obs::MetricId id = obs::counter("test.counter.basic");
  TelemetryGuard g(obs::kMetricsBit);
  obs::add(id);
  obs::add(id, 41);
  const auto snaps = obs::snapshot_metrics();
  const auto* snap = find_metric(snaps, "test.counter.basic");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->kind, obs::MetricKind::kCounter);
  EXPECT_EQ(snap->count, 42);
}

TEST(Metrics, DisabledWritesAreDropped) {
  const obs::MetricId c = obs::counter("test.counter.disabled");
  const obs::MetricId h = obs::histogram("test.hist.disabled");
  ASSERT_FALSE(obs::metrics_enabled());
  obs::add(c, 1000);
  obs::observe(h, 3.0);
  TelemetryGuard g(obs::kMetricsBit);  // snapshot with metrics on
  const auto snaps = obs::snapshot_metrics();
  const auto* cs = find_metric(snaps, "test.counter.disabled");
  const auto* hs = find_metric(snaps, "test.hist.disabled");
  ASSERT_NE(cs, nullptr);
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(cs->count, 0);
  EXPECT_EQ(hs->hist.count(), 0);
}

TEST(Metrics, InternIsIdempotentAndKindChecked) {
  const obs::MetricId a = obs::counter("test.intern.once");
  const obs::MetricId b = obs::counter("test.intern.once");
  EXPECT_EQ(a, b);
  EXPECT_THROW(obs::gauge("test.intern.once"), InvalidArgument);
  EXPECT_THROW(obs::histogram("test.intern.once"), InvalidArgument);
}

TEST(Metrics, GaugeLastWriterWins) {
  const obs::MetricId id = obs::gauge("test.gauge.last");
  TelemetryGuard g(obs::kMetricsBit);
  obs::set(id, 1.5);
  obs::set(id, -7.25);
  const auto snaps = obs::snapshot_metrics();
  const auto* snap = find_metric(snaps, "test.gauge.last");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->kind, obs::MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snap->value, -7.25);
}

TEST(Metrics, HistogramObservations) {
  const obs::MetricId id = obs::histogram("test.hist.basic");
  TelemetryGuard g(obs::kMetricsBit);
  for (double v : {1.0, 2.0, 4.0, 8.0, 100.0}) obs::observe(id, v);
  const auto snaps = obs::snapshot_metrics();
  const auto* snap = find_metric(snaps, "test.hist.basic");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->hist.count(), 5);
  EXPECT_DOUBLE_EQ(snap->hist.sum(), 115.0);
  EXPECT_DOUBLE_EQ(snap->hist.min_seen(), 1.0);
  EXPECT_DOUBLE_EQ(snap->hist.max_seen(), 100.0);
  EXPECT_GE(snap->hist.quantile(0.95), snap->hist.quantile(0.5));
}

TEST(Metrics, ConcurrentWritersSumExactly) {
  // Writer threads exit before the snapshot, so this also covers the
  // fold-into-retired-totals path (no count may be lost on thread exit).
  const obs::MetricId id = obs::counter("test.counter.concurrent");
  TelemetryGuard g(obs::kMetricsBit);
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([id] {
      for (int i = 0; i < kAdds; ++i) obs::add(id);
    });
  for (auto& t : threads) t.join();
  const auto snaps = obs::snapshot_metrics();
  const auto* snap = find_metric(snaps, "test.counter.concurrent");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->count, static_cast<std::int64_t>(kThreads) * kAdds);
}

TEST(Metrics, CsvAndJsonlExports) {
  const obs::MetricId id = obs::counter("test.export.counter");
  TelemetryGuard g(obs::kMetricsBit);
  obs::add(id, 7);

  const std::string csv = ::testing::TempDir() + "/spiketune_metrics.csv";
  obs::write_metrics_csv(csv);
  const std::string csv_text = slurp(csv);
  EXPECT_NE(csv_text.find("name,kind,count"), std::string::npos);
  EXPECT_NE(csv_text.find("test.export.counter"), std::string::npos);
  std::remove(csv.c_str());

  const std::string jsonl = ::testing::TempDir() + "/spiketune_metrics.jsonl";
  obs::write_metrics_jsonl(jsonl);
  std::ifstream in(jsonl);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << "invalid JSONL line: " << line;
  }
  EXPECT_GT(lines, 0);
  std::remove(jsonl.c_str());
}

TEST(LogHistogram, BucketIndexEdges) {
  EXPECT_EQ(obs::LogHistogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::LogHistogram::bucket_index(1.0), 0);
  EXPECT_EQ(obs::LogHistogram::bucket_index(1.5), 1);
  EXPECT_EQ(obs::LogHistogram::bucket_index(2.0), 1);
  EXPECT_EQ(obs::LogHistogram::bucket_index(2.0001), 2);
  EXPECT_EQ(obs::LogHistogram::bucket_index(4.0), 2);
  EXPECT_EQ(obs::LogHistogram::bucket_index(1e300), 63);
}

TEST(LogHistogram, QuantilesClampedToObservedRange) {
  obs::LogHistogram h;
  h.record(3.0);
  h.record(3.0);
  h.record(3.0);
  // All mass in one bucket: every quantile must clamp to the observed
  // min == max == 3, not the bucket's geometric midpoint.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.0);
}

TEST(LogHistogram, QuantileStaysInsideItsBucketUnderAdversarialFills) {
  // Regression: the representative value used to be clamped only to the
  // global [min, max], which outliers in distant buckets stretch far past
  // the edges of the bucket actually holding the q-th sample.  The clamp
  // must intersect the bucket's own [lower, upper].
  obs::LogHistogram h;
  h.record(0.5);                            // bucket 0
  for (int i = 0; i < 100; ++i) h.record(3.0);  // bucket 2: (2, 4]
  h.record(1e9);                            // a faraway outlier
  // The median sample sits in bucket (2, 4]; the reported quantile may not
  // escape those edges no matter what min/max are.
  const double med = h.quantile(0.5);
  EXPECT_GE(med, 2.0);
  EXPECT_LE(med, 4.0);
  // Extreme quantiles still respect the observed range: q=0 reports the
  // true minimum (bucket 0's representative is the min itself), q=1 a value
  // inside the outlier's bucket, never past max.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
  EXPECT_GT(h.quantile(1.0), std::ldexp(1.0, 29));  // the 1e9 bucket's floor
  EXPECT_LE(h.quantile(1.0), 1e9);
}

TEST(LogHistogram, QuantilesMonotoneInQ) {
  // Bimodal mass with extreme outliers on both sides: quantiles must be
  // non-decreasing in q and inside [min_seen, max_seen] everywhere.
  obs::LogHistogram h;
  h.record(1e-3);
  for (int i = 0; i < 50; ++i) h.record(3.0);
  for (int i = 0; i < 30; ++i) h.record(900.0);
  h.record(1e12);
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    EXPECT_GE(v, h.min_seen()) << "q=" << q;
    EXPECT_LE(v, h.max_seen()) << "q=" << q;
    prev = v;
  }
  // With 82 samples the median is in the 3.0 mass, p90 in the 900 mass.
  EXPECT_LE(h.quantile(0.5), 4.0);
  EXPECT_GT(h.quantile(0.9), 512.0);
}

TEST(LogHistogram, MergeAddsCountsAndExtremes) {
  obs::LogHistogram a;
  obs::LogHistogram b;
  a.record(1.0);
  a.record(10.0);
  b.record(1000.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.sum(), 1011.0);
  EXPECT_DOUBLE_EQ(a.min_seen(), 1.0);
  EXPECT_DOUBLE_EQ(a.max_seen(), 1000.0);
}

TEST(LogHistogram, MeanOrFallback) {
  obs::LogHistogram h;
  EXPECT_DOUBLE_EQ(h.mean_or(-1.0), -1.0);
  h.record(2.0);
  h.record(4.0);
  EXPECT_DOUBLE_EQ(h.mean_or(-1.0), 3.0);
}

TEST(Profiler, NestingAndSelfTime) {
  obs::reset_profile();
  TelemetryGuard g(obs::kProfileBit);
  {
    ST_PROF_SCOPE("outer");
    for (int i = 0; i < 3; ++i) {
      ST_PROF_SCOPE("inner");
    }
  }
  const auto entries = obs::profile_entries();
  const obs::ProfileEntry* outer = nullptr;
  const obs::ProfileEntry* inner = nullptr;
  for (const auto& e : entries) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->calls, 1);
  EXPECT_EQ(inner->calls, 3);
  EXPECT_LE(inner->total_ns, outer->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
  EXPECT_FALSE(obs::profile_report().empty());
  obs::reset_profile();
}

TEST(Profiler, SameNameUnderDifferentParentsIsDistinct) {
  obs::reset_profile();
  TelemetryGuard g(obs::kProfileBit);
  {
    ST_PROF_SCOPE("parent_a");
    ST_PROF_SCOPE("leaf");
  }
  {
    ST_PROF_SCOPE("parent_b");
    ST_PROF_SCOPE("leaf");
  }
  int leaves = 0;
  for (const auto& e : obs::profile_entries())
    if (e.name == "leaf") ++leaves;
  EXPECT_EQ(leaves, 2);
  obs::reset_profile();
}

TEST(Profiler, DisabledScopesLeaveNoEntries) {
  obs::reset_profile();
  ASSERT_FALSE(obs::profile_enabled());
  {
    ST_PROF_SCOPE("should_not_appear");
  }
  for (const auto& e : obs::profile_entries())
    EXPECT_NE(e.name, "should_not_appear");
  EXPECT_TRUE(obs::profile_report().empty());
}

TEST(Profiler, ScopedTimerFeedsHistogramMetric) {
  const obs::MetricId id = obs::histogram("test.scope.duration_ns");
  TelemetryGuard g(obs::kMetricsBit);
  {
    obs::ScopedTimer t("hist_scope", id);
  }
  const auto snaps = obs::snapshot_metrics();
  const auto* snap = find_metric(snaps, "test.scope.duration_ns");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->hist.count(), 1);
}

TEST(Profiler, PhaseTimerAlwaysMeasures) {
  ASSERT_EQ(obs::telemetry_mask(), 0u);  // fully disabled
  obs::PhaseTimer t("phase_disabled");
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double s = t.stop();
  EXPECT_GT(s, 0.0);
  EXPECT_DOUBLE_EQ(t.stop(), s);  // idempotent
}

TEST(Trace, JsonParsesBackWithThreadEvents) {
  obs::start_trace();
  {
    ST_PROF_SCOPE("trace_main");
  }
  obs::trace_counter("trace.value", 2.5);
  std::thread worker([] {
    obs::set_thread_label("test-worker");
    ST_PROF_SCOPE("trace_worker");
  });
  worker.join();
  obs::stop_trace();
  EXPECT_GE(obs::trace_event_count(), 3u);

  const std::string path = ::testing::TempDir() + "/spiketune_trace.json";
  obs::write_trace_json(path);
  const std::string text = slurp(path);
  std::remove(path.c_str());
  obs::reset_trace();

  JsonValidator v(text);
  EXPECT_TRUE(v.valid());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("trace_main"), std::string::npos);
  EXPECT_NE(text.find("trace_worker"), std::string::npos);
  EXPECT_NE(text.find("trace.value"), std::string::npos);
  EXPECT_NE(text.find("test-worker"), std::string::npos);  // 'M' metadata
}

TEST(Trace, FlowAndSpanEventsCarryIdAndBinding) {
  obs::start_trace();
  obs::trace_flow_at("serve.request", 42, 's', 1000);
  obs::trace_span("serve.recv", 1000, 250);
  obs::trace_flow_at("serve.request", 42, 'f', 2000);
  // An invalid phase is rejected (while tracing is on; off, it's a no-op).
  EXPECT_THROW(obs::trace_flow_at("bad", 1, 'x', 0), Error);
  obs::stop_trace();
  EXPECT_EQ(obs::trace_event_count(), 3u);

  const std::string path = ::testing::TempDir() + "/spiketune_flow.json";
  obs::write_trace_json(path);
  const std::string text = slurp(path);
  std::remove(path.c_str());
  obs::reset_trace();

  JsonValidator v(text);
  EXPECT_TRUE(v.valid());
  // Flow events bind by shared id; the finish carries "bp":"e" so viewers
  // attach it to the enclosing slice.
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(text.find("\"id\":42"), std::string::npos);
  EXPECT_NE(text.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(text.find("serve.recv"), std::string::npos);
}

TEST(Trace, DisabledEmitsNothing) {
  obs::reset_trace();
  ASSERT_FALSE(obs::trace_enabled());
  {
    ST_PROF_SCOPE("untraced");
  }
  obs::trace_counter("untraced.counter", 1.0);
  EXPECT_EQ(obs::trace_event_count(), 0u);
}
