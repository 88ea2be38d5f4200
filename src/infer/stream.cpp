#include "infer/stream.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "core/error.h"
#include "core/serialize.h"
#include "obs/flight.h"
#include "obs/metrics.h"

namespace spiketune::infer {

StreamState::StreamState(const CompiledModel& model)
    : arena_(static_cast<std::size_t>(model.membrane_elems()), 0.0f),
      counts_(static_cast<std::size_t>(model.output_shape()[0]), 0.0f) {}

void StreamState::reset() {
  steps_done_ = 0;
  std::fill(counts_.begin(), counts_.end(), 0.0f);
}

namespace {

struct StreamMetricIds {
  obs::MetricId opened = obs::kNoMetric;
  obs::MetricId closed = obs::kNoMetric;
  obs::MetricId evicted = obs::kNoMetric;
  obs::MetricId restored = obs::kNoMetric;
  obs::MetricId live = obs::kNoMetric;
};

const StreamMetricIds& stream_metric_ids() {
  static const StreamMetricIds ids = [] {
    StreamMetricIds m;
    m.opened = obs::counter("infer.streams.opened");
    m.closed = obs::counter("infer.streams.closed");
    m.evicted = obs::counter("infer.streams.evicted");
    m.restored = obs::counter("infer.streams.restored");
    m.live = obs::gauge("infer.streams.live");
    return m;
  }();
  return ids;
}

std::string hex_id(std::uint64_t id) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

}  // namespace

StreamManager::StreamManager(const CompiledModel& model, std::int64_t max_live,
                             std::string checkpoint_dir)
    : model_(&model), max_live_(max_live), dir_(std::move(checkpoint_dir)) {
  ST_REQUIRE(max_live_ > 0, "max_live must be positive");
  if (!dir_.empty()) {
    // Fail at construction, not at the first eviction deep inside a
    // serving worker: an unusable spill dir means the capacity bound
    // cannot be honored.
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    ST_REQUIRE(!ec, "cannot create stream checkpoint dir '" + dir_ +
                        "': " + ec.message());
  }
}

std::string StreamManager::spill_path(std::uint64_t id) const {
  return dir_ + "/stream-" + hex_id(id) + ".stk";
}

StreamManager::OpenResult StreamManager::open(std::uint64_t id) {
  if (id == 0) return OpenResult::kInvalid;
  std::unique_lock<std::mutex> lk(lock_);
  if (streams_.count(id) != 0) return OpenResult::kExists;
  if (dir_.empty() &&
      static_cast<std::int64_t>(streams_.size()) >= max_live_)
    return OpenResult::kCapacity;
  Entry e;
  e.state = std::make_unique<StreamState>(*model_);
  lru_.push_front(id);
  e.lru = lru_.begin();
  ++in_memory_;
  streams_.emplace(id, std::move(e));
  ++counters_.opened;
  counters_.live = static_cast<std::int64_t>(streams_.size());
  if (counters_.live > counters_.peak_live) counters_.peak_live = counters_.live;
  evict_excess();
  obs::flight_record(obs::FlightEventId::kStreamOpen, id,
                     static_cast<std::uint64_t>(counters_.live));
  if (obs::metrics_enabled()) {
    const auto& m = stream_metric_ids();
    obs::add(m.opened);
    obs::set(m.live, static_cast<double>(counters_.live));
  }
  return OpenResult::kOk;
}

StreamState* StreamManager::acquire(std::uint64_t id) {
  if (id == 0) return nullptr;
  std::unique_lock<std::mutex> lk(lock_);
  for (;;) {
    auto it = streams_.find(id);
    if (it == streams_.end()) return nullptr;  // closed while we waited
    if (!it->second.pinned) {
      Entry& e = it->second;
      e.pinned = true;
      try {
        if (!e.state) restore_locked(id, e);
        // Touch: move to the LRU front so a hot stream is the last evicted.
        lru_.erase(e.lru);
        lru_.push_front(id);
        e.lru = lru_.begin();
        evict_excess();
      } catch (...) {
        // A failed restore or spill must not leave the stream pinned
        // forever — that would wedge every later acquire/close on it.
        e.pinned = false;
        unpinned_.notify_all();
        throw;
      }
      return e.state.get();
    }
    unpinned_.wait(lk);
  }
}

void StreamManager::release(std::uint64_t id) {
  std::unique_lock<std::mutex> lk(lock_);
  auto it = streams_.find(id);
  if (it == streams_.end() || !it->second.pinned) return;
  it->second.pinned = false;
  lk.unlock();
  unpinned_.notify_all();
}

bool StreamManager::close(std::uint64_t id, std::vector<float>* final_counts,
                          std::int64_t* final_steps) {
  if (id == 0) return false;
  std::unique_lock<std::mutex> lk(lock_);
  for (;;) {
    auto it = streams_.find(id);
    if (it == streams_.end()) return false;
    if (!it->second.pinned) {
      Entry& e = it->second;
      if (!e.state && (final_counts != nullptr || final_steps != nullptr))
        restore_locked(id, e);
      if (e.state) {
        if (final_counts != nullptr) *final_counts = e.state->counts_;
        if (final_steps != nullptr) *final_steps = e.state->steps_done_;
        lru_.erase(e.lru);
        --in_memory_;
      }
      if (e.on_disk) std::remove(spill_path(id).c_str());
      streams_.erase(it);
      ++counters_.closed;
      counters_.live = static_cast<std::int64_t>(streams_.size());
      obs::flight_record(obs::FlightEventId::kStreamClose, id,
                         static_cast<std::uint64_t>(counters_.live));
      if (obs::metrics_enabled()) {
        const auto& m = stream_metric_ids();
        obs::add(m.closed);
        obs::set(m.live, static_cast<double>(counters_.live));
      }
      lk.unlock();
      unpinned_.notify_all();  // wake acquirers so they observe the erase
      return true;
    }
    unpinned_.wait(lk);
  }
}

void StreamManager::spill_locked(std::uint64_t id, Entry& e) {
  const StreamState& s = *e.state;
  std::vector<NamedTensor> records;
  if (!s.arena_.empty()) {
    Tensor m(Shape{static_cast<std::int64_t>(s.arena_.size())});
    std::memcpy(m.data(), s.arena_.data(), s.arena_.size() * sizeof(float));
    records.push_back({"membrane", std::move(m)});
  }
  Tensor c(Shape{static_cast<std::int64_t>(s.counts_.size())});
  std::memcpy(c.data(), s.counts_.data(), s.counts_.size() * sizeof(float));
  records.push_back({"counts", std::move(c)});
  CheckpointMeta meta;
  meta.present = true;
  meta.extra["stream_id"] = hex_id(id);
  meta.extra["steps_done"] = std::to_string(s.steps_done_);
  save_checkpoint(spill_path(id), records, meta);
  e.on_disk = true;
  ++counters_.checkpointed;
}

void StreamManager::restore_locked(std::uint64_t id, Entry& e) {
  ST_REQUIRE(e.on_disk, "stream state lost: no in-memory copy or spill file");
  // Build and validate into a local state first: if the spill file is
  // corrupt (size mismatch, missing meta) the throw must leave the entry
  // exactly as it was — evicted, on disk, absent from the LRU list — so a
  // later acquire/close sees a consistent entry instead of a half-restored
  // one with a dangling lru iterator.
  Checkpoint cp = load_checkpoint_full(spill_path(id));
  auto fresh = std::make_unique<StreamState>(*model_);
  StreamState& s = *fresh;
  for (const auto& r : cp.records) {
    if (r.name == "membrane") {
      ST_REQUIRE(static_cast<std::size_t>(r.value.numel()) == s.arena_.size(),
                 "stream spill membrane size mismatch");
      std::memcpy(s.arena_.data(), r.value.data(),
                  s.arena_.size() * sizeof(float));
    } else if (r.name == "counts") {
      ST_REQUIRE(static_cast<std::size_t>(r.value.numel()) == s.counts_.size(),
                 "stream spill counts size mismatch");
      std::memcpy(s.counts_.data(), r.value.data(),
                  s.counts_.size() * sizeof(float));
    }
  }
  auto it = cp.meta.extra.find("steps_done");
  ST_REQUIRE(it != cp.meta.extra.end(), "stream spill missing steps_done");
  // std::stoll would throw its own exception types (or accept a trailing
  // suffix) on a corrupt value; a spill file is untrusted input.
  const std::string& text = it->second;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), s.steps_done_);
  ST_REQUIRE(ec == std::errc() && end == text.data() + text.size() &&
                 s.steps_done_ >= 0,
             "stream spill has a malformed steps_done");
  // Every check passed: commit atomically.
  e.state = std::move(fresh);
  std::remove(spill_path(id).c_str());
  e.on_disk = false;
  lru_.push_front(id);
  e.lru = lru_.begin();
  ++in_memory_;
  ++counters_.restored;
  obs::flight_record(obs::FlightEventId::kStreamRestore, id,
                     static_cast<std::uint64_t>(s.steps_done_));
  if (obs::metrics_enabled()) obs::add(stream_metric_ids().restored);
}

void StreamManager::evict_excess() {
  if (dir_.empty()) return;
  while (in_memory_ > max_live_) {
    // Coldest unpinned in-memory stream; all-pinned overshoot is tolerated
    // (a batch can momentarily pin more streams than the bound).
    auto vic = lru_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (!streams_.at(*it).pinned) {
        vic = std::next(it).base();
        break;
      }
    }
    if (vic == lru_.end()) return;
    const std::uint64_t id = *vic;
    Entry& e = streams_.at(id);
    spill_locked(id, e);
    e.state.reset();
    lru_.erase(vic);
    --in_memory_;
    ++counters_.evicted;
    obs::flight_record(obs::FlightEventId::kStreamEvict, id,
                       static_cast<std::uint64_t>(in_memory_));
    if (obs::metrics_enabled()) obs::add(stream_metric_ids().evicted);
  }
}

std::size_t StreamManager::checkpoint_all() {
  std::unique_lock<std::mutex> lk(lock_);
  if (dir_.empty()) return 0;
  std::size_t written = 0;
  for (auto& [id, e] : streams_) {
    if (!e.state) continue;  // already on disk, file is current
    spill_locked(id, e);
    ++written;
  }
  return written;
}

bool StreamManager::contains(std::uint64_t id) const {
  std::lock_guard<std::mutex> lk(lock_);
  return streams_.count(id) != 0;
}

StreamCounters StreamManager::counters() const {
  std::lock_guard<std::mutex> lk(lock_);
  return counters_;
}

}  // namespace spiketune::infer
