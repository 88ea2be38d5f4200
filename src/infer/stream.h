// Streaming stateful inference: per-stream persistent state + its manager.
//
// The paper's hardware argument is about *per-timestep* sparsity — an
// accelerator consumes events as they arrive, not whole [batch, steps]
// windows — so the deployment-native interface is incremental: open a
// stream, feed it one event frame at a time, read back that step's output
// spikes, close it whenever the client is done.  Everything a stream has to
// remember between steps lives in a StreamState:
//
//   * the membrane potential of every LIF layer, laid out as one contiguous
//     arena using the membrane_offset plan assigned at CompiledModel::
//     compile() (one allocation per stream, one flat tensor to checkpoint);
//     a conv layer's plane is held channel-last, [OH, OW, OC], the order
//     the session's block epilogue walks,
//   * the cumulative output spike counts (what a whole-window run() would
//     have returned, accumulated step by step), and
//   * how many steps the stream has consumed — step 0 is special: the LIF
//     recurrence reads no membrane term on a fresh stream, exactly like the
//     first timestep of a window (DESIGN.md §10/§15).
//
// StreamState is deliberately dumb — no locks, no model pointer, just the
// state — so InferenceSession can batch rows from many streams into one
// step_batch() call and the whole-window run() path can be a loop over the
// same code (bitwise parity by construction).
//
// StreamManager owns thousands of concurrent streams for a serving worker
// pool: O(1) lookup by 64-bit stream id, pin/unpin so two workers never
// step the same stream concurrently (callers acquire ids in ascending
// order, so pin-waits cannot deadlock), and LRU eviction that checkpoints
// the coldest stream's state into an STK2 file and transparently restores
// it on next touch.  Restore is bit-exact: the arena bytes round-trip
// verbatim, so an evicted stream continues exactly where a never-evicted
// one would (tested at 1 and 4 threads in tests/test_stream.cpp).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <unordered_map>
#include <vector>

#include "infer/compiled_model.h"

namespace spiketune::infer {

class InferenceSession;
class StreamManager;

/// Persistent per-stream state: LIF membranes (arena), cumulative output
/// spike counts, and the step counter.  Create via the explicit constructor
/// (or InferenceSession::make_stream()); step via InferenceSession.
class StreamState {
 public:
  StreamState() = default;
  explicit StreamState(const CompiledModel& model);

  /// Forgets all history: the next step behaves like timestep 0 of a fresh
  /// window.  The membrane arena is *not* zeroed — a fresh stream's first
  /// step never reads it, mirroring the dense layer's has_membrane_ gate —
  /// so reset is O(out_features), not O(membrane_elems).
  void reset();

  std::int64_t steps_done() const { return steps_done_; }
  /// Output spikes summed over every step so far ([out_features] floats,
  /// exact small integers).  Equals InferenceResult::spike_counts for the
  /// same input fed as one window.
  const std::vector<float>& cumulative_counts() const { return counts_; }
  /// Raw membrane arena (concatenated LIF planes per CompiledLayer::
  /// membrane_offset; conv planes channel-last).  Exposed for checkpointing
  /// and bit-exactness tests.
  const std::vector<float>& membrane_arena() const { return arena_; }

 private:
  friend class InferenceSession;
  friend class StreamManager;

  std::vector<float> arena_;   // CompiledModel::membrane_elems() floats
  std::vector<float> counts_;  // [out_features]
  std::int64_t steps_done_ = 0;
};

/// Monotonic lifecycle + occupancy counters (StreamManager::counters()).
struct StreamCounters {
  std::int64_t opened = 0;
  std::int64_t closed = 0;
  std::int64_t evicted = 0;       // LRU spills to disk
  std::int64_t restored = 0;      // spills read back on touch
  std::int64_t checkpointed = 0;  // STK2 files written (evict + drain)
  std::int64_t live = 0;          // streams currently open (memory or disk)
  std::int64_t peak_live = 0;     // high-water mark of `live`
};

/// Thread-safe owner of every open stream on a worker pool.
///
/// Locking protocol: acquire() pins a stream (waiting out any current
/// pinner) and release() unpins it; a caller stepping several streams in
/// one batch MUST acquire them in ascending id order so pin-waits form no
/// cycle.  close() and the LRU evictor respect pins — a pinned stream is
/// never evicted or torn down mid-step.
class StreamManager {
 public:
  /// `max_live` bounds how many StreamStates stay in memory.  When
  /// `checkpoint_dir` is non-empty the coldest streams beyond the bound are
  /// spilled to `<dir>/stream-<hex id>.stk` and restored on next acquire;
  /// when it is empty, spilling is disabled and open() refuses new streams
  /// past the bound.
  StreamManager(const CompiledModel& model, std::int64_t max_live,
                std::string checkpoint_dir);

  enum class OpenResult { kOk, kExists, kCapacity, kInvalid };

  /// Registers a fresh stream under `id` (id 0 is the plain-request
  /// sentinel on the wire and is refused with kInvalid).
  OpenResult open(std::uint64_t id);

  /// Pins and returns the stream's state, restoring it from disk if it was
  /// evicted; nullptr if the id is unknown (or 0).  Blocks while another
  /// caller holds the pin.  The pointer stays valid until release(id).
  StreamState* acquire(std::uint64_t id);

  /// Unpins a stream previously returned by acquire().
  void release(std::uint64_t id);

  /// Tears down a stream, returning its final cumulative counts and step
  /// total (either out-param may be null).  Waits out any pinner; deletes
  /// the spill file if one exists.  False if the id is unknown.
  bool close(std::uint64_t id, std::vector<float>* final_counts,
             std::int64_t* final_steps);

  /// Checkpoints every in-memory stream to the spill directory (drain
  /// path: callers guarantee no pins remain).  Returns files written; 0
  /// when spilling is disabled.
  std::size_t checkpoint_all();

  bool contains(std::uint64_t id) const;
  StreamCounters counters() const;
  std::int64_t max_live() const { return max_live_; }

 private:
  struct Entry {
    std::unique_ptr<StreamState> state;  // null while evicted to disk
    std::list<std::uint64_t>::iterator lru;  // valid only when state != null
    bool pinned = false;
    bool on_disk = false;  // a spill file exists for this id
  };

  std::string spill_path(std::uint64_t id) const;
  // All three require lock_ held.
  void evict_excess();
  void spill_locked(std::uint64_t id, Entry& e);
  void restore_locked(std::uint64_t id, Entry& e);

  const CompiledModel* model_;
  std::int64_t max_live_;
  std::string dir_;

  mutable std::mutex lock_;
  std::condition_variable unpinned_;
  std::unordered_map<std::uint64_t, Entry> streams_;
  std::list<std::uint64_t> lru_;  // front = hottest; in-memory entries only
  std::int64_t in_memory_ = 0;
  StreamCounters counters_;
};

}  // namespace spiketune::infer
