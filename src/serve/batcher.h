// Dynamic batching queue with admission control and deadline shedding.
//
// Readers admit single-sample requests; workers pull coalesced batches.
// The batching rule is the classic latency-budget window: a worker takes
// the oldest queued request, then keeps collecting requests with the SAME
// num_steps (a session window must share one T across the batch) until
// either the batch is full or the budget since the batch opened expires.
// Requests with a different T stay queued in arrival order for the next
// batch, so mixed-T traffic degrades to smaller batches, never to
// starvation.
//
// Admission control is a hard queue-depth bound: when the queue is at
// max_queue_depth the submit fails immediately with kQueueFull and the
// reader bounces an `overloaded` error back to the client — queueing delay
// is bounded by design instead of growing without limit under overload.
// Draining flips admissions to kDraining (clients get `shutting-down`)
// while workers keep pulling until the queue is empty; the latency budget
// is skipped while draining so shutdown is prompt.
//
// Deadline shedding happens at dequeue: every next_batch call first purges
// entries whose deadline_ns has passed into the `expired` out-parameter.
// The worker answers those with kDeadlineExceeded instead of running
// inference on a stale window — shedding IS the response, so every admitted
// request is still answered exactly once.  Purging at dequeue (not on a
// timer) keeps submit O(1) and means an expired request occupies a queue
// slot only until the next worker pass.  Draining purges the same way, so
// a drain never burns inference on requests whose clients have given up.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "serve/protocol.h"
#include "serve/transport.h"

namespace spiketune::serve {

/// One admitted request waiting for a batch slot.
struct PendingRequest {
  std::shared_ptr<Connection> conn;  // where the response goes
  InferRequest request;
  std::uint64_t server_id = 0;    // daemon-assigned id (span/flow identity)
  std::uint64_t recv_ns = 0;      // header fully read off the socket
  std::uint64_t enqueue_ns = 0;   // telemetry epoch, for queue-time stats
  std::uint64_t deadline_ns = 0;  // telemetry epoch; 0 = no deadline
  /// Nonzero for a STREAM_STEP chunk: the persistent stream this row
  /// advances.  A stream's chunks apply strictly in queue order, so
  /// next_batch never hands out a chunk while an earlier chunk of the
  /// same stream is aboard ANY in-flight batch (see finish_stream); it
  /// stays queued until that batch hands the stream back.
  std::uint64_t stream_id = 0;
};

enum class AdmitResult { kAdmitted, kQueueFull, kDraining };

struct BatcherConfig {
  std::int64_t max_batch = 16;        // samples coalesced per session run
  std::int64_t batch_timeout_us = 2000;  // latency budget for coalescing
  std::int64_t max_queue_depth = 256;    // admission-control bound
};

class Batcher {
 public:
  explicit Batcher(BatcherConfig config);

  /// Reader side.  O(1); never blocks.
  AdmitResult submit(PendingRequest request);

  /// Worker side.  Blocks until a batch or expired requests are ready.
  /// Deadline-expired queue entries are moved into `expired` (appended; the
  /// caller answers them with kDeadlineExceeded).  Returns an empty vector
  /// with `expired` also untouched only when draining and the queue is dry
  /// — the worker-exit signal.  Every returned batch request has the same
  /// request.num_steps.
  ///
  /// Every stream aboard a returned batch is marked IN FLIGHT: no later
  /// next_batch call (on any worker) hands out another chunk of that
  /// stream until the caller returns it with finish_stream().  This is
  /// what makes "a stream's chunks apply strictly in order" hold across
  /// batches, not just within one — without it two pipelined chunks in
  /// consecutive batches could race on different workers.
  std::vector<PendingRequest> next_batch(std::vector<PendingRequest>& expired);

  /// Hands a stream back after its batch fully answered its chunk (served,
  /// isolated, or orphaned — every path).  Wakes workers blocked on the
  /// stream's next queued chunk.  A caller MUST call this exactly once per
  /// stream per batch next_batch returned it in, after the stream's state
  /// was released, or that stream's later chunks wedge forever.
  void finish_stream(std::uint64_t stream_id);

  /// Stops admissions and wakes every blocked worker; idempotent.
  void drain();

  bool draining() const;
  std::size_t depth() const;
  const BatcherConfig& config() const { return config_; }

 private:
  /// Moves every expired entry from the queue into `out` (mu_ held).
  void purge_expired_locked(std::uint64_t now_ns,
                            std::vector<PendingRequest>& out);

  BatcherConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  /// Streams aboard a batch some worker is still running (mu_ held).  A
  /// queued chunk whose stream is here is invisible to next_batch until
  /// finish_stream() removes the id.
  std::unordered_set<std::uint64_t> inflight_streams_;
  bool draining_ = false;
};

}  // namespace spiketune::serve
