#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_set>

#include "core/error.h"
#include "core/json.h"
#include "core/logging.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/metric_ids.h"

namespace spiketune::serve {

namespace {

std::uint64_t now_ns() { return obs::telemetry_now_ns(); }

obs::WindowConfig stat_window(const ServerConfig& cfg) {
  obs::WindowConfig w;
  w.epochs = cfg.stat_window_s > 0 ? cfg.stat_window_s : 10;
  return w;
}

/// Windowed histogram summary as an ordered JSON object (times in us).
JsonValue hist_json(const obs::LogHistogram& h) {
  JsonValue o = JsonValue::make_object();
  o.set("count", JsonValue(h.count()));
  o.set("mean", JsonValue(h.mean_or(0.0)));
  o.set("p50", JsonValue(h.quantile(0.50)));
  o.set("p99", JsonValue(h.quantile(0.99)));
  o.set("p999", JsonValue(h.quantile(0.999)));
  o.set("max", JsonValue(h.max_seen()));
  return o;
}

}  // namespace

Server::Server(const infer::CompiledModel& model, ServerConfig config)
    : model_(&model),
      config_(config),
      batcher_({.max_batch = config.max_batch,
                .batch_timeout_us = config.batch_timeout_us,
                .max_queue_depth = config.max_queue_depth}),
      spans_(config.span_capacity, config.span_sample_every),
      slo_({.target_ms = config.slo_target_ms, .budget = config.slo_budget}),
      w_request_us_(stat_window(config)),
      w_decode_us_(stat_window(config)),
      w_queue_us_(stat_window(config)),
      w_assemble_us_(stat_window(config)),
      w_infer_us_(stat_window(config)),
      w_respond_us_(stat_window(config)),
      w_batch_(stat_window(config)),
      w_served_(stat_window(config)),
      w_rejected_(stat_window(config)),
      w_deadline_shed_(stat_window(config)) {
  ST_REQUIRE(config_.num_workers > 0, "num_workers must be positive");
  ST_REQUIRE(config_.max_steps > 0, "max_steps must be positive");
  ST_REQUIRE(config_.send_timeout_ms >= 0,
             "send_timeout_ms must be non-negative");
  ST_REQUIRE(config_.idle_timeout_ms >= 0,
             "idle_timeout_ms must be non-negative");
  ST_REQUIRE(config_.max_live_streams > 0,
             "max_live_streams must be positive");
  streams_ = std::make_unique<infer::StreamManager>(
      model, config_.max_live_streams, config_.stream_checkpoint_dir);
}

Server::~Server() { drain_and_stop(); }

void Server::start() {
  ST_REQUIRE(!running_.load(), "server already started");
  ST_REQUIRE(pipe(stop_pipe_) == 0, "cannot create stop pipe");
  start_ns_ = now_ns();
  auto tcp = std::make_unique<TcpListener>(
      config_.host, config_.port,
      TcpListenerOptions{.sndbuf_bytes = config_.sndbuf_bytes});
  if (!config_.fault_spec.empty()) {
    fault_spec_ = FaultSpec::parse(config_.fault_spec);
    listener_ = std::make_unique<FaultInjectingListener>(
        std::move(tcp), fault_spec_, &fault_log_);
    ST_LOG_INFO << "serve: FAULT INJECTION ON (" << fault_spec_.describe()
                << ")";
  } else {
    listener_ = std::move(tcp);
  }
  running_.store(true);
  acceptor_ = std::thread([this] { acceptor_main(); });
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
  ST_LOG_INFO << "serve: listening on " << config_.host << ":" << port()
              << " (" << config_.num_workers << " workers, max batch "
              << config_.max_batch << ", budget " << config_.batch_timeout_us
              << "us, queue depth " << config_.max_queue_depth
              << ", send timeout " << config_.send_timeout_ms
              << "ms, idle timeout " << config_.idle_timeout_ms << "ms)";
}

int Server::port() const {
  ST_REQUIRE(listener_ != nullptr, "server not started");
  return listener_->port();
}

void Server::acceptor_main() {
  obs::set_thread_label("serve-accept");
  // With idle reaping armed, accept() wakes on a bounded tick so the reaper
  // runs even when no connection ever arrives.
  const int tick_ms =
      config_.idle_timeout_ms > 0 ? std::min(config_.idle_timeout_ms, 1000)
                                  : -1;
  for (;;) {
    std::shared_ptr<Connection> conn =
        listener_->accept(stop_pipe_[0], tick_ms);
    if (conn == nullptr) {
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (tick_ms < 0) return;  // woken without a stop: listener is gone
      // Reaping tick (or a transient accept error — either way, keep
      // accepting rather than silently killing the acceptor).
      reap_idle_connections();
      reap_finished_readers();
      continue;
    }
    conn->set_send_timeout_ms(config_.send_timeout_ms, &send_timeouts_);
    const std::int64_t conns =
        connections_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::flight_record(obs::FlightEventId::kConnAccept,
                       static_cast<std::uint64_t>(conns));
    reap_finished_readers();
    std::lock_guard<std::mutex> lock(readers_mu_);
    readers_.emplace_back();
    ReaderSlot* slot = &readers_.back();
    slot->conn = std::move(conn);
    slot->thread = std::thread([this, slot] { reader_main(slot); });
  }
}

void Server::reap_finished_readers() {
  std::lock_guard<std::mutex> lock(readers_mu_);
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::reap_idle_connections() {
  const std::uint64_t now = now_ns();
  const std::uint64_t budget =
      static_cast<std::uint64_t>(config_.idle_timeout_ms) * 1'000'000ull;
  std::lock_guard<std::mutex> lock(readers_mu_);
  for (ReaderSlot& slot : readers_) {
    if (slot.reaped || slot.done.load(std::memory_order_acquire)) continue;
    const std::uint64_t last = slot.conn->last_activity_ns();
    if (last == 0 || now <= last || now - last <= budget) continue;
    // abort(), not close(): the reader thread may be blocked inside
    // read_frame on this connection, and the descriptor must stay valid
    // until that thread is joined.
    slot.conn->abort();
    slot.reaped = true;
    idle_reaped_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) obs::add(serve_metric_ids().idle_reaped);
    ST_LOG_INFO << "serve: reaping idle connection " << slot.conn->peer()
                << " (no activity for " << (now - last) / 1'000'000 << "ms)";
  }
}

void Server::respond_error(const std::shared_ptr<Connection>& conn,
                           std::uint64_t request_id, ErrorCode code,
                           const std::string& message) {
  conn->write_frame(error_frame({request_id, code, message}));
}

void Server::shed_expired(std::vector<PendingRequest>& expired) {
  if (expired.empty()) return;
  const ServeMetricIds& ids = serve_metric_ids();
  for (PendingRequest& p : expired) {
    deadline_shed_.fetch_add(1, std::memory_order_relaxed);
    w_deadline_shed_.add();
    obs::flight_record(obs::FlightEventId::kDeadlineShed, p.server_id,
                       p.request.deadline_us);
    if (obs::metrics_enabled()) obs::add(ids.deadline_shed);
    // The shed IS this request's one answer: it entered `admitted` and
    // leaves through `deadline_shed`, keeping the accounting invariant
    // whether or not the peer is still there to read it.
    respond_error(p.conn, p.request.request_id, ErrorCode::kDeadlineExceeded,
                  "deadline of " + std::to_string(p.request.deadline_us) +
                      "us expired before inference");
  }
  expired.clear();
}

void Server::reader_main(ReaderSlot* slot) {
  obs::set_thread_label("serve-reader");
  const std::shared_ptr<Connection> conn = slot->conn;
  const std::int64_t in_elems = model_->input_shape().numel();
  FrameHeader header;
  std::vector<std::uint8_t> payload;
  // Streams opened on THIS connection and not yet closed.  When the reader
  // exits outside a drain (peer EOF, framing error, idle reap), these are
  // orphans — nobody will ever close them — and each one permanently
  // occupies max_live capacity (or a spill file); they are torn down on
  // the way out below.
  std::unordered_set<std::uint64_t> owned_streams;
  // Everything a peer sends is untrusted: recoverable decode failures get a
  // bad-request response below, and the outer catch turns anything else
  // (bad magic, oversized frame, allocation failure) into a dropped
  // connection — an exception escaping this thread would std::terminate
  // the whole daemon.
  try {
    while (conn->read_frame(header, payload, stop_pipe_[0])) {
      const std::uint64_t recv_ns = now_ns();
      obs::flight_record(obs::FlightEventId::kFrameDecode, header.request_id,
                         payload.size());
      if (header.kind == FrameKind::kStatRequest) {
        obs::flight_record(obs::FlightEventId::kStatRequest,
                           header.request_id);
        stat_requests_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metrics_enabled()) obs::add(serve_metric_ids().stat_requests);
        conn->write_frame(stat_response_frame(header.request_id, stat_json()));
        continue;
      }
      if (header.kind == FrameKind::kStreamOpen ||
          header.kind == FrameKind::kStreamClose) {
        // Stream lifecycle runs inline at the reader, like STAT: no
        // inference happens, so neither call needs a batch slot, and the
        // ordering guarantee (an open is acked before any of its steps can
        // be admitted) falls out of the connection's single reader thread.
        StreamControl ctl;
        try {
          ctl = decode_stream_control(header.request_id, payload);
        } catch (const std::exception& e) {
          bad_requests_.fetch_add(1, std::memory_order_relaxed);
          respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                        e.what());
          continue;
        }
        if (header.kind == FrameKind::kStreamOpen) {
          if (batcher_.draining()) {
            rejected_draining_.fetch_add(1, std::memory_order_relaxed);
            respond_error(conn, header.request_id, ErrorCode::kShuttingDown,
                          "daemon is draining");
            continue;
          }
          switch (streams_->open(ctl.stream_id)) {
            case infer::StreamManager::OpenResult::kOk:
              owned_streams.insert(ctl.stream_id);
              conn->write_frame(stream_open_frame(ctl));
              break;
            case infer::StreamManager::OpenResult::kExists:
              bad_requests_.fetch_add(1, std::memory_order_relaxed);
              respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                            "stream " + std::to_string(ctl.stream_id) +
                                " is already open");
              break;
            case infer::StreamManager::OpenResult::kInvalid:
              bad_requests_.fetch_add(1, std::memory_order_relaxed);
              respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                            "stream id 0 is reserved");
              break;
            case infer::StreamManager::OpenResult::kCapacity:
              rejected_overload_.fetch_add(1, std::memory_order_relaxed);
              w_rejected_.add();
              if (obs::metrics_enabled())
                obs::add(serve_metric_ids().rejected_overload);
              respond_error(conn, header.request_id, ErrorCode::kOverloaded,
                            "stream capacity reached (no checkpoint "
                            "directory configured for eviction)");
              break;
          }
        } else {  // kStreamClose: tear down, reply with lifetime totals.
          StreamCloseReply totals;
          totals.request_id = header.request_id;
          totals.stream_id = ctl.stream_id;
          std::int64_t steps_done = 0;
          bool known = false;
          try {
            known = streams_->close(ctl.stream_id, &totals.cumulative_counts,
                                    &steps_done);
          } catch (const std::exception& e) {
            // Reporting totals required restoring an evicted state and the
            // spill file was unreadable.  The totals are lost, but the id
            // must not leak: a totals-free close skips the restore (so it
            // cannot throw) and still tears the entry down.
            streams_->close(ctl.stream_id, nullptr, nullptr);
            owned_streams.erase(ctl.stream_id);
            ST_LOG_WARN << "serve: closing stream " << ctl.stream_id
                        << " lost its totals (" << e.what() << ")";
            respond_error(conn, header.request_id, ErrorCode::kInternalError,
                          e.what());
            continue;
          }
          if (!known) {
            bad_requests_.fetch_add(1, std::memory_order_relaxed);
            respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                          "stream " + std::to_string(ctl.stream_id) +
                              " is not open");
            continue;
          }
          owned_streams.erase(ctl.stream_id);
          totals.steps_done = static_cast<std::uint64_t>(steps_done);
          conn->write_frame(stream_close_reply_frame(totals));
        }
        continue;
      }
      if (header.kind != FrameKind::kInferRequest &&
          header.kind != FrameKind::kStreamStep) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                      "expected an infer-request frame");
        continue;
      }
      PendingRequest pending;
      pending.recv_ns = recv_ns;
      try {
        if (header.kind == FrameKind::kStreamStep) {
          StreamStepRequest sr =
              decode_stream_step(header.request_id, payload);
          pending.stream_id = sr.stream_id;
          pending.request = std::move(sr.request);
        } else {
          pending.request =
              decode_request(header.request_id, payload);
        }
        ST_REQUIRE(pending.request.num_steps >= 1 &&
                       pending.request.num_steps <=
                           static_cast<std::uint32_t>(config_.max_steps),
                   "num_steps outside [1, " +
                       std::to_string(config_.max_steps) + "]");
        ST_REQUIRE(static_cast<std::int64_t>(pending.request.elems_per_step) ==
                       in_elems,
                   "elems_per_step " +
                       std::to_string(pending.request.elems_per_step) +
                       " does not match model input " +
                       std::to_string(in_elems));
      } catch (const std::exception& e) {
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                      e.what());
        continue;
      }
      if (pending.stream_id != 0 && !streams_->contains(pending.stream_id)) {
        // Admission pre-check: a step on a stream the daemon never saw (or
        // already closed) is bounced here, deterministically, instead of
        // burning a batch slot to find out.  A step that *races* a close is
        // caught again at the worker (stream_orphan_steps).
        bad_requests_.fetch_add(1, std::memory_order_relaxed);
        respond_error(conn, header.request_id, ErrorCode::kBadRequest,
                      "stream " + std::to_string(pending.stream_id) +
                          " is not open");
        continue;
      }
      if (pending.request.deadline_us > 0) {
        // The budget runs from frame-fully-read; the enqueue and batching
        // delay all count against it.
        pending.deadline_ns =
            recv_ns + pending.request.deadline_us * 1000ull;
        deadline_requests_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metrics_enabled())
          obs::add(serve_metric_ids().deadline_requests);
      }
      pending.conn = conn;
      // ids start at 1: the pre-increment value 0 is never a real request.
      pending.server_id = next_server_id_.fetch_add(1) + 1;
      pending.enqueue_ns = now_ns();
      w_decode_us_.record_at(
          static_cast<double>(pending.enqueue_ns - pending.recv_ns) / 1e3,
          pending.enqueue_ns);
      if (obs::trace_enabled() && spans_.sampled(pending.server_id)) {
        obs::trace_span("serve.recv", pending.recv_ns,
                        pending.enqueue_ns - pending.recv_ns);
        obs::trace_flow_at("serve.request", pending.server_id, 's',
                           pending.recv_ns);
      }
      const std::uint64_t server_id = pending.server_id;
      switch (batcher_.submit(std::move(pending))) {
        case AdmitResult::kAdmitted:
          admitted_.fetch_add(1, std::memory_order_relaxed);
          obs::flight_record(obs::FlightEventId::kRequestAdmit, server_id,
                             static_cast<std::uint64_t>(batcher_.depth()));
          if (obs::metrics_enabled()) {
            obs::set(serve_metric_ids().queue_depth,
                     static_cast<double>(batcher_.depth()));
          }
          break;
        case AdmitResult::kQueueFull:
          rejected_overload_.fetch_add(1, std::memory_order_relaxed);
          w_rejected_.add();
          if (obs::metrics_enabled())
            obs::add(serve_metric_ids().rejected_overload);
          respond_error(conn, header.request_id, ErrorCode::kOverloaded,
                        "queue at max depth; back off");
          break;
        case AdmitResult::kDraining:
          rejected_draining_.fetch_add(1, std::memory_order_relaxed);
          respond_error(conn, header.request_id, ErrorCode::kShuttingDown,
                        "daemon is draining");
          break;
      }
    }
  } catch (const std::exception& e) {
    // Framing is lost mid-stream; no per-request error response is
    // possible, so count it and drop the connection.
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    ST_LOG_WARN << "serve: dropping connection " << conn->peer() << ": "
                << e.what();
    conn->abort();
  }
  // Orphan cleanup: the peer is gone without closing its streams, so close
  // them here (close waits out any in-flight step's pin; queued steps get
  // the orphan bounce at the worker).  Skipped during a drain — the reader
  // is exiting because of the stop pipe, not a vanished peer, and
  // drain_and_stop's checkpoint_all must still see these streams to
  // preserve their state for resumption.
  if (!owned_streams.empty() &&
      !stopping_.load(std::memory_order_relaxed)) {
    std::int64_t reclaimed = 0;
    for (const std::uint64_t id : owned_streams) {
      // Totals-free close never restores, so it cannot throw; false means
      // another connection closed the stream for us in the meantime.
      if (streams_->close(id, nullptr, nullptr)) ++reclaimed;
    }
    if (reclaimed > 0) {
      stream_auto_closed_.fetch_add(reclaimed, std::memory_order_relaxed);
      ST_LOG_INFO << "serve: closed " << reclaimed
                  << " stream(s) orphaned by disconnected peer "
                  << conn->peer();
    }
  }
  obs::flight_record(
      obs::FlightEventId::kConnClose,
      static_cast<std::uint64_t>(
          connections_.load(std::memory_order_relaxed)));
  slot->done.store(true, std::memory_order_release);
}

void Server::worker_main(int index) {
  obs::set_thread_label("serve-worker-" + std::to_string(index));
  infer::InferenceSession session(
      *model_, {.max_batch = config_.max_batch,
                .sparse_crossover = config_.sparse_crossover,
                .record_stats = false,
                .record_stage_times = config_.span_sample_every != 0});
  const Shape& per_sample = model_->input_shape();
  const std::int64_t in_elems = per_sample.numel();
  const std::int64_t out_features = model_->output_shape()[0];
  const ServeMetricIds& ids = serve_metric_ids();
  // Plain (non-stream) rows run on worker-local scratch state, reset per
  // batch; stream rows swap in their persistent state from the manager.
  // Reserved up front so taking addresses into the vector is stable.
  std::vector<infer::StreamState> scratch;
  scratch.reserve(static_cast<std::size_t>(config_.max_batch));

  // Sends request `p`'s response from row `row` of `result` and records
  // every per-request stat.  Shared by the batch path and the per-request
  // isolation path (which runs with n == 1).
  const auto respond_one = [&](const PendingRequest& p,
                               const infer::InferenceResult& result,
                               std::int64_t row, std::int64_t n,
                               std::uint64_t assembled_ns,
                               std::uint64_t infer_start_ns,
                               std::uint64_t done_ns) {
    InferResponse resp;
    resp.request_id = p.request.request_id;
    resp.out_features = static_cast<std::uint32_t>(out_features);
    resp.batch = static_cast<std::uint32_t>(n);
    resp.queue_ns = assembled_ns - p.enqueue_ns;
    resp.assemble_ns = infer_start_ns - assembled_ns;
    resp.infer_ns = done_ns - infer_start_ns;
    resp.spike_counts.assign(
        result.spike_counts.data() + row * out_features,
        result.spike_counts.data() + (row + 1) * out_features);
    const bool sent = p.conn->write_frame(infer_response_frame(resp));
    if (sent) {
      served_.fetch_add(1, std::memory_order_relaxed);
    } else {
      dropped_responses_.fetch_add(1, std::memory_order_relaxed);
    }
    obs::flight_record(obs::FlightEventId::kResponseSent, p.server_id,
                       sent ? 1 : 0);
    const std::uint64_t send_ns = now_ns();

    // Stage durations tile [recv, send]; the windowed means therefore
    // sum to the end-to-end mean (the STAT consistency invariant).
    w_queue_us_.record_at(static_cast<double>(resp.queue_ns) / 1e3, send_ns);
    w_assemble_us_.record_at(static_cast<double>(resp.assemble_ns) / 1e3,
                             send_ns);
    w_infer_us_.record_at(static_cast<double>(resp.infer_ns) / 1e3, send_ns);
    w_respond_us_.record_at(static_cast<double>(send_ns - done_ns) / 1e3,
                            send_ns);
    const double e2e_us = static_cast<double>(send_ns - p.recv_ns) / 1e3;
    w_request_us_.record_at(e2e_us, send_ns);
    w_served_.add_at(1, send_ns);
    slo_.record(e2e_us / 1e3);

    if (spans_.sampled(p.server_id)) {
      obs::RequestSpan span;
      span.server_id = p.server_id;
      span.client_id = p.request.request_id;
      span.num_steps = static_cast<int>(p.request.num_steps);
      span.batch = static_cast<int>(n);
      span.recv_ns = p.recv_ns;
      span.admit_ns = p.enqueue_ns;
      span.assemble_ns = assembled_ns;
      span.infer_ns = infer_start_ns;
      span.done_ns = done_ns;
      span.send_ns = send_ns;
      span.sparse_kernel_ns = result.sparse_kernel_ns;
      span.dense_kernel_ns = result.dense_kernel_ns;
      spans_.record(span);
      if (obs::trace_enabled()) {
        obs::trace_span("serve.respond", done_ns, send_ns - done_ns);
        obs::trace_flow_at("serve.request", p.server_id, 'f', done_ns);
      }
    }
    if (obs::metrics_enabled()) {
      obs::observe(ids.request_us, e2e_us);
      obs::observe(ids.queue_us, static_cast<double>(resp.queue_ns) / 1e3);
      obs::observe(ids.assemble_us,
                   static_cast<double>(resp.assemble_ns) / 1e3);
      obs::observe(ids.infer_us, static_cast<double>(resp.infer_ns) / 1e3);
      obs::add(ids.requests);
      if (slo_.enabled())
        obs::add(e2e_us / 1e3 <= config_.slo_target_ms ? ids.slo_ok
                                                       : ids.slo_violations);
    }
  };

  for (;;) {
    std::vector<PendingRequest> expired;
    std::vector<PendingRequest> batch = batcher_.next_batch(expired);
    const bool had_expired = !expired.empty();
    shed_expired(expired);
    if (batch.empty()) {
      if (!had_expired) return;  // draining and dry
      continue;  // this pass only shed; go back for live work
    }
    ST_PROF_SCOPE("serve.batch");

    // Streams aboard this batch: the batcher holds each one in flight
    // until we hand it back, so whatever happens to its row below —
    // served, orphaned, acquire failure, poison isolation — every id here
    // MUST reach batcher_.finish_stream() before the next loop pass.
    std::vector<std::uint64_t> batch_streams;
    for (const PendingRequest& p : batch)
      if (p.stream_id != 0) batch_streams.push_back(p.stream_id);
    const auto finish_batch_streams = [&] {
      for (std::uint64_t sid : batch_streams) batcher_.finish_stream(sid);
    };

    // Swap in per-stream state before assembly.  Acquire in ascending
    // stream-id order — every worker does, so pin-waits between workers
    // cannot form a cycle (the batcher already guarantees at most one
    // in-flight chunk per stream).  A row whose stream vanished between
    // admission and here — closed by its reader while the step sat queued
    // — is answered kBadRequest and dropped from the batch; a row whose
    // acquire THROWS (corrupt/missing spill on restore, disk-full spill
    // during the LRU churn it triggers) is answered kInternalError and
    // dropped, because an exception escaping this thread would
    // std::terminate the daemon.
    std::vector<std::size_t> stream_rows;
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (batch[i].stream_id != 0) stream_rows.push_back(i);
    std::sort(stream_rows.begin(), stream_rows.end(),
              [&batch](std::size_t a, std::size_t b) {
                return batch[a].stream_id < batch[b].stream_id;
              });
    std::vector<infer::StreamState*> acquired(batch.size(), nullptr);
    std::vector<char> acquire_failed(batch.size(), 0);
    for (std::size_t i : stream_rows) {
      try {
        acquired[i] = streams_->acquire(batch[i].stream_id);
      } catch (const std::exception& e) {
        acquire_failed[i] = 1;
        internal_errors_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metrics_enabled()) obs::add(ids.internal_errors);
        ST_LOG_WARN << "serve: acquiring stream " << batch[i].stream_id
                    << " failed (" << e.what() << "); answering the step "
                    << "with internal-error";
        respond_error(batch[i].conn, batch[i].request.request_id,
                      ErrorCode::kInternalError, e.what());
      }
    }
    if (!stream_rows.empty()) {
      std::vector<PendingRequest> kept;
      std::vector<infer::StreamState*> kept_acq;
      kept.reserve(batch.size());
      kept_acq.reserve(batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].stream_id != 0 && acquired[i] == nullptr) {
          if (!acquire_failed[i]) {
            stream_orphan_steps_.fetch_add(1, std::memory_order_relaxed);
            if (obs::metrics_enabled()) obs::add(ids.stream_orphans);
            respond_error(batch[i].conn, batch[i].request.request_id,
                          ErrorCode::kBadRequest,
                          "stream " + std::to_string(batch[i].stream_id) +
                              " was closed before this step ran");
          }  // acquire_failed rows were answered above
        } else {
          kept.push_back(std::move(batch[i]));
          kept_acq.push_back(acquired[i]);
        }
      }
      batch = std::move(kept);
      acquired = std::move(kept_acq);
      if (batch.empty()) {
        finish_batch_streams();
        continue;
      }
    }

    const std::int64_t n = static_cast<std::int64_t>(batch.size());
    const auto steps =
        static_cast<std::int64_t>(batch.front().request.num_steps);
    const std::uint64_t assembled_ns = now_ns();
    obs::flight_record(obs::FlightEventId::kBatchAssemble,
                       static_cast<std::uint64_t>(n),
                       static_cast<std::uint64_t>(steps));

    // Assemble the [N, ...] step tensors from the per-request windows.
    std::vector<std::int64_t> dims{n};
    for (std::int64_t d : per_sample.dims()) dims.push_back(d);
    std::vector<Tensor> window;
    window.reserve(static_cast<std::size_t>(steps));
    for (std::int64_t t = 0; t < steps; ++t) {
      Tensor x{Shape(dims)};
      for (std::int64_t i = 0; i < n; ++i)
        std::memcpy(
            x.data() + i * in_elems,
            batch[static_cast<std::size_t>(i)].request.data.data() +
                t * in_elems,
            static_cast<std::size_t>(in_elems) * sizeof(float));
      window.push_back(std::move(x));
    }
    const std::uint64_t infer_start_ns = now_ns();
    obs::flight_record(obs::FlightEventId::kBatchDispatch,
                       static_cast<std::uint64_t>(n));

    // Per-row state table: persistent state for stream rows, reset scratch
    // for plain rows (so a plain row behaves exactly like the stateless
    // run() it would ride alone).  pre_steps lets the isolation path detect
    // a stream the failed batch already advanced.
    while (scratch.size() < batch.size()) scratch.emplace_back(*model_);
    std::vector<infer::StreamState*> states(static_cast<std::size_t>(n));
    std::vector<std::int64_t> pre_steps(static_cast<std::size_t>(n), 0);
    std::size_t scratch_used = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      if (acquired[ui] != nullptr) {
        states[ui] = acquired[ui];
        pre_steps[ui] = states[ui]->steps_done();
      } else {
        scratch[scratch_used].reset();
        states[ui] = &scratch[scratch_used++];
      }
    }

    // Poison isolation: one request that makes inference throw must not
    // take its batchmates or this worker down.  Try the batch; on failure,
    // re-run each request alone so the poison pill is pinned to exactly
    // one request (answered kInternalError) and everyone else still gets
    // their bitwise-correct response.
    infer::InferenceResult result;
    bool batch_ok = true;
    try {
      if (config_.poison_hook)
        for (const PendingRequest& p : batch) config_.poison_hook(p.request);
      result = session.run(states.data(), n, window);
    } catch (const std::exception& e) {
      batch_ok = false;
      ST_LOG_WARN << "serve: batch of " << n << " failed (" << e.what()
                  << "); isolating per request";
    }

    if (batch_ok) {
      const std::uint64_t done_ns = now_ns();
      batches_.fetch_add(1, std::memory_order_relaxed);
      std::int64_t seen = max_batch_seen_.load(std::memory_order_relaxed);
      while (n > seen && !max_batch_seen_.compare_exchange_weak(
                             seen, n, std::memory_order_relaxed)) {
      }
      w_batch_.record_at(static_cast<double>(n), done_ns);
      if (obs::trace_enabled())
        obs::trace_span("serve.infer", infer_start_ns,
                        done_ns - infer_start_ns);
      for (std::int64_t i = 0; i < n; ++i)
        respond_one(batch[static_cast<std::size_t>(i)], result, i, n,
                    assembled_ns, infer_start_ns, done_ns);
    } else {
      std::vector<std::int64_t> single_dims = dims;
      single_dims[0] = 1;
      for (std::int64_t i = 0; i < n; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const PendingRequest& p = batch[ui];
        std::vector<Tensor> single;
        single.reserve(static_cast<std::size_t>(steps));
        for (std::int64_t t = 0; t < steps; ++t) {
          Tensor x{Shape(single_dims)};
          std::memcpy(x.data(), p.request.data.data() + t * in_elems,
                      static_cast<std::size_t>(in_elems) * sizeof(float));
          single.push_back(std::move(x));
        }
        const std::uint64_t s_start = now_ns();
        try {
          if (p.stream_id != 0 &&
              states[ui]->steps_done() != pre_steps[ui]) {
            // The failed batch already advanced this stream's state part
            // way; replaying the chunk would double-apply its leading
            // steps.  The stream is unrecoverable — the client must close
            // and reopen it.
            throw std::runtime_error(
                "stream state advanced by a failed batch; close and "
                "reopen stream " +
                std::to_string(p.stream_id));
          }
          if (p.stream_id == 0) states[ui]->reset();
          if (config_.poison_hook) config_.poison_hook(p.request);
          infer::StreamState* one = states[ui];
          const infer::InferenceResult r1 = session.run(&one, 1, single);
          const std::uint64_t s_done = now_ns();
          batches_.fetch_add(1, std::memory_order_relaxed);
          w_batch_.record_at(1.0, s_done);
          respond_one(p, r1, 0, 1, assembled_ns, s_start, s_done);
        } catch (const std::exception& e) {
          internal_errors_.fetch_add(1, std::memory_order_relaxed);
          if (obs::metrics_enabled()) obs::add(ids.internal_errors);
          respond_error(p.conn, p.request.request_id,
                        ErrorCode::kInternalError, e.what());
        }
      }
    }
    // Unpin every stream row (both paths answered it above), then hand
    // every stream back to the batcher so its next queued chunk can run —
    // release first, so the chunk's acquire sees the pin already gone.
    for (std::int64_t i = 0; i < n; ++i) {
      const PendingRequest& p = batch[static_cast<std::size_t>(i)];
      if (p.stream_id == 0) continue;
      streams_->release(p.stream_id);
      stream_steps_.fetch_add(1, std::memory_order_relaxed);
      if (obs::metrics_enabled()) obs::add(ids.stream_steps);
    }
    finish_batch_streams();
    if (obs::metrics_enabled()) {
      obs::observe(ids.batch_size, static_cast<double>(n));
      obs::add(ids.batches);
      obs::set(ids.queue_depth, static_cast<double>(batcher_.depth()));
      if (slo_.enabled()) obs::set(ids.slo_burn, slo_.burn());
    }
  }
}

void Server::drain_and_stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  ST_LOG_INFO << "serve: draining (" << batcher_.depth()
              << " queued requests)";
  // 1. Wake the acceptor and every reader; no new connections or requests.
  const char token = 'q';
  [[maybe_unused]] ssize_t n = write(stop_pipe_[1], &token, 1);
  listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  // 2. Everything already admitted gets served or shed; workers exit dry.
  batcher_.drain();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Workers are gone, so no pins remain: checkpoint every still-open
  // stream's state so a restarted daemon (or a post-mortem) can resume
  // each client exactly where it left off.  No-op without a spill dir.
  // A spill failure here (disk full, dir deleted underneath us) must not
  // turn an orderly drain into an abort — the rest of the shutdown
  // (readers, ledger final record) still has to run.
  try {
    const std::size_t stream_ckpts = streams_->checkpoint_all();
    if (stream_ckpts > 0) {
      ST_LOG_INFO << "serve: checkpointed " << stream_ckpts
                  << " open streams to " << config_.stream_checkpoint_dir;
    }
  } catch (const Error& e) {
    ST_LOG_WARN << "serve: drain checkpoint failed: " << e.what();
  }
  // 3. Readers observed the stop pipe; join them, then close connections
  //    (after the workers, so every response was written first).
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (ReaderSlot& slot : readers_) {
      if (slot.thread.joinable()) slot.thread.join();
      slot.conn->close();
    }
    readers_.clear();
  }
  close(stop_pipe_[0]);
  close(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  if (!config_.span_log.empty() && spans_.recorded() > 0) {
    spans_.write_jsonl(config_.span_log);
    ST_LOG_INFO << "serve: wrote " << config_.span_log << " ("
                << spans_.recorded() << " spans sampled 1-in-"
                << config_.span_sample_every << ")";
  }
  if (!config_.fault_log.empty() && !config_.fault_spec.empty()) {
    fault_log_.write_jsonl(config_.fault_log);
    ST_LOG_INFO << "serve: wrote " << config_.fault_log << " ("
                << fault_log_.size() << " injected faults)";
  }
  const Stats s = stats();
  ST_LOG_INFO << "serve: drained; served " << s.served << " of " << s.admitted
              << " admitted requests in " << s.batches << " batches (max batch "
              << s.max_batch_seen << ", " << s.deadline_shed
              << " deadline-shed, " << s.internal_errors
              << " internal errors, " << s.rejected_overload << " overload + "
              << s.rejected_draining << " draining rejections; "
              << s.streams_opened << " streams opened, " << s.stream_steps
              << " stream steps, " << s.streams_evicted << " evicted / "
              << s.streams_restored << " restored)";
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.rejected_overload = rejected_overload_.load(std::memory_order_relaxed);
  s.rejected_draining = rejected_draining_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  s.deadline_requests = deadline_requests_.load(std::memory_order_relaxed);
  s.deadline_shed = deadline_shed_.load(std::memory_order_relaxed);
  s.internal_errors = internal_errors_.load(std::memory_order_relaxed);
  s.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  s.send_timeouts = send_timeouts_.load(std::memory_order_relaxed);
  s.max_batch_seen = max_batch_seen_.load(std::memory_order_relaxed);
  s.stat_requests = stat_requests_.load(std::memory_order_relaxed);
  const infer::StreamCounters sc = streams_->counters();
  s.streams_opened = sc.opened;
  s.streams_closed = sc.closed;
  s.streams_evicted = sc.evicted;
  s.streams_restored = sc.restored;
  s.streams_checkpointed = sc.checkpointed;
  s.stream_peak_live = sc.peak_live;
  s.stream_steps = stream_steps_.load(std::memory_order_relaxed);
  s.stream_orphan_steps =
      stream_orphan_steps_.load(std::memory_order_relaxed);
  s.stream_auto_closed = stream_auto_closed_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::stat_json() const {
  const std::uint64_t now = now_ns();
  const Stats s = stats();

  JsonValue root = JsonValue::make_object();
  root.set("uptime_s",
           JsonValue(static_cast<double>(now - start_ns_) / 1e9));
  root.set("window_s", JsonValue(config_.stat_window_s));

  JsonValue totals = JsonValue::make_object();
  totals.set("connections", JsonValue(s.connections));
  totals.set("admitted", JsonValue(s.admitted));
  totals.set("served", JsonValue(s.served));
  totals.set("batches", JsonValue(s.batches));
  totals.set("rejected_overload", JsonValue(s.rejected_overload));
  totals.set("rejected_draining", JsonValue(s.rejected_draining));
  totals.set("bad_requests", JsonValue(s.bad_requests));
  totals.set("dropped_responses", JsonValue(s.dropped_responses));
  totals.set("deadline_requests", JsonValue(s.deadline_requests));
  totals.set("deadline_shed", JsonValue(s.deadline_shed));
  totals.set("internal_errors", JsonValue(s.internal_errors));
  totals.set("idle_reaped", JsonValue(s.idle_reaped));
  totals.set("send_timeouts", JsonValue(s.send_timeouts));
  totals.set("max_batch_seen", JsonValue(s.max_batch_seen));
  root.set("totals", totals);

  root.set("queue_depth",
           JsonValue(static_cast<std::int64_t>(batcher_.depth())));
  root.set("qps", JsonValue(w_served_.per_second_at(now)));
  root.set("rejects_per_s", JsonValue(w_rejected_.per_second_at(now)));

  JsonValue deadline = JsonValue::make_object();
  deadline.set("requests", JsonValue(s.deadline_requests));
  deadline.set("shed", JsonValue(s.deadline_shed));
  deadline.set("shed_per_s", JsonValue(w_deadline_shed_.per_second_at(now)));
  root.set("deadline", deadline);

  // Streaming: live occupancy + lifecycle totals.
  const infer::StreamCounters sc = streams_->counters();
  JsonValue streams = JsonValue::make_object();
  streams.set("live", JsonValue(sc.live));
  streams.set("peak_live", JsonValue(sc.peak_live));
  streams.set("max_live", JsonValue(streams_->max_live()));
  streams.set("opened", JsonValue(sc.opened));
  streams.set("closed", JsonValue(sc.closed));
  streams.set("evicted", JsonValue(sc.evicted));
  streams.set("restored", JsonValue(sc.restored));
  streams.set("checkpointed", JsonValue(sc.checkpointed));
  streams.set("steps", JsonValue(s.stream_steps));
  streams.set("orphan_steps", JsonValue(s.stream_orphan_steps));
  streams.set("auto_closed", JsonValue(s.stream_auto_closed));
  root.set("streams", streams);

  JsonValue faults = JsonValue::make_object();
  faults.set("enabled", JsonValue(!config_.fault_spec.empty()));
  faults.set("injected",
             JsonValue(static_cast<std::int64_t>(fault_log_.size())));
  root.set("faults", faults);

  // Windowed latency: end-to-end plus the stage tiling of [recv, send].
  root.set("request_us", hist_json(w_request_us_.merged_at(now)));
  JsonValue stages = JsonValue::make_object();
  stages.set("decode_us", hist_json(w_decode_us_.merged_at(now)));
  stages.set("queue_us", hist_json(w_queue_us_.merged_at(now)));
  stages.set("assemble_us", hist_json(w_assemble_us_.merged_at(now)));
  stages.set("infer_us", hist_json(w_infer_us_.merged_at(now)));
  stages.set("respond_us", hist_json(w_respond_us_.merged_at(now)));
  root.set("stages", stages);
  root.set("batch_size", hist_json(w_batch_.merged_at(now)));

  JsonValue slo = JsonValue::make_object();
  slo.set("enabled", JsonValue(slo_.enabled()));
  slo.set("target_ms", JsonValue(config_.slo_target_ms));
  slo.set("budget", JsonValue(config_.slo_budget));
  slo.set("ok", JsonValue(slo_.ok()));
  slo.set("violations", JsonValue(slo_.violations()));
  slo.set("burn", JsonValue(slo_.burn()));
  root.set("slo", slo);

  JsonValue spans = JsonValue::make_object();
  spans.set("sample_every",
            JsonValue(static_cast<std::int64_t>(config_.span_sample_every)));
  spans.set("recorded", JsonValue(spans_.recorded()));
  root.set("spans", spans);

  // Flight-recorder occupancy (process-wide; armed by the serve driver).
  const obs::FlightStats fs = obs::flight_stats();
  JsonValue flight = JsonValue::make_object();
  flight.set("armed", JsonValue(fs.armed));
  flight.set("recorded", JsonValue(fs.recorded));
  flight.set("retained", JsonValue(fs.retained));
  flight.set("dropped", JsonValue(fs.dropped));
  flight.set("threads", JsonValue(fs.threads));
  flight.set("capacity_per_thread", JsonValue(fs.capacity_per_thread));
  root.set("flight", flight);

  if (!config_.build_stamp.empty() || config_.config_fingerprint != 0) {
    JsonValue build = JsonValue::make_object();
    build.set("stamp", JsonValue(config_.build_stamp));
    char hex[20];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(config_.config_fingerprint));
    build.set("fingerprint", JsonValue(std::string(hex)));
    root.set("build", build);
  }

  return root.dump();
}

}  // namespace spiketune::serve
