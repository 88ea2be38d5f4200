// Interned metric handles for the serving stack, resolved once.
//
// server.cpp used to re-intern `serve.queue_depth` (and friends) as
// function-local statics in two separate scopes — harmless (interning is
// idempotent) but a drift hazard: rename one registration and the metric
// silently forks.  Every serve metric now lives here; call
// serve_metric_ids() and index the struct.  The first call interns, every
// later call is a function-local-static load.
#pragma once

#include "obs/metrics.h"

namespace spiketune::serve {

struct ServeMetricIds {
  // Traffic and queue state.
  obs::MetricId requests = obs::kNoMetric;       // counter: responses sent
  obs::MetricId batches = obs::kNoMetric;        // counter: session runs
  obs::MetricId rejected_overload = obs::kNoMetric;  // counter
  obs::MetricId queue_depth = obs::kNoMetric;    // gauge: queued requests
  obs::MetricId batch_size = obs::kNoMetric;     // histogram: samples/batch
  // End-to-end and per-stage request latency (all microseconds).
  obs::MetricId request_us = obs::kNoMetric;     // histogram: admit -> done
  obs::MetricId queue_us = obs::kNoMetric;       // histogram: queue wait
  obs::MetricId assemble_us = obs::kNoMetric;    // histogram: batch packing
  obs::MetricId infer_us = obs::kNoMetric;       // histogram: kernel time
  // SLO accounting (see serve/slo.h).
  obs::MetricId slo_ok = obs::kNoMetric;         // counter: within target
  obs::MetricId slo_violations = obs::kNoMetric; // counter: over target
  obs::MetricId slo_burn = obs::kNoMetric;       // gauge: budget burn ratio
  // Introspection endpoint.
  obs::MetricId stat_requests = obs::kNoMetric;  // counter: STAT snapshots
  // Deadline lifecycle.
  obs::MetricId deadline_requests = obs::kNoMetric;  // counter: budget > 0
  obs::MetricId deadline_shed = obs::kNoMetric;      // counter: expired->shed
  // Unhappy-path hygiene.
  obs::MetricId internal_errors = obs::kNoMetric;  // counter: poison requests
  obs::MetricId idle_reaped = obs::kNoMetric;      // counter: idle conns cut
  obs::MetricId send_timeouts = obs::kNoMetric;    // counter: slow-peer cuts
  // Streaming.  Lifecycle counters (opened/evicted/...) are
  // registered by infer::StreamManager under `infer.streams.*`; these two
  // are the serve-side step tallies.
  obs::MetricId stream_steps = obs::kNoMetric;    // counter: steps answered
  obs::MetricId stream_orphans = obs::kNoMetric;  // counter: closed-race steps
};

inline const ServeMetricIds& serve_metric_ids() {
  static const ServeMetricIds ids = [] {
    ServeMetricIds m;
    m.requests = obs::counter("serve.requests");
    m.batches = obs::counter("serve.batches");
    m.rejected_overload = obs::counter("serve.rejected_overload");
    m.queue_depth = obs::gauge("serve.queue_depth");
    m.batch_size = obs::histogram("serve.batch_size");
    m.request_us = obs::histogram("serve.request_us");
    m.queue_us = obs::histogram("serve.queue_us");
    m.assemble_us = obs::histogram("serve.assemble_us");
    m.infer_us = obs::histogram("serve.infer_us");
    m.slo_ok = obs::counter("serve.slo.ok");
    m.slo_violations = obs::counter("serve.slo.violations");
    m.slo_burn = obs::gauge("serve.slo.burn");
    m.stat_requests = obs::counter("serve.stat_requests");
    m.deadline_requests = obs::counter("serve.deadline.requests");
    m.deadline_shed = obs::counter("serve.deadline.shed");
    m.internal_errors = obs::counter("serve.internal_errors");
    m.idle_reaped = obs::counter("serve.conn.idle_reaped");
    m.send_timeouts = obs::counter("serve.conn.send_timeouts");
    m.stream_steps = obs::counter("serve.stream.steps");
    m.stream_orphans = obs::counter("serve.stream.orphans");
    return m;
  }();
  return ids;
}

}  // namespace spiketune::serve
