// InferOptions: the one aggregate for every inference-construction knob.
//
// The inference-side mirror of the training stack's ForwardOptions.  Every
// session knob (batch capacity, the sparse crossover, the two recording
// switches, the streaming limits) lives here, threaded through the drivers
// by exp::apply_standard_flags (StandardFlags::infer), so a new knob is one
// field plus one flag rather than an edit at every call site.
#pragma once

#include <cstdint>
#include <string>

#include "tensor/spike_conv.h"

namespace spiketune::infer {

struct InferOptions {
  /// Initial buffer capacity in samples.  Running a larger batch grows the
  /// buffers (a one-off reallocation); steady state never allocates.
  std::int64_t max_batch = 32;
  /// Batch-wide input density at or below which a conv/linear layer takes
  /// the sparse kernel.  Set < 0 to force the dense path, >= 1 to force the
  /// sparse path (both paths stay bit-identical; only speed changes).
  double sparse_crossover = kDefaultSparseCrossover;
  /// Populate InferenceResult::stats (one counting pass per layer boundary,
  /// identical to ForwardOptions::record_stats).
  bool record_stats = false;
  /// Accumulate wall-clock per-stage timings (index building vs. sparse vs.
  /// dense kernel time) into InferenceResult.  A few clock reads per
  /// layer-step; never alters dispatch or results.
  bool record_stage_times = false;

  // --- Streaming (StreamManager; see infer/stream.h) ------------------------
  /// Live StreamState instances held in memory before the LRU spills the
  /// coldest stream to its STK2 checkpoint.
  std::int64_t max_live_streams = 4096;
  /// Where evicted / drained stream state is checkpointed.  Empty disables
  /// spilling: beyond max_live_streams, opening another stream fails.
  std::string stream_checkpoint_dir{};
};

}  // namespace spiketune::infer
