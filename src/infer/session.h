// InferenceSession: sparsity-aware serving path for a CompiledModel.
//
// The session owns every *transient* buffer the hot loop needs — each
// block's input plane and spike index lists, the dense-linear output, and
// per-participant kernel and epilogue scratch — so steady-state inference
// performs no allocation.  *Persistent* state (LIF membranes, cumulative
// spike counts) lives in StreamState (infer/stream.h): the session steps a
// batch of streams, each row reading and writing its own stream's membrane
// arena.
//
// Two entry points share one body:
//
//   * step(stream, events): the incremental API — advance one stream by one
//     timestep and get that step's output spikes back.  step_batch() is the
//     batched form the serving stack uses (many streams, one kernel pass).
//   * run(step_inputs): the classic whole-window API, now literally a loop
//     over step_batch() driving a pool of session-owned scratch streams —
//     so window results are bitwise-identical to streaming results by
//     construction, not by parallel maintenance (DESIGN.md §15).
//
// A step runs the model's layer blocks (CompiledModel::blocks(): one
// conv/linear layer, its LIF, an optional pool and any flattens) in order.
// Each block first picks its synaptic kernel from the exact batch-wide
// nonzero count of its input,
//
//   * the sparse gather-accumulate kernel, which touches only the nonzero
//     input columns via the model's [K, out] transposed weights, or
//   * the dense im2col+GEMM / GEMM kernel — the same arithmetic the training
//     stack runs — once batch-wide input density exceeds
//     InferOptions::sparse_crossover,
//
// then makes one pass over the samples.  Per sample the kernel leaves the
// bias-free pre-activation channel-last ([spatial, OC] for a conv) in the
// participant's cache-resident scratch, and one fused epilogue walks it row
// by row: bias, LIF on the stream's membrane (held in the same order), and
// the pool, storing each finished pooled row straight into the next
// block's CHW input plane, which is then index-scanned in place.  Only the
// network input is scanned from the caller's batch; every inner block's
// lists and counts come out of the block before it.
//
// Both paths, at any thread count, produce bit-identical activations to
// SpikingNetwork::forward (see DESIGN.md §10 for the determinism argument),
// so spike counts, accuracies, and recorded densities match the training
// path exactly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "infer/compiled_model.h"
#include "infer/options.h"
#include "infer/stream.h"

namespace spiketune::infer {

struct InferenceResult {
  Tensor spike_counts;     // [N, out_features] — spikes summed over steps
  snn::SpikeRecord stats;  // populated when InferOptions::record_stats
  std::int64_t timesteps = 0;

  /// Achieved input density over all conv/linear dispatch decisions this
  /// window (exact integer counts; what the crossover heuristic saw).
  double mean_input_density = 0.0;
  std::int64_t sparse_dispatches = 0;  // layer-steps on the sparse kernel
  std::int64_t dense_dispatches = 0;   // layer-steps on the dense kernel

  /// Wall-clock stage split, populated when record_stage_times: time
  /// building the network input's index lists, and time in the sparse and
  /// dense synaptic kernels alone (the bias add, LIF and pooling of the
  /// block epilogue and the next block's index lists are in none of the
  /// three).  Kernel time is summed over participants.  The serving span
  /// log forwards the kernel split per request.
  std::uint64_t index_ns = 0;
  std::uint64_t sparse_kernel_ns = 0;
  std::uint64_t dense_kernel_ns = 0;
};

class InferenceSession {
 public:
  /// The model must outlive the session (the session keeps a pointer; the
  /// weights are read in place, never copied again).
  explicit InferenceSession(const CompiledModel& model,
                            InferOptions config = {});

  /// Runs one window of T per-step batches shaped [N, <input_shape>...].
  /// All steps must share one batch size.  Implemented as a loop over
  /// step_batch() on a pool of internal scratch streams (reset first), so
  /// the result is bit-identical to feeding the same steps through step().
  InferenceResult run(const std::vector<Tensor>& step_inputs);

  /// A fresh stream for this session's model (equivalent to
  /// StreamState(model()); provided so callers need not name the model).
  StreamState make_stream() const { return StreamState(*model_); }

  /// Advances `stream` by one timestep of per-sample events shaped
  /// [<input_shape>...] and returns that step's output spikes
  /// ([out_features] of 0/1 floats).  The stream's cumulative_counts() and
  /// steps_done() advance; a fresh (or reset) stream's first step reads no
  /// membrane term, exactly like timestep 0 of a window.
  Tensor step(StreamState& stream, const Tensor& events);

  /// Batched streaming run: row i of every step tensor advances
  /// streams[i].  Streams may be at different ages (a fresh stream rides
  /// in the same batch as an old one); spike_counts holds only this call's
  /// window, while each stream's cumulative_counts() keeps the lifetime
  /// total.  `streams` pointers must be distinct and non-null.
  InferenceResult run(StreamState* const* streams, std::int64_t n,
                      const std::vector<Tensor>& step_inputs);

  const CompiledModel& model() const { return *model_; }
  const InferOptions& config() const { return config_; }

 private:
  struct StepTotals {
    std::int64_t dispatch_nz = 0;
    std::int64_t dispatch_elems = 0;
    std::int64_t spikes = 0;
  };

  /// One block's batch-wide input: its CHW values plane (unused for block
  /// 0, which reads the caller's batch in place) and the per-sample
  /// ascending nonzero index lists and their counts.
  struct BlockInput {
    std::vector<float> plane;         // capacity * in_elems
    std::vector<std::int32_t> idx;    // capacity * in_elems
    std::vector<std::int64_t> count;  // capacity
  };

  /// Scratch and tallies of one parallel_for participant, sized for the
  /// largest block so a sample's rows stay in that core's cache.
  /// Aligned so participants' clocks never share a cache line.
  struct alignas(64) Participant {
    std::vector<float> pre;        // a sample's [spatial, OC] pre-activation
    std::vector<float> cols;       // dense conv: im2col
    std::vector<float> acc;        // one pooled row, [cols / k, OC]
    std::vector<float> out;        // the last block's output row
    std::vector<std::int64_t> nz;  // [num_layers + 1] boundary nonzeros
    std::uint64_t sparse_ns = 0;
    std::uint64_t dense_ns = 0;
  };

  void ensure_capacity(std::int64_t batch);
  void ensure_participants(std::int64_t count);
  /// Fills the first block's per-sample index lists from the network input
  /// and returns the batch-wide nonzero total.
  std::int64_t build_index_lists(const float* in, std::int64_t batch,
                                 std::int64_t in_elems);
  /// Runs block `b` on sample `s`: kernel, then the fused bias/LIF/pool
  /// epilogue into the next block's input row, then that row's index list
  /// (or, for the last block, the output tallies).
  void block_sample(std::size_t b, bool sparse, const float* in_plane,
                    StreamState* const* streams, std::int64_t s,
                    float* window_counts, Participant& part);
  /// One timestep for `n` stream rows: runs every block on the batch `x`
  /// ([n, in_elems] floats), accumulates the final layer's spikes into both
  /// `window_counts` ([n, out_features], the per-window tally) and each
  /// stream's cumulative counts, and bumps each stream's step counter.
  void step_batch(StreamState* const* streams, std::int64_t n, const float* x,
                  float* window_counts, InferenceResult& result,
                  StepTotals& totals);

  const CompiledModel* model_;
  InferOptions config_;
  std::int64_t capacity_ = 0;  // samples the buffers are sized for

  std::vector<BlockInput> inputs_;          // per block
  std::vector<float> linear_out_;           // dense linear: capacity * out
  std::vector<Participant> parts_;          // grows to the thread count
  std::vector<std::int64_t> boundary_nz_;   // step totals, per boundary
  std::vector<StreamState> pool_;           // scratch streams for run()
  std::vector<StreamState*> pool_ptrs_;
  std::int64_t pre_stride_ = 0;     // max synaptic out_elems
  std::int64_t acc_stride_ = 0;     // max pooled row, (cols / k) * OC
  std::int64_t cols_stride_ = 0;    // max conv col_rows*spatial
  std::int64_t linear_stride_ = 0;  // max linear out_elems
};

}  // namespace spiketune::infer
