// CompiledModel: a trained SpikingNetwork frozen for inference.
//
// compile() walks the network once and snapshots everything the serving hot
// path needs — weights (plus a [K, out] transpose for the sparse scatter
// kernels), biases, conv geometry, pool kernels, LIF constants, and the
// per-layer shapes for a given per-sample input — so an InferenceSession can
// run windows with no layer objects, no gradient caches, and no per-step
// shape inference.  The source network is not retained: a CompiledModel is a
// self-contained value and stays valid after the network is mutated or
// destroyed (re-compile to pick up new weights, e.g. after quantization).
#pragma once

#include <string>
#include <vector>

#include "snn/network.h"
#include "tensor/im2col.h"

namespace spiketune::infer {

/// The closed set of layer types the inference engine executes.  compile()
/// throws InvalidArgument for anything else (e.g. recurrent layers).
enum class OpKind {
  kConv2d,
  kLinear,
  kLif,
  kMaxPool2d,
  kAvgPool2d,
  kFlatten,
};

const char* op_kind_name(OpKind kind);

/// One frozen layer: immutable tensors plus precomputed metadata.  Only the
/// fields relevant to `kind` are populated.
struct CompiledLayer {
  OpKind kind = OpKind::kFlatten;
  std::string name;      // source layer's name(), for SpikeRecord parity
  bool spiking = false;  // source layer's spiking()
  Shape in_shape;        // per-sample
  Shape out_shape;       // per-sample
  std::int64_t in_elems = 0;   // per-sample input numel
  std::int64_t out_elems = 0;  // per-sample output numel

  // kConv2d / kLinear.  `weight` keeps the training layout ([OC, IC*KH*KW]
  // for conv, [out, in] for linear; the dense linear kernel reads it);
  // `weight_t` is its [K, out] transpose, so the sparse kernels touch
  // contiguous rows per input event and the dense conv kernel writes
  // channel-last output.  `bias` is empty when the layer has none.
  Tensor weight;
  Tensor weight_t;
  Tensor bias;
  ConvGeom geom{};  // kConv2d only

  // kMaxPool2d / kAvgPool2d.
  std::int64_t pool_kernel = 0;

  // kLif.
  float beta = 0.0f;
  float threshold = 0.0f;
  /// Offset of this layer's membrane plane inside a StreamState arena
  /// (see infer/stream.h); -1 for non-LIF layers.  The plane is held in its
  /// block's channel-last order ([OH, OW, OC] after a conv).  Assigned at
  /// compile so every stream shares one layout and eviction checkpoints are
  /// one flat tensor.
  std::int64_t membrane_offset = -1;
};

/// One unit of the session's per-sample pass: a synaptic layer (conv or
/// linear) at `begin`, the LIF right after it, an optional pool right after
/// that, then any flattens, up to `end`.  compile() rejects a network that
/// does not cut into such blocks (only flattens may precede the first one).
///
/// The block's LIF plane is `rows` x `cols` positions of `channels` values,
/// held channel-last: [OH, OW, OC] for a conv, 1 x 1 x out_features for a
/// linear layer.  `pool` is the pool window (1 when the block has no pool)
/// and `avg_pool` selects average over max pooling.
struct LayerBlock {
  std::size_t begin = 0;  // the conv/linear layer; its LIF is begin + 1
  std::size_t end = 0;    // one past the last layer index
  std::int64_t rows = 1;
  std::int64_t cols = 1;
  std::int64_t channels = 0;
  std::int64_t pool = 1;
  bool avg_pool = false;
};

class CompiledModel {
 public:
  CompiledModel() = default;

  /// Freezes `net` for per-sample inputs of shape `per_sample_input` (no
  /// batch dimension; e.g. {3, 32, 32}).  Copies all weights; the network
  /// may be mutated or destroyed afterwards.  Throws InvalidArgument on
  /// unsupported layer types, incompatible shapes, or a layer order that
  /// does not cut into LayerBlocks (a conv/linear layer not followed by a
  /// LIF, a pool not directly after a LIF).
  static CompiledModel compile(const snn::SpikingNetwork& net,
                               const Shape& per_sample_input);

  const std::vector<CompiledLayer>& layers() const { return layers_; }
  std::size_t num_layers() const { return layers_.size(); }
  const Shape& input_shape() const { return input_shape_; }    // per-sample
  const Shape& output_shape() const { return output_shape_; }  // per-sample

  /// Fresh SpikeRecord matching this topology (same layer names and spiking
  /// flags as the source network's make_record()).
  snn::SpikeRecord make_record() const;

  std::int64_t num_parameters() const;

  /// The layer list cut into blocks, in order; computed once at compile.
  const std::vector<LayerBlock>& blocks() const { return blocks_; }

  /// Total floats of persistent membrane state one stream carries (the
  /// StreamState arena size): the sum of every LIF layer's out_elems.
  std::int64_t membrane_elems() const { return membrane_elems_; }

 private:
  std::vector<CompiledLayer> layers_;
  std::vector<LayerBlock> blocks_;
  Shape input_shape_;
  Shape output_shape_;
  std::int64_t membrane_elems_ = 0;
};

}  // namespace spiketune::infer
