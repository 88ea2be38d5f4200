#include "infer/compiled_model.h"

#include "core/error.h"
#include "snn/conv2d.h"
#include "snn/layers.h"
#include "snn/lif.h"
#include "snn/linear.h"
#include "snn/pool.h"

namespace spiketune::infer {

namespace {

Tensor transpose_2d(const Tensor& w, std::int64_t rows, std::int64_t cols) {
  // w is [rows, cols]; returns [cols, rows].
  Tensor t(Shape{cols, rows});
  const float* src = w.data();
  float* dst = t.data();
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  return t;
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kLinear: return "linear";
    case OpKind::kLif: return "lif";
    case OpKind::kMaxPool2d: return "maxpool2d";
    case OpKind::kAvgPool2d: return "avgpool2d";
    case OpKind::kFlatten: return "flatten";
  }
  return "?";
}

CompiledModel CompiledModel::compile(const snn::SpikingNetwork& net,
                                     const Shape& per_sample_input) {
  ST_REQUIRE(net.num_layers() > 0, "cannot compile an empty network");

  CompiledModel model;
  model.input_shape_ = per_sample_input;
  Shape shape = per_sample_input;

  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    const snn::Layer& src = net.layer(li);
    CompiledLayer cl;
    cl.name = src.name();
    cl.spiking = src.spiking();
    cl.in_shape = shape;
    // output_shape also validates the per-sample input against the layer.
    cl.out_shape = src.output_shape(shape);

    if (const auto* conv = dynamic_cast<const snn::Conv2d*>(&src)) {
      cl.kind = OpKind::kConv2d;
      const auto& cfg = conv->config();
      ST_REQUIRE(cl.in_shape.rank() == 3,
                 "conv expects per-sample [C, H, W], got " + cl.in_shape.str());
      cl.geom = ConvGeom{cfg.in_channels, cl.in_shape[1], cl.in_shape[2],
                         cfg.kernel,      cfg.kernel,     cfg.pad,
                         cfg.pad,         1,              1};
      cl.weight = conv->weight().value;  // [OC, IC*KH*KW]
      cl.weight_t =
          transpose_2d(cl.weight, cfg.out_channels, cl.geom.col_rows());
      if (cfg.bias) cl.bias = conv->bias().value;
    } else if (const auto* lin = dynamic_cast<const snn::Linear*>(&src)) {
      cl.kind = OpKind::kLinear;
      const auto& cfg = lin->config();
      cl.weight = lin->weight().value;  // [out, in]
      cl.weight_t = transpose_2d(cl.weight, cfg.out_features, cfg.in_features);
      if (cfg.bias) cl.bias = lin->bias().value;
    } else if (const auto* lif = dynamic_cast<const snn::Lif*>(&src)) {
      cl.kind = OpKind::kLif;
      cl.beta = lif->config().beta;
      cl.threshold = lif->config().threshold;
    } else if (const auto* mp = dynamic_cast<const snn::MaxPool2d*>(&src)) {
      cl.kind = OpKind::kMaxPool2d;
      cl.pool_kernel = mp->kernel();
    } else if (const auto* ap = dynamic_cast<const snn::AvgPool2d*>(&src)) {
      cl.kind = OpKind::kAvgPool2d;
      cl.pool_kernel = ap->kernel();
    } else if (dynamic_cast<const snn::Flatten*>(&src) != nullptr) {
      cl.kind = OpKind::kFlatten;
    } else {
      throw InvalidArgument("cannot compile layer " + std::to_string(li) +
                            " ('" + src.name() +
                            "') for inference: unsupported layer type");
    }

    cl.in_elems = cl.in_shape.numel();
    cl.out_elems = cl.out_shape.numel();
    if (cl.kind == OpKind::kLif) {
      cl.membrane_offset = model.membrane_elems_;
      model.membrane_elems_ += cl.out_elems;
    }
    shape = cl.out_shape;
    model.layers_.push_back(std::move(cl));
  }

  ST_REQUIRE(shape.rank() == 1,
             "network output must flatten to [features] per sample, got " +
                 shape.str());
  model.output_shape_ = shape;

  // Cut the layers into blocks: conv/linear, LIF, optional pool, flattens.
  // Flattens are reshapes, so leading ones belong to no block.
  const auto& layers = model.layers_;
  const auto kind_at = [&](std::size_t i) { return layers[i].kind; };
  std::size_t li = 0;
  while (li < layers.size() && kind_at(li) == OpKind::kFlatten) ++li;
  ST_REQUIRE(li < layers.size(),
             "cannot compile a network without a conv or linear layer");
  while (li < layers.size()) {
    const CompiledLayer& head = layers[li];
    const auto where = "layer " + std::to_string(li) + " ('" + head.name +
                       "', " + op_kind_name(head.kind) + ")";
    ST_REQUIRE(head.kind == OpKind::kConv2d || head.kind == OpKind::kLinear,
               "cannot compile " + where +
                   " for inference: a block is conv/linear, LIF, an optional "
                   "pool directly after the LIF, then flattens");
    ST_REQUIRE(li + 1 < layers.size() && kind_at(li + 1) == OpKind::kLif,
               "cannot compile " + where +
                   " for inference: it is not followed by a LIF layer");
    LayerBlock blk;
    blk.begin = li;
    blk.channels = head.out_shape[0];
    if (head.kind == OpKind::kConv2d) {
      blk.rows = head.out_shape[1];
      blk.cols = head.out_shape[2];
    }
    std::size_t e = li + 2;
    if (e < layers.size() && (kind_at(e) == OpKind::kMaxPool2d ||
                              kind_at(e) == OpKind::kAvgPool2d)) {
      blk.pool = layers[e].pool_kernel;
      blk.avg_pool = kind_at(e) == OpKind::kAvgPool2d;
      ++e;
    }
    while (e < layers.size() && kind_at(e) == OpKind::kFlatten) ++e;
    blk.end = e;
    model.blocks_.push_back(blk);
    li = e;
  }
  return model;
}

snn::SpikeRecord CompiledModel::make_record() const {
  std::vector<std::string> names;
  std::vector<bool> spiking;
  names.reserve(layers_.size());
  for (const auto& l : layers_) {
    names.push_back(l.name);
    spiking.push_back(l.spiking);
  }
  return snn::SpikeRecord(std::move(names), std::move(spiking));
}

std::int64_t CompiledModel::num_parameters() const {
  std::int64_t n = 0;
  for (const auto& l : layers_) n += l.weight.numel() + l.bias.numel();
  return n;
}

}  // namespace spiketune::infer
