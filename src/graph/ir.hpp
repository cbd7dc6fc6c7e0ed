// Static op-graph IR the serving compiler lowers checkpoints into.
//
// A Graph is a flat DAG: `nodes` in execution (topological) order, `values`
// holding the tensors that flow between them. The tracer (tracer.hpp) emits
// one node per nn module, UNFUSED — BatchNorm, ReLU and ActQuant appear as
// their own nodes — and the pass pipeline (passes.hpp) rewrites the graph
// (conv+BN folding, int8 lowering, epilogue fusion, dead-op elimination)
// before the arena planner (plan.hpp) and executor (executor.hpp) turn it
// into a runnable plan. New fusions become passes over this IR instead of
// hand-edits scattered across nn/ and serve/ (DESIGN.md §13).
//
// Shapes are PER-SAMPLE (no batch dimension): every op in the supported set
// is batch-parallel, so a plan compiled at `max_batch` serves any batch
// width 1..max_batch from the same arena. Constants (weights, folded
// biases, BN statistics) live on the nodes as copy-on-write tensors; the
// graph owns its weights and survives the source module tree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "tensor/gemm.hpp"
#include "tensor/shape.hpp"
#include "tensor/tensor.hpp"

namespace cq::graph {

enum class Op : std::uint8_t {
  kConv2d,
  kBatchNorm,  // eval-mode affine from running stats; folded away by passes
  kRelu,
  kGlobalAvgPool,
  kLinear,
  kAdd,       // residual join, optional fused trailing ReLU
  kIdentity,  // ActQuant placeholder (serving drops fake quantization)
  // Transformer ops (ViT backbone, DESIGN.md §16).
  kPatchEmbed,  // strided im2row + linear + learned positional embeddings
  kLayerNorm,   // row-wise over the last axis (gamma/beta in bn_gamma/bn_beta)
  kGelu,        // elementwise tanh-form GELU
  kAttnCore,    // fused-QKV [seq,3*dim] -> multi-head attention -> [seq,dim]
  kSeqMean,     // mean over the sequence axis: [seq,dim] -> [dim]
};

const char* op_name(Op op);

/// Which compute path executes a conv/linear node. kInt8 nodes quantize
/// per-output-channel weights at plan-build time and run on the igemm
/// micro-kernels; everything else runs the fp32 gemm/kernels primitives.
enum class Precision : std::uint8_t { kF32, kInt8 };

using ValueId = std::int32_t;
inline constexpr ValueId kNoValue = -1;

struct Value {
  Shape shape;       // per-sample: [C,H,W] feature maps, [D] feature rows
  std::string name;  // debug label for dump()
};

/// One op. Only the fields its `op` reads are meaningful; keeping a single
/// flat struct (instead of a class hierarchy) is what lets passes rewrite
/// nodes in place and the executor switch on `op` without virtual dispatch.
struct Node {
  Op op = Op::kIdentity;
  std::vector<ValueId> inputs;
  ValueId output = kNoValue;
  std::string label;  // source module name ("stage1.conv2", ...)

  // kConv2d / kLinear
  nn::Conv2dSpec conv;                // kConv2d geometry
  Tensor weight;                      // conv [Cout, krows]; linear [out, in]
  std::vector<float> bias;            // empty = all-zero
  gemm::Epilogue::Act act = gemm::Epilogue::Act::kNone;  // fused epilogue
  float act_cap = 0.0f;
  Precision precision = Precision::kF32;
  // int8 kConv2d with a fused residual Add: inputs[1] is the Add's other
  // operand, and the sum keeps the Add's order — inputs[1] + conv when
  // true, conv + inputs[1] otherwise (NaN payloads follow the first).
  bool residual_first = false;

  // kRelu
  float relu_cap = 0.0f;  // <= 0: unbounded
  // kAdd
  bool add_relu = false;
  // kBatchNorm (copied out of the module so the graph owns its constants);
  // kLayerNorm reuses bn_gamma / bn_beta / bn_eps.
  Tensor bn_gamma, bn_beta, bn_mean, bn_var;
  float bn_eps = 0.0f;
  // kPatchEmbed: learned positional embeddings [seq, dim], added after the
  // patch projection (geometry rides in `conv`, projection in weight/bias).
  Tensor pos_embed;
  // kAttnCore
  std::int64_t attn_heads = 0;
};

struct Graph {
  std::vector<Node> nodes;  // execution order
  std::vector<Value> values;
  ValueId input = kNoValue;
  ValueId output = kNoValue;

  ValueId add_value(Shape per_sample_shape, std::string name);
  const Value& value(ValueId id) const;
  Value& value(ValueId id);

  /// Node index producing `id`, or -1 for the graph input (or an orphan).
  std::int64_t producer(ValueId id) const;
  /// How many node inputs (plus the graph output) read `id`.
  std::size_t use_count(ValueId id) const;

  /// Rewire every consumer of `from` (including the graph output) to `to`.
  void replace_uses(ValueId from, ValueId to);
  /// Drop nodes flagged in `dead` (size == nodes.size()), keeping order.
  void erase_nodes(const std::vector<bool>& dead);
};

/// Text form, one node per line:
///   %id = op(%in, ...) [per-sample shape] key=value... ; label
/// The overload in plan.hpp appends arena offsets once a plan exists — the
/// debugging surface for every pass (examples/compile_inspect.cpp).
std::string dump(const Graph& g);

}  // namespace cq::graph
