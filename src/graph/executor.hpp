// Compiled-plan executor: runs a pass-processed graph through the existing
// gemm / kernels / igemm primitives, with every intermediate and scratch
// buffer resolved to an offset in ONE preallocated arena (plan.hpp) and
// weights prepacked per node at build time (fp32 linear -> gemm packed-B
// slivers; int8 conv/linear -> igemm packed-A + row sums + per-channel
// symmetric scales). This is the repo's one inference path: the serving
// engine, the search service and CPT-V calibration all run these plans.
//
// Bitwise contracts (the serving gates), pinned by tests/test_graph.cpp:
//  * every pass keeps the forward bitwise equal to the passes-off plan (the
//    traced IR after only identity elimination, BN folding and, for int8,
//    lower_int8);
//  * an int8 conv/linear node equals the textbook two-pass lowering
//    (per-sample scales, im2col, quantize-on-pack, one igemm per group);
//  * a batch-N forward equals N batch-1 forwards bitwise at any width
//    1..max_batch.
// They hold because every choice a node body makes (lowering, GEMM entry
// point, epilogue folding, quantization scale) depends on the layer's
// geometry and on one sample's values, never on the batch width.
//
// forward() is const-free and reuses the arena: zero heap allocations in
// steady state at ANY batch width (the prewarm regression in
// tests/test_serve.cpp), and one CompiledModel per serving thread — the
// arena makes it non-reentrant by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ir.hpp"
#include "graph/passes.hpp"
#include "graph/plan.hpp"
#include "nn/sequential.hpp"

namespace cq::graph {

struct CompileOptions {
  std::int64_t max_batch = 1;
  Precision precision = Precision::kF32;
  bool run_passes = true;  // off: caller drives passes itself (tests)
};

class CompiledModel {
 public:
  /// Takes a graph whose pipeline has already run — kBatchNorm and
  /// kIdentity must be gone (throws CheckError naming the offender
  /// otherwise) — plans the arena at `max_batch`, and prepacks weights.
  CompiledModel(Graph g, std::int64_t max_batch);

  CompiledModel(CompiledModel&&) = default;
  CompiledModel& operator=(CompiledModel&&) = default;
  CompiledModel(const CompiledModel&) = delete;
  CompiledModel& operator=(const CompiledModel&) = delete;

  /// x: [n, ...per-sample dims], 1 <= n <= max_batch(). Returns [n, ...]
  /// features; the reference stays valid until the next forward.
  const Tensor& forward(const Tensor& x);

  const Graph& graph() const { return graph_; }
  const ArenaPlan& plan() const { return plan_; }
  const std::vector<PassResult>& pass_log() const { return pass_log_; }
  std::int64_t max_batch() const { return max_batch_; }
  std::int64_t arena_bytes() const { return plan_.arena_bytes; }

  /// Indices of the int8 kConv2d / kLinear nodes, in execution order — the
  /// layers whose weight quantization scales CPT-V calibration perturbs.
  std::vector<std::size_t> int8_nodes() const;
  /// Node i's current per-output-channel weight scales (empty for fp32).
  const std::vector<float>& node_scales(std::size_t i) const {
    return state_[i].scales;
  }
  /// Re-quantize node i's weights with externally chosen per-output-channel
  /// scales (quant/ptq.cpp's accept/reject loop) and repack for igemm. The
  /// node must be an int8 kConv2d / kLinear; scales must have one positive
  /// entry per output channel.
  void requantize_node(std::size_t i, const std::vector<float>& scales);

 private:
  friend CompiledModel compile(nn::Sequential&, const Shape&,
                               const CompileOptions&);

  /// Per-node immutable compute state built once in the ctor.
  struct NodeState {
    // fp32 kLinear: weights in gemm packed-B sliver layout when the shape
    // fits a single k-panel (in <= kKC, out <= kNC); empty -> gemm(kNT)
    // fallback on the raw weight.
    std::vector<float> packed_b;
    // int8 kConv2d / kLinear: igemm packed weights + epilogue operands.
    std::vector<std::int8_t> packed_a;
    std::vector<std::int32_t> rowsum;
    std::vector<float> scales;
    std::int64_t pa_group = 0;  // packed bytes per conv group
    // Bias always materialized (zeros when the node has none) so epilogues
    // can point at it unconditionally.
    std::vector<float> bias;
  };

  /// Quantize + igemm-pack node i's weights. `scales` is per-output-channel
  /// (weight.dim(0) entries) or null for the min-max default.
  void quantize_int8_weights(std::size_t i, const float* scales);

  float* arena_ptr(std::int64_t offset) {
    return reinterpret_cast<float*>(base_ + offset);
  }
  const float* in_ptr(ValueId id, const Tensor& x) const;
  float* out_value_ptr(ValueId id);
  /// Per-image maxima value `id`'s producer publishes, or null
  /// (ArenaPlan::absmax_offset).
  float* absmax_ptr(ValueId id);

  Graph graph_;
  std::int64_t max_batch_ = 1;
  ArenaPlan plan_;
  std::vector<PassResult> pass_log_;
  std::vector<std::uint8_t> arena_;  // one buffer for every intermediate
  std::uint8_t* base_ = nullptr;     // kArenaAlign-aligned start
  std::vector<NodeState> state_;
  Tensor out_;
};

/// trace -> run_default_passes (unless opts.run_passes is off) -> plan ->
/// prepack. The one-call entry the serving instances use.
CompiledModel compile(nn::Sequential& net, const Shape& sample_shape,
                      const CompileOptions& opts);

}  // namespace cq::graph
