#include "graph/passes.hpp"

#include <cmath>
#include <string>

#include "core/trace.hpp"
#include "util/check.hpp"

namespace cq::graph {

namespace {

// Fold a BatchNorm's affine transform (running stats + gamma/beta) into the
// preceding convolution's weight [Cout, Cin*K*K] and bias; all arrays are
// length weight.dim(0), and an empty `bias` is treated as all-zero.
void fold_batchnorm_arrays(const float* gamma, const float* beta,
                           const float* running_mean, const float* running_var,
                           float eps, Tensor& weight,
                           std::vector<float>& bias) {
  const auto cout = weight.dim(0);
  if (bias.empty()) bias.assign(static_cast<std::size_t>(cout), 0.0f);
  for (std::int64_t c = 0; c < cout; ++c) {
    const float inv_std = 1.0f / std::sqrt(running_var[c] + eps);
    const float scale = gamma[c] * inv_std;
    for (std::int64_t k = 0; k < weight.dim(1); ++k)
      weight.at(c, k) *= scale;
    bias[static_cast<std::size_t>(c)] =
        beta[c] + (bias[static_cast<std::size_t>(c)] - running_mean[c]) * scale;
  }
}

}  // namespace

std::size_t eliminate_identities(Graph& g) {
  std::vector<bool> dead(g.nodes.size(), false);
  std::size_t removed = 0;
  // In-order walk: rewiring node i's consumers before visiting them means a
  // chain identity(identity(x)) collapses in one pass.
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    Node& n = g.nodes[i];
    if (n.op != Op::kIdentity) continue;
    g.replace_uses(n.output, n.inputs[0]);
    dead[i] = true;
    ++removed;
  }
  g.erase_nodes(dead);
  return removed;
}

std::size_t fold_batchnorm(Graph& g) {
  std::vector<bool> dead(g.nodes.size(), false);
  std::size_t folded = 0;
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    Node& bn = g.nodes[i];
    if (bn.op != Op::kBatchNorm) continue;
    const ValueId in = bn.inputs[0];
    const std::int64_t p = g.producer(in);
    // Fold only when this BN is the conv's sole consumer: another reader of
    // the raw conv output would otherwise see folded values.
    if (p < 0 || g.nodes[static_cast<std::size_t>(p)].op != Op::kConv2d ||
        dead[static_cast<std::size_t>(p)] || g.use_count(in) != 1)
      continue;
    Node& conv = g.nodes[static_cast<std::size_t>(p)];
    CQ_CHECK_MSG(conv.weight.dim(0) == bn.bn_gamma.numel(),
                 "fold_batchnorm: channel mismatch at " << bn.label);
    fold_batchnorm_arrays(bn.bn_gamma.data(), bn.bn_beta.data(),
                          bn.bn_mean.data(), bn.bn_var.data(), bn.bn_eps,
                          conv.weight, conv.bias);
    g.replace_uses(bn.output, conv.output);
    dead[i] = true;
    ++folded;
  }
  g.erase_nodes(dead);
  return folded;
}

std::size_t lower_int8(Graph& g) {
  std::size_t lowered = 0;
  for (Node& n : g.nodes) {
    if (n.op != Op::kConv2d && n.op != Op::kLinear) continue;
    if (n.precision == Precision::kInt8) continue;
    n.precision = Precision::kInt8;
    ++lowered;
  }
  return lowered;
}

std::size_t fuse_epilogues(Graph& g) {
  std::vector<bool> dead(g.nodes.size(), false);
  std::size_t fused = 0;
  // Can producer p take a fused epilogue step on its output `out`? It must
  // be live, have no activation yet, and be the value's only reader.
  const auto fusable = [&](std::int64_t p, ValueId out) {
    return p >= 0 && !dead[static_cast<std::size_t>(p)] &&
           g.nodes[static_cast<std::size_t>(p)].act ==
               gemm::Epilogue::Act::kNone &&
           g.use_count(out) == 1;
  };
  // In-order walk: an Add folded into its conv exposes that conv to the
  // ReLU reading the Add's output later in the same sweep.
  for (std::size_t i = 0; i < g.nodes.size(); ++i) {
    Node& n = g.nodes[i];
    if (n.op == Op::kRelu) {
      const ValueId in = n.inputs[0];
      const std::int64_t p = g.producer(in);
      if (!fusable(p, in)) continue;
      Node& prod = g.nodes[static_cast<std::size_t>(p)];
      // fp32 conv/linear fuse through gemm::Epilogue; int8 convs through
      // igemm::Epilogue (the int8 linear keeps its ReLU node).
      const bool int8_conv =
          prod.op == Op::kConv2d && prod.precision == Precision::kInt8;
      const bool fp32_gemm =
          (prod.op == Op::kConv2d || prod.op == Op::kLinear) &&
          prod.precision == Precision::kF32;
      if (!int8_conv && !fp32_gemm) continue;
      prod.act = n.relu_cap > 0.0f ? gemm::Epilogue::Act::kReluCap
                                   : gemm::Epilogue::Act::kRelu;
      prod.act_cap = n.relu_cap;
      g.replace_uses(n.output, in);
    } else if (n.op == Op::kAdd) {
      // The residual join folds into whichever operand an int8 conv
      // produced later: the other operand then already exists when that
      // conv runs, and becomes its second input so the planner keeps it
      // live (and out of the conv's output bytes).
      const std::int64_t pa = g.producer(n.inputs[0]);
      const std::int64_t pb = g.producer(n.inputs[1]);
      const bool conv_second = pb > pa;
      const std::int64_t p = conv_second ? pb : pa;
      const ValueId conv_out = n.inputs[conv_second ? 1 : 0];
      if (n.inputs[0] == n.inputs[1] || !fusable(p, conv_out)) continue;
      Node& conv = g.nodes[static_cast<std::size_t>(p)];
      if (conv.op != Op::kConv2d || conv.precision != Precision::kInt8 ||
          conv.inputs.size() != 1)
        continue;
      conv.inputs.push_back(n.inputs[conv_second ? 0 : 1]);
      conv.residual_first = conv_second;
      if (n.add_relu) conv.act = gemm::Epilogue::Act::kRelu;
      g.replace_uses(n.output, conv_out);
    } else {
      continue;
    }
    dead[i] = true;
    ++fused;
  }
  g.erase_nodes(dead);
  return fused;
}

std::size_t eliminate_dead_ops(Graph& g) {
  // Nodes are in topological order, so one reverse sweep propagates
  // liveness from the graph output through every needed input.
  std::vector<bool> needed(g.values.size(), false);
  if (g.output != kNoValue) needed[static_cast<std::size_t>(g.output)] = true;
  std::vector<bool> dead(g.nodes.size(), false);
  std::size_t removed = 0;
  for (std::size_t i = g.nodes.size(); i-- > 0;) {
    const Node& n = g.nodes[i];
    if (n.output == kNoValue || !needed[static_cast<std::size_t>(n.output)]) {
      dead[i] = true;
      ++removed;
      continue;
    }
    for (ValueId in : n.inputs) needed[static_cast<std::size_t>(in)] = true;
  }
  g.erase_nodes(dead);
  return removed;
}

std::vector<PassResult> run_default_passes(Graph& g, Precision precision) {
  std::vector<PassResult> results;
  const auto run = [&](const char* name, std::size_t (*pass)(Graph&)) {
    prof::Counter& c =
        prof::Counter::intern(std::string("graph.pass.") + name);
    trace::Scope span(c, c.name());
    const std::size_t changed = pass(g);
    results.push_back(PassResult{name, changed, g.nodes.size()});
  };
  run("eliminate_identities", eliminate_identities);
  run("fold_batchnorm", fold_batchnorm);
  if (precision == Precision::kInt8) run("lower_int8", lower_int8);
  run("fuse_epilogues", fuse_epilogues);
  run("eliminate_dead_ops", eliminate_dead_ops);
  return results;
}

}  // namespace cq::graph
