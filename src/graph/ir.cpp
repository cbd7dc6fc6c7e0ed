#include "graph/ir.hpp"

#include <cstdio>

#include "util/check.hpp"

namespace cq::graph {

const char* op_name(Op op) {
  switch (op) {
    case Op::kConv2d: return "conv2d";
    case Op::kBatchNorm: return "batchnorm";
    case Op::kRelu: return "relu";
    case Op::kGlobalAvgPool: return "gap";
    case Op::kLinear: return "linear";
    case Op::kAdd: return "add";
    case Op::kIdentity: return "identity";
    case Op::kPatchEmbed: return "patch_embed";
    case Op::kLayerNorm: return "layernorm";
    case Op::kGelu: return "gelu";
    case Op::kAttnCore: return "attn_core";
    case Op::kSeqMean: return "seq_mean";
  }
  return "?";
}

ValueId Graph::add_value(Shape per_sample_shape, std::string name) {
  values.push_back(Value{std::move(per_sample_shape), std::move(name)});
  return static_cast<ValueId>(values.size() - 1);
}

const Value& Graph::value(ValueId id) const {
  CQ_CHECK(id >= 0 && static_cast<std::size_t>(id) < values.size());
  return values[static_cast<std::size_t>(id)];
}

Value& Graph::value(ValueId id) {
  CQ_CHECK(id >= 0 && static_cast<std::size_t>(id) < values.size());
  return values[static_cast<std::size_t>(id)];
}

std::int64_t Graph::producer(ValueId id) const {
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (nodes[i].output == id) return static_cast<std::int64_t>(i);
  return -1;
}

std::size_t Graph::use_count(ValueId id) const {
  std::size_t uses = 0;
  for (const Node& n : nodes)
    for (ValueId in : n.inputs)
      if (in == id) ++uses;
  if (output == id) ++uses;
  return uses;
}

void Graph::replace_uses(ValueId from, ValueId to) {
  for (Node& n : nodes)
    for (ValueId& in : n.inputs)
      if (in == from) in = to;
  if (output == from) output = to;
}

void Graph::erase_nodes(const std::vector<bool>& dead) {
  CQ_CHECK(dead.size() == nodes.size());
  std::vector<Node> kept;
  kept.reserve(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    if (!dead[i]) kept.push_back(std::move(nodes[i]));
  nodes = std::move(kept);
}

namespace detail {

// A conv/linear line's fused activation: " +relu", " +relu6", or
// " +relu_cap(<cap>)" for another cap.
std::string act_suffix(const Node& n) {
  if (n.act == gemm::Epilogue::Act::kRelu) return " +relu";
  if (n.act != gemm::Epilogue::Act::kReluCap) return "";
  if (n.act_cap == 6.0f) return " +relu6";
  char buf[64];
  std::snprintf(buf, sizeof buf, " +relu_cap(%g)",
                static_cast<double>(n.act_cap));
  return buf;
}

std::string node_line(const Graph& g, const Node& n) {
  std::string s = "%" + std::to_string(n.output) + " = ";
  s += op_name(n.op);
  s += "(";
  for (std::size_t i = 0; i < n.inputs.size(); ++i) {
    if (i) s += ", ";
    s += "%" + std::to_string(n.inputs[i]);
  }
  s += ")";
  if (n.output != kNoValue) {
    s += " ";
    s += g.value(n.output).shape.str();
  }
  char buf[128];
  switch (n.op) {
    case Op::kConv2d: {
      std::snprintf(buf, sizeof buf, " k=%lldx%lld s=%lld p=%lld g=%lld",
                    static_cast<long long>(n.conv.kernel),
                    static_cast<long long>(n.conv.kernel),
                    static_cast<long long>(n.conv.stride),
                    static_cast<long long>(n.conv.pad),
                    static_cast<long long>(n.conv.groups));
      s += buf;
      if (n.precision == Precision::kInt8) s += " int8";
      if (n.inputs.size() > 1) s += " +res %" + std::to_string(n.inputs[1]);
      s += act_suffix(n);
      break;
    }
    case Op::kLinear:
      if (n.precision == Precision::kInt8) s += " int8";
      s += act_suffix(n);
      break;
    case Op::kRelu:
      if (n.relu_cap > 0.0f) {
        std::snprintf(buf, sizeof buf, " cap=%g",
                      static_cast<double>(n.relu_cap));
        s += buf;
      }
      break;
    case Op::kAdd:
      if (n.add_relu) s += " +relu";
      break;
    case Op::kPatchEmbed:
      std::snprintf(buf, sizeof buf, " p=%lld",
                    static_cast<long long>(n.conv.kernel));
      s += buf;
      break;
    case Op::kAttnCore:
      std::snprintf(buf, sizeof buf, " h=%lld",
                    static_cast<long long>(n.attn_heads));
      s += buf;
      break;
    default: break;
  }
  if (!n.label.empty()) {
    s += " ; ";
    s += n.label;
  }
  return s;
}

}  // namespace detail

std::string dump(const Graph& g) {
  std::string s = "graph input=%" + std::to_string(g.input) + " " +
                  (g.input != kNoValue ? g.value(g.input).shape.str()
                                       : std::string("[]")) +
                  " output=%" + std::to_string(g.output) + "\n";
  for (const Node& n : g.nodes) {
    s += detail::node_line(g, n);
    s += "\n";
  }
  return s;
}

}  // namespace cq::graph
