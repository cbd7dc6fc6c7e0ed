#include "graph/tracer.hpp"

#include <string>

#include "models/mobilenetv2.hpp"
#include "models/resnet.hpp"
#include "models/vit.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/layernorm.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "quant/actquant.hpp"
#include "tensor/im2col.hpp"
#include "util/check.hpp"

namespace cq::graph {

namespace {

ValueId trace_module(Graph& g, nn::Module& child, ValueId cur,
                     const std::string& label);

/// kLinear over a rank-1 [in] or rank-2 [seq, in] per-sample input; the
/// executor just sees more GEMM rows in the rank-2 case.
ValueId linear_node(Graph& g, nn::Linear& linear, ValueId cur,
                    const std::string& label) {
  const Shape& in = g.value(cur).shape;
  CQ_CHECK_MSG((in.rank() == 1 || in.rank() == 2) &&
                   in.dim(in.rank() - 1) == linear.in_features(),
               "tracer: linear " << label << " expects [..,"
                                 << linear.in_features() << "], got "
                                 << in.str());
  Node n;
  n.op = Op::kLinear;
  n.inputs = {cur};
  n.label = label;
  n.weight = linear.weight().value;
  if (linear.bias() != nullptr) {
    n.bias.resize(static_cast<std::size_t>(linear.out_features()));
    for (std::int64_t i = 0; i < linear.out_features(); ++i)
      n.bias[static_cast<std::size_t>(i)] = linear.bias()->value[i];
  }
  const Shape out = in.rank() == 1
                        ? Shape{linear.out_features()}
                        : Shape{in.dim(0), linear.out_features()};
  n.output = g.add_value(out, label);
  g.nodes.push_back(std::move(n));
  return g.nodes.back().output;
}

ValueId layernorm_node(Graph& g, nn::LayerNorm& ln, ValueId cur,
                       const std::string& label) {
  const Shape& in = g.value(cur).shape;
  CQ_CHECK_MSG(in.rank() >= 1 && in.dim(in.rank() - 1) == ln.dim(),
               "tracer: layernorm " << label << " dim mismatch on "
                                    << in.str());
  Node n;
  n.op = Op::kLayerNorm;
  n.inputs = {cur};
  n.label = label;
  n.bn_gamma = ln.gamma();
  n.bn_beta = ln.beta();
  n.bn_eps = ln.eps();
  n.output = g.add_value(in, label);
  g.nodes.push_back(std::move(n));
  return g.nodes.back().output;
}

ValueId trace_sequential(Graph& g, nn::Sequential& seq, ValueId cur,
                         const std::string& prefix) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    nn::Module& child = seq.child(i);
    cur = trace_module(g, child,
                       cur, prefix + std::to_string(i) + ":" +
                                child.type_name());
  }
  return cur;
}

ValueId trace_module(Graph& g, nn::Module& child, ValueId cur,
                     const std::string& label) {
  const Shape& in = g.value(cur).shape;

  if (auto* conv = dynamic_cast<nn::Conv2d*>(&child)) {
    const nn::Conv2dSpec& spec = conv->spec();
    CQ_CHECK_MSG(in.rank() == 3 && in.dim(0) == spec.in_channels,
                 "tracer: conv " << label << " expects [" << spec.in_channels
                                 << ",H,W], got " << in.str());
    ConvGeometry geo;
    geo.in_channels = spec.in_channels / spec.groups;
    geo.in_h = in.dim(1);
    geo.in_w = in.dim(2);
    geo.kernel_h = geo.kernel_w = spec.kernel;
    geo.stride = spec.stride;
    geo.pad = spec.pad;
    Node n;
    n.op = Op::kConv2d;
    n.inputs = {cur};
    n.label = label;
    n.conv = spec;
    n.weight = conv->weight().value;  // COW handle; passes detach on mutate
    if (const nn::Parameter* b = conv->bias(); b != nullptr)
      n.bias.assign(b->value.data(), b->value.data() + spec.out_channels);
    n.output = g.add_value(Shape{spec.out_channels, geo.out_h(), geo.out_w()},
                           label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* bn = dynamic_cast<nn::BatchNorm2d*>(&child)) {
    CQ_CHECK_MSG(in.rank() == 3 && in.dim(0) == bn->channels(),
                 "tracer: batchnorm " << label << " channels mismatch on "
                                      << in.str());
    Node n;
    n.op = Op::kBatchNorm;
    n.inputs = {cur};
    n.label = label;
    n.bn_gamma = bn->gamma();
    n.bn_beta = bn->beta();
    n.bn_mean = bn->running_mean();
    n.bn_var = bn->running_var();
    n.bn_eps = bn->eps();
    n.output = g.add_value(in, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* relu = dynamic_cast<nn::ReLU*>(&child)) {
    Node n;
    n.op = Op::kRelu;
    n.inputs = {cur};
    n.label = label;
    n.relu_cap = relu->cap();
    n.output = g.add_value(in, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (dynamic_cast<quant::ActQuant*>(&child) != nullptr) {
    // Serving drops fake quantization; the identity node records where it
    // stood (visible in a post-trace dump) until eliminate_identities runs.
    Node n;
    n.op = Op::kIdentity;
    n.inputs = {cur};
    n.label = label;
    n.output = g.add_value(in, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* pool = dynamic_cast<nn::MaxPool2d*>(&child)) {
    CQ_CHECK_MSG(in.rank() == 3,
                 "tracer: maxpool " << label << " on " << in.str());
    const auto oh =
        (in.dim(1) + 2 * pool->pad() - pool->kernel()) / pool->stride() + 1;
    const auto ow =
        (in.dim(2) + 2 * pool->pad() - pool->kernel()) / pool->stride() + 1;
    Node n;
    n.op = Op::kMaxPool;
    n.inputs = {cur};
    n.label = label;
    n.pool_kernel = pool->kernel();
    n.pool_stride = pool->stride();
    n.pool_pad = pool->pad();
    n.output = g.add_value(Shape{in.dim(0), oh, ow}, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (dynamic_cast<nn::GlobalAvgPool*>(&child) != nullptr) {
    CQ_CHECK_MSG(in.rank() == 3, "tracer: gap " << label << " on " << in.str());
    Node n;
    n.op = Op::kGlobalAvgPool;
    n.inputs = {cur};
    n.label = label;
    n.output = g.add_value(Shape{in.dim(0)}, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (dynamic_cast<nn::Flatten*>(&child) != nullptr) {
    Node n;
    n.op = Op::kFlatten;
    n.inputs = {cur};
    n.label = label;
    n.output = g.add_value(Shape{in.numel()}, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* linear = dynamic_cast<nn::Linear*>(&child))
    return linear_node(g, *linear, cur, label);

  if (auto* ln = dynamic_cast<nn::LayerNorm*>(&child))
    return layernorm_node(g, *ln, cur, label);

  if (dynamic_cast<nn::GELU*>(&child) != nullptr) {
    Node n;
    n.op = Op::kGelu;
    n.inputs = {cur};
    n.label = label;
    n.output = g.add_value(in, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* pe = dynamic_cast<models::PatchEmbed*>(&child)) {
    const ConvGeometry& geo = pe->geometry();
    CQ_CHECK_MSG(in.rank() == 3 && in.dim(0) == geo.in_channels &&
                     in.dim(1) == geo.in_h && in.dim(2) == geo.in_w,
                 "tracer: patch_embed " << label << " geometry mismatch on "
                                        << in.str());
    Node n;
    n.op = Op::kPatchEmbed;
    n.inputs = {cur};
    n.label = label;
    n.conv.in_channels = geo.in_channels;
    n.conv.out_channels = pe->dim();
    n.conv.kernel = geo.kernel_h;
    n.conv.stride = geo.stride;
    n.conv.pad = 0;
    n.conv.groups = 1;
    n.weight = pe->proj().weight().value;
    if (pe->proj().bias() != nullptr) {
      n.bias.resize(static_cast<std::size_t>(pe->dim()));
      for (std::int64_t i = 0; i < pe->dim(); ++i)
        n.bias[static_cast<std::size_t>(i)] = pe->proj().bias()->value[i];
    }
    n.pos_embed = pe->pos().value;
    n.output = g.add_value(Shape{pe->seq(), pe->dim()}, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* block = dynamic_cast<models::VitBlock*>(&child)) {
    // Mirror the eager forward node for node:
    //   x2 = x + proj(attn(qkv(ln1(x))));  y = actq(x2 + fc2(gelu(fc1(ln2))))
    CQ_CHECK_MSG(in.rank() == 2 && in.dim(1) == block->dim(),
                 "tracer: vit_block " << label << " expects [seq,"
                                      << block->dim() << "], got " << in.str());
    // `in` is a reference into g.values and dies on the first add_value
    // below; the block's activation shape is invariant, so copy it once.
    const Shape io = in;
    ValueId a = layernorm_node(g, block->ln1(), cur, label + ".ln1");
    a = linear_node(g, block->qkv(), a, label + ".qkv");
    Node attn;
    attn.op = Op::kAttnCore;
    attn.inputs = {a};
    attn.label = label + ".attn";
    attn.attn_heads = block->heads();
    attn.output = g.add_value(io, label + ".attn");
    g.nodes.push_back(std::move(attn));
    a = g.nodes.back().output;
    a = linear_node(g, block->proj(), a, label + ".proj");
    Node add1;
    add1.op = Op::kAdd;
    add1.inputs = {cur, a};
    add1.label = label + ".res1";
    add1.output = g.add_value(io, label + ".res1");
    g.nodes.push_back(std::move(add1));
    const ValueId x2 = g.nodes.back().output;
    ValueId b = layernorm_node(g, block->ln2(), x2, label + ".ln2");
    b = linear_node(g, block->fc1(), b, label + ".fc1");
    Node gelu;
    gelu.op = Op::kGelu;
    gelu.inputs = {b};
    gelu.label = label + ".gelu";
    gelu.output = g.add_value(g.value(b).shape, label + ".gelu");
    g.nodes.push_back(std::move(gelu));
    b = g.nodes.back().output;
    b = linear_node(g, block->fc2(), b, label + ".fc2");
    Node add2;
    add2.op = Op::kAdd;
    add2.inputs = {x2, b};
    add2.label = label + ".res2";
    add2.output = g.add_value(io, label + ".res2");
    g.nodes.push_back(std::move(add2));
    // The trailing ActQuant, as everywhere: an identity placeholder that
    // eliminate_identities drops.
    Node id;
    id.op = Op::kIdentity;
    id.inputs = {g.nodes.back().output};
    id.label = label + ".actq";
    id.output = g.add_value(io, label + ".actq");
    g.nodes.push_back(std::move(id));
    return g.nodes.back().output;
  }

  if (dynamic_cast<models::SeqMeanPool*>(&child) != nullptr) {
    CQ_CHECK_MSG(in.rank() == 2,
                 "tracer: seq_mean " << label << " on " << in.str());
    Node n;
    n.op = Op::kSeqMean;
    n.inputs = {cur};
    n.label = label;
    n.output = g.add_value(Shape{in.dim(1)}, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* block = dynamic_cast<models::BasicBlock*>(&child)) {
    const ValueId main_out =
        trace_sequential(g, block->main_path(), cur, label + ".main.");
    ValueId skip_out = cur;  // identity skip
    if (block->shortcut_path() != nullptr)
      skip_out = trace_sequential(g, *block->shortcut_path(), cur,
                                  label + ".shortcut.");
    CQ_CHECK(g.value(main_out).shape == g.value(skip_out).shape);
    Node n;
    n.op = Op::kAdd;
    n.inputs = {main_out, skip_out};
    n.label = label;
    n.add_relu = true;
    n.output = g.add_value(g.value(main_out).shape, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* block = dynamic_cast<models::InvertedResidual*>(&child)) {
    const ValueId body_out =
        trace_sequential(g, block->body(), cur, label + ".body.");
    if (!block->uses_residual()) return body_out;
    CQ_CHECK(g.value(body_out).shape == g.value(cur).shape);
    Node n;
    n.op = Op::kAdd;
    n.inputs = {body_out, cur};
    n.label = label;
    n.add_relu = false;
    n.output = g.add_value(g.value(body_out).shape, label);
    g.nodes.push_back(std::move(n));
    return g.nodes.back().output;
  }

  if (auto* seq = dynamic_cast<nn::Sequential*>(&child))
    return trace_sequential(g, *seq, cur, label + ".");

  CQ_CHECK_MSG(false, "graph tracer: unsupported module '"
                          << child.type_name() << "' at " << label);
}

}  // namespace

Graph trace(nn::Sequential& net, const Shape& sample_shape) {
  Graph g;
  g.input = g.add_value(sample_shape, "input");
  g.output = trace_sequential(g, net, g.input, "");
  CQ_CHECK_MSG(!g.nodes.empty(), "graph tracer: empty network");
  return g;
}

}  // namespace cq::graph
