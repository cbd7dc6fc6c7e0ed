// Graph compiler tests: tracer round-trips, pass-by-pass bitwise
// equivalence against the passes-off plan, a per-node int8 oracle built from
// public kernels only, arena-planner properties, and dead-op elimination.
// The bitwise cases are the compiler's contract: every pass must keep the
// compiled forward EXACTLY equal to its reference — any relaxation here
// silently changes served bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "graph/executor.hpp"
#include "graph/ir.hpp"
#include "graph/passes.hpp"
#include "graph/plan.hpp"
#include "graph/tracer.hpp"
#include "models/encoder.hpp"
#include "models/heads.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels/igemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "testutil.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

constexpr std::int64_t kH = 12, kW = 12;

models::Encoder eval_encoder(const std::string& arch, std::uint64_t seed) {
  Rng rng(seed);
  auto enc = models::make_encoder(arch, rng);
  enc.policy->set_full_precision();
  enc.backbone->set_mode(nn::Mode::kEval);
  return enc;
}

void expect_bitwise(const Tensor& got, const Tensor& want) {
  ASSERT_EQ(got.shape(), want.shape());
  const float* g = got.data();
  const float* w = want.data();
  for (std::int64_t i = 0; i < got.numel(); ++i) EXPECT_EQ(g[i], w[i]) << i;
}

TEST(GraphTracer, ResnetRoundTripShapes) {
  for (const char* arch : {"resnet18", "resnet34"}) {
    auto enc = eval_encoder(arch, 3);
    graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
    ASSERT_FALSE(g.nodes.empty()) << arch;
    EXPECT_EQ(g.value(g.input).shape, (Shape{3, kH, kW}));
    EXPECT_EQ(g.value(g.output).shape, (Shape{enc.feature_dim}));
    // Every node output must carry a shape and the dump must render.
    for (const graph::Node& n : g.nodes)
      EXPECT_GT(g.value(n.output).shape.numel(), 0);
    const std::string text = graph::dump(g);
    EXPECT_NE(text.find("conv2d"), std::string::npos);
    EXPECT_NE(text.find("batchnorm"), std::string::npos);
  }
}

TEST(GraphTracer, MlpHeadRoundTrip) {
  Rng rng(11);
  auto head = models::make_projection_head(24, 32, 16, rng);
  head->set_mode(nn::Mode::kEval);
  graph::Graph g = graph::trace(*head, Shape{24});
  EXPECT_EQ(g.value(g.output).shape, (Shape{16}));
  const std::string text = graph::dump(g);
  EXPECT_NE(text.find("linear"), std::string::npos);
  EXPECT_NE(text.find("relu"), std::string::npos);
}

TEST(GraphPasses, DefaultPipelineRemovesFoldableOps) {
  auto enc = eval_encoder("resnet18", 5);
  graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
  std::size_t bn_before = 0;
  for (const graph::Node& n : g.nodes)
    bn_before += n.op == graph::Op::kBatchNorm ? 1 : 0;
  ASSERT_GT(bn_before, 0u);
  graph::Graph g8 = g;
  const auto log = graph::run_default_passes(g, graph::Precision::kF32);
  ASSERT_FALSE(log.empty());
  for (const graph::Node& n : g.nodes) {
    EXPECT_NE(n.op, graph::Op::kBatchNorm);
    EXPECT_NE(n.op, graph::Op::kIdentity);
  }
  // The int8 plan also folds every ReLU and residual Add into its convs:
  // stem conv, 8 blocks x 2 convs, 3 shortcut convs, gap.
  graph::run_default_passes(g8, graph::Precision::kInt8);
  EXPECT_EQ(g8.nodes.size(), 21u);
  for (const graph::Node& n : g8.nodes) {
    EXPECT_NE(n.op, graph::Op::kRelu) << n.label;
    EXPECT_NE(n.op, graph::Op::kAdd) << n.label;
  }
  const std::string text = graph::dump(g8);
  EXPECT_NE(text.find(" int8 +relu"), std::string::npos) << text;
  EXPECT_NE(text.find(" +res %"), std::string::npos) << text;
}

// The anchor is the passes-off plan: the traced IR after only the passes a
// plan cannot run without (identities dropped, BN folded) plus lower_int8
// for int8 plans. Every later pass (epilogue fusion, DCE) must keep the
// forward bitwise equal to it at every batch width, and so must
// graph::compile's full pipeline.
void expect_passes_keep_bits(nn::Sequential& net, const Shape& sample,
                             graph::Precision precision,
                             std::int64_t max_batch) {
  graph::Graph g = graph::trace(net, sample);
  graph::eliminate_identities(g);
  graph::fold_batchnorm(g);
  if (precision == graph::Precision::kInt8) graph::lower_int8(g);

  Rng rng(23);
  std::vector<Tensor> batches, want;
  graph::CompiledModel reference{graph::Graph(g), max_batch};
  for (std::int64_t n = 1; n <= max_batch; ++n) {
    std::vector<std::int64_t> dims{n};
    for (std::size_t d = 0; d < sample.rank(); ++d)
      dims.push_back(sample.dim(static_cast<std::int64_t>(d)));
    batches.push_back(
        Tensor::uniform(Shape{std::move(dims)}, rng, -1.0f, 1.0f));
    want.push_back(reference.forward(batches.back()));  // copy: arena reused
  }
  const auto check = [&](graph::CompiledModel& model, const char* stage) {
    SCOPED_TRACE(stage);
    for (std::size_t i = 0; i < batches.size(); ++i) {
      SCOPED_TRACE(i + 1);
      expect_bitwise(model.forward(batches[i]), want[i]);
    }
  };
  const auto check_stage = [&](const char* stage) {
    graph::CompiledModel model{graph::Graph(g), max_batch};
    check(model, stage);
  };
  // For int8 this stage is the fused pipeline itself: ReLU/ReLU6 and the
  // residual Adds move into the convs' igemm epilogues, which then write
  // NCHW and hand each image's max to the next conv.
  const bool has_conv =
      std::any_of(g.nodes.begin(), g.nodes.end(), [](const graph::Node& n) {
        return n.op == graph::Op::kConv2d;
      });
  const std::size_t fused = graph::fuse_epilogues(g);
  if (has_conv) {
    EXPECT_GT(fused, 0u);
  }
  check_stage("+fuse_epilogues");
  graph::eliminate_dead_ops(g);
  check_stage("+eliminate_dead_ops");
  auto full = graph::compile(
      net, sample, graph::CompileOptions{max_batch, precision, true});
  check(full, "graph::compile");
}

// mobilenetv2 adds ReLU6 epilogues and grouped fp32 convs.
TEST(GraphPasses, PassByPassBitwiseFp32) {
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    SCOPED_TRACE(arch);
    auto enc = eval_encoder(arch, 7);
    expect_passes_keep_bits(*enc.backbone, Shape{3, kH, kW},
                            graph::Precision::kF32, /*max_batch=*/4);
  }
}

// mobilenetv2 adds grouped and depthwise int8 convs and unfused ReLU6 nodes;
// the ViT's int8 Linears take rank-2 [seq, dim] token inputs.
TEST(GraphPasses, PassByPassBitwiseInt8) {
  for (const char* arch : {"resnet18", "mobilenetv2", "vit"}) {
    SCOPED_TRACE(arch);
    auto enc = eval_encoder(arch, 13);
    const std::int64_t side = std::string(arch) == "vit" ? 16 : kH;
    expect_passes_keep_bits(*enc.backbone, Shape{3, side, side},
                            graph::Precision::kInt8, /*max_batch=*/5);
  }
}

// Compiled plans stay close to the training modules' eval forward: fp32
// differs only by BN folding's rounding, int8 by quantization error.
TEST(GraphExecutor, CompiledMatchesEvalForwardWithinTolerance) {
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    for (auto precision : {graph::Precision::kF32, graph::Precision::kInt8}) {
      const bool int8 = precision == graph::Precision::kInt8;
      SCOPED_TRACE(std::string(arch) + (int8 ? " int8" : " fp32"));
      auto enc = eval_encoder(arch, 9);
      auto model = graph::compile(*enc.backbone, Shape{3, kH, kW},
                                  graph::CompileOptions{3, precision, true});
      Rng rng(31);
      const Tensor x = Tensor::uniform(Shape{3, 3, kH, kW}, rng, -1.0f, 1.0f);
      const Tensor want = enc.backbone->forward(x);
      const Tensor& got = model.forward(x);
      ASSERT_EQ(got.shape(), want.shape());
      float scale = 1e-6f;
      for (std::int64_t i = 0; i < want.numel(); ++i)
        scale = std::max(scale, std::fabs(want[i]));
      const float tol = (int8 ? 0.25f : 1e-3f) * scale;
      for (std::int64_t i = 0; i < want.numel(); ++i)
        EXPECT_NEAR(got[i], want[i], tol) << i;
    }
  }
}

// ---- Per-node int8 oracle ---------------------------------------------------
//
// A test-local two-pass int8 lowering built from public kernels only: each
// sample's scale from kernels::minmax, its fp32 columns from im2col_batched,
// quantized as igemm::pack_b_quantized packs them, one igemm::gemm per group
// against per-channel symmetric weights in im2col's (c, kh, kw) k order,
// then a scatter to NCHW. The plan runs a different lowering (channel-quad
// bytes, reordered weights, pack_b_conv_c4), but integer sums are exact, so
// the two must agree bitwise.

float oracle_sample_scale(const float* x, std::int64_t n) {
  float lo, hi;
  kernels::minmax(x, n, &lo, &hi);
  return std::max(std::max(std::fabs(lo), std::fabs(hi)) / 127.0f, 1e-12f);
}

struct OracleWeights {
  std::vector<std::int8_t> q;       // [rows, cols] symmetric int8 weights
  std::vector<std::int8_t> packed;  // igemm packed A, groups side by side
  std::vector<std::int32_t> rowsum;
  std::vector<float> scales;
  std::int64_t group_bytes = 0;
};

OracleWeights oracle_weights(const Tensor& w, std::int64_t groups) {
  const std::int64_t rows = w.dim(0), cols = w.dim(1), rows_g = rows / groups;
  OracleWeights o;
  o.scales.resize(static_cast<std::size_t>(rows));
  o.rowsum.resize(static_cast<std::size_t>(rows));
  std::vector<std::int8_t>& q = o.q;
  q.resize(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r) {
    float max_abs = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c)
      max_abs = std::max(max_abs, std::fabs(w.at(r, c)));
    const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
    const float inv = 1.0f / scale;
    o.scales[static_cast<std::size_t>(r)] = scale;
    for (std::int64_t c = 0; c < cols; ++c)
      q[static_cast<std::size_t>(r * cols + c)] = static_cast<std::int8_t>(
          std::clamp<long>(std::lround(w.at(r, c) * inv), -127L, 127L));
  }
  o.group_bytes = igemm::packed_a_bytes(rows_g, cols);
  o.packed.resize(static_cast<std::size_t>(groups * o.group_bytes));
  for (std::int64_t grp = 0; grp < groups; ++grp)
    igemm::pack_a_s8(q.data() + grp * rows_g * cols, rows_g, cols,
                     o.packed.data() + grp * o.group_bytes,
                     o.rowsum.data() + grp * rows_g);
  return o;
}

Tensor oracle_conv(const Tensor& x, const nn::Conv2dSpec& spec,
                   const Tensor& w, std::vector<float> bias = {}) {
  const std::int64_t n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  ConvGeometry g;
  g.in_channels = spec.in_channels / spec.groups;
  g.in_h = in_h;
  g.in_w = in_w;
  g.kernel_h = g.kernel_w = spec.kernel;
  g.stride = spec.stride;
  g.pad = spec.pad;
  const std::int64_t spatial = g.out_h() * g.out_w(), cols = n * spatial;
  const std::int64_t krows = g.col_rows();
  const std::int64_t cout_g = spec.out_channels / spec.groups;
  const std::int64_t sample = spec.in_channels * in_h * in_w;
  const OracleWeights ow = oracle_weights(w, spec.groups);
  if (bias.empty())
    bias.assign(static_cast<std::size_t>(spec.out_channels), 0.0f);
  std::vector<float> col_scale(static_cast<std::size_t>(cols));
  std::vector<float> col_inv(static_cast<std::size_t>(cols));
  for (std::int64_t img = 0; img < n; ++img) {
    const float s = oracle_sample_scale(x.data() + img * sample, sample);
    std::fill_n(col_scale.begin() + img * spatial, spatial, s);
    std::fill_n(col_inv.begin() + img * spatial, spatial, 1.0f / s);
  }
  std::vector<float> colbuf(static_cast<std::size_t>(krows * cols));
  std::vector<std::uint8_t> bp(
      static_cast<std::size_t>(igemm::packed_b_bytes(krows, cols)));
  std::vector<float> gout(static_cast<std::size_t>(cout_g * cols));
  Tensor y(Shape{n, spec.out_channels, g.out_h(), g.out_w()});
  for (std::int64_t grp = 0; grp < spec.groups; ++grp) {
    im2col_batched(x.data() + grp * g.in_channels * in_h * in_w, n, sample, g,
                   colbuf.data(), cols);
    igemm::pack_b_quantized(colbuf.data(), /*rs=*/cols, /*cs=*/1, krows, cols,
                            col_inv.data(), bp.data());
    igemm::Epilogue ep;
    ep.row_scale = ow.scales.data() + grp * cout_g;
    ep.col_scale = col_scale.data();
    ep.bias = bias.data() + grp * cout_g;
    igemm::gemm(cout_g, cols, krows, ow.packed.data() + grp * ow.group_bytes,
                ow.rowsum.data() + grp * cout_g, bp.data(), gout.data(),
                /*ldc=*/cols, ep);
    for (std::int64_t oc = 0; oc < cout_g; ++oc)
      for (std::int64_t img = 0; img < n; ++img)
        std::copy_n(gout.data() + oc * cols + img * spatial, spatial,
                    y.data() + (img * spec.out_channels + grp * cout_g + oc) *
                                   spatial);
  }
  return y;
}

Tensor oracle_linear(const Tensor& x, const Tensor& w,
                     const std::vector<float>& bias) {
  const std::int64_t n = x.dim(0), in = w.dim(1), out = w.dim(0);
  const OracleWeights ow = oracle_weights(w, 1);
  std::vector<float> scale(static_cast<std::size_t>(n));
  std::vector<float> inv(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const float* row = x.data() + static_cast<std::int64_t>(i) * in;
    scale[i] = oracle_sample_scale(row, in);
    inv[i] = 1.0f / scale[i];
  }
  std::vector<std::uint8_t> bp(
      static_cast<std::size_t>(igemm::packed_b_bytes(in, n)));
  igemm::pack_b_quantized(x.data(), /*rs=*/1, /*cs=*/in, in, n, inv.data(),
                          bp.data());
  igemm::Epilogue ep;
  ep.row_scale = ow.scales.data();
  ep.col_scale = scale.data();
  ep.bias = bias.data();
  std::vector<float> gout(static_cast<std::size_t>(out * n));
  igemm::gemm(out, n, in, ow.packed.data(), ow.rowsum.data(), bp.data(),
              gout.data(), /*ldc=*/n, ep);
  Tensor y(Shape{n, out});
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t r = 0; r < out; ++r)
      y.at(i, r) = gout[static_cast<std::size_t>(r * n + i)];
  return y;
}

TEST(GraphExecutor, Int8ConvNodeMatchesTwoPassOracle) {
  constexpr std::int64_t kMaxBatch = 5, kSide = 7;
  for (const bool depthwise : {false, true})
    for (const std::int64_t stride : {1, 2})
      for (const std::int64_t pad : {0, 1}) {
        nn::Conv2dSpec spec;
        spec.in_channels = depthwise ? 6 : 5;
        spec.out_channels = depthwise ? 6 : 7;
        spec.groups = depthwise ? 6 : 1;
        spec.kernel = 3;
        spec.stride = stride;
        spec.pad = pad;
        SCOPED_TRACE(depthwise ? "depthwise" : "dense");
        SCOPED_TRACE(testing::Message() << "stride" << stride << " pad" << pad);
        Rng rng(101 + stride * 10 + pad);
        nn::Sequential net;
        auto& conv = net.emplace<nn::Conv2d>(spec, rng, "c");
        net.set_mode(nn::Mode::kEval);
        auto model = graph::compile(
            net, Shape{spec.in_channels, kSide, kSide},
            graph::CompileOptions{kMaxBatch, graph::Precision::kInt8, true});
        for (std::int64_t n = 1; n <= kMaxBatch; ++n) {
          SCOPED_TRACE(n);
          const Tensor x = Tensor::uniform(
              Shape{n, spec.in_channels, kSide, kSide}, rng, -1.0f, 1.0f);
          expect_bitwise(model.forward(x),
                         oracle_conv(x, spec, conv.weight().value));
        }
      }
}

// A conv's own bias (spec.bias) reaches the plan: the tracer copies it, BN
// folding would start from it, and the fused int8 epilogue adds it.
TEST(GraphTracer, ConvBiasKept) {
  constexpr std::int64_t kBatch = 3, kSide = 6;
  nn::Conv2dSpec spec;
  spec.in_channels = 3;
  spec.out_channels = 5;
  spec.bias = true;
  Rng rng(107);
  nn::Sequential net;
  auto& conv = net.emplace<nn::Conv2d>(spec, rng, "c");
  ASSERT_NE(conv.bias(), nullptr);
  conv.bias()->value = Tensor::uniform(Shape{5}, rng, -0.5f, 0.5f);
  net.set_mode(nn::Mode::kEval);
  const std::vector<float> bias(conv.bias()->value.data(),
                                conv.bias()->value.data() + 5);
  const Tensor x =
      Tensor::uniform(Shape{kBatch, 3, kSide, kSide}, rng, -1.0f, 1.0f);

  auto fp32 = graph::compile(
      net, Shape{3, kSide, kSide},
      graph::CompileOptions{kBatch, graph::Precision::kF32, true});
  EXPECT_EQ(fp32.graph().nodes[0].bias, bias);
  const Tensor want = net.forward(x);
  const Tensor& got = fp32.forward(x);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < want.numel(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-4f) << i;

  auto int8 = graph::compile(
      net, Shape{3, kSide, kSide},
      graph::CompileOptions{kBatch, graph::Precision::kInt8, true});
  expect_bitwise(int8.forward(x),
                 oracle_conv(x, spec, conv.weight().value, bias));
}

// ---- fp32 conv against direct convolution ---------------------------------
//
// Conv2d::forward and the plan's fp32 conv node run one shared lowering
// (nn::detail::conv2d_forward), so neither is an oracle for the other. Both
// are checked against test::naive_conv, which shares no code with im2col or
// gemm. A trailing ReLU / ReLU6 fuses into the plan's conv epilogue; the
// eager side runs it as its own module.
TEST(GraphExecutor, Fp32ConvMatchesDirectConvolution) {
  constexpr std::int64_t kMaxBatch = 3, kInH = 7, kInW = 6;
  struct Grouping {
    const char* name;
    std::int64_t cin, cout, groups;
  };
  std::uint64_t seed = 200;
  for (const Grouping gr : {Grouping{"dense", 3, 4, 1},
                            Grouping{"grouped", 4, 6, 2},
                            Grouping{"depthwise", 4, 4, 4}})
    for (const std::int64_t k : {1, 3, 5})
      for (const std::int64_t stride : {1, 2})
        for (const std::int64_t pad : {0, 1, 2})
          for (const bool bias : {false, true})
            for (const float cap : {-1.0f, 0.0f, 6.0f}) {  // none, ReLU, ReLU6
              SCOPED_TRACE(testing::Message()
                           << gr.name << " k" << k << " stride" << stride
                           << " pad" << pad << " bias" << bias << " cap"
                           << cap);
              const nn::Conv2dSpec spec{.in_channels = gr.cin,
                                        .out_channels = gr.cout,
                                        .kernel = k,
                                        .stride = stride,
                                        .pad = pad,
                                        .groups = gr.groups,
                                        .bias = bias};
              Rng rng(++seed);
              nn::Sequential net;
              auto& conv = net.emplace<nn::Conv2d>(spec, rng, "c");
              if (bias)
                conv.bias()->value =
                    Tensor::uniform(Shape{gr.cout}, rng, -1.0f, 1.0f);
              if (cap >= 0.0f) net.emplace<nn::ReLU>(cap);
              net.set_mode(nn::Mode::kEval);
              auto model = graph::compile(
                  net, Shape{gr.cin, kInH, kInW},
                  graph::CompileOptions{kMaxBatch, graph::Precision::kF32,
                                        true});
              ASSERT_EQ(model.graph().nodes.size(), 1u);  // the ReLU fused
              for (const std::int64_t n : {std::int64_t{1}, kMaxBatch}) {
                SCOPED_TRACE(n);
                // Wide inputs so some outputs pass ReLU6's cap.
                const Tensor x = Tensor::uniform(
                    Shape{n, gr.cin, kInH, kInW}, rng, -4.0f, 4.0f);
                std::vector<float> want = test::naive_conv(
                    spec, x.data(), n, kInH, kInW, conv.weight().value.data(),
                    bias ? conv.bias()->value.data() : nullptr);
                for (float& v : want) {
                  if (cap >= 0.0f) v = std::max(v, 0.0f);
                  if (cap > 0.0f) v = std::min(v, cap);
                }
                const Tensor eager = net.forward(x);
                const Tensor& plan = model.forward(x);
                ASSERT_EQ(eager.numel(),
                          static_cast<std::int64_t>(want.size()));
                ASSERT_EQ(plan.shape(), eager.shape());
                for (std::size_t i = 0; i < want.size(); ++i) {
                  const float tol = 1e-4f * (1.0f + std::fabs(want[i]));
                  const auto j = static_cast<std::int64_t>(i);
                  ASSERT_NEAR(eager[j], want[i], tol) << "eager @" << i;
                  ASSERT_NEAR(plan[j], want[i], tol) << "plan @" << i;
                }
              }
            }
}

TEST(GraphExecutor, Int8LinearNodeMatchesTwoPassOracle) {
  constexpr std::int64_t kMaxBatch = 5, kIn = 19, kOut = 11;
  Rng rng(103);
  nn::Sequential net;
  auto& fc = net.emplace<nn::Linear>(kIn, kOut, rng, true, "fc");
  fc.bias()->value = Tensor::uniform(Shape{kOut}, rng, -0.5f, 0.5f);
  net.set_mode(nn::Mode::kEval);
  const std::vector<float> bias(fc.bias()->value.data(),
                                fc.bias()->value.data() + kOut);
  auto model = graph::compile(
      net, Shape{kIn},
      graph::CompileOptions{kMaxBatch, graph::Precision::kInt8, true});
  for (std::int64_t n = 1; n <= kMaxBatch; ++n) {
    SCOPED_TRACE(n);
    const Tensor x = Tensor::uniform(Shape{n, kIn}, rng, -1.0f, 1.0f);
    expect_bitwise(model.forward(x),
                   oracle_linear(x, fc.weight().value, bias));
  }
}

// The token Linears of the ViT from integer arithmetic alone: each row's
// scale from a plain max-|x| loop, its values through
// igemm::detail::quantize_value, an int32 dot against the int8 weights, and
// igemm::detail::epilogue_value. No packing and no igemm::gemm, so the
// plan's pack and store are checked against code they do not share.
TEST(GraphExecutor, Int8TokenLinearMatchesIntegerOracle) {
  constexpr std::int64_t kSeq = 16, kMaxBatch = 9;
  for (const std::int64_t in : {32, 64})
    for (const std::int64_t out : {32, 64, 96}) {
      SCOPED_TRACE(testing::Message() << "in " << in << " out " << out);
      Rng rng(static_cast<std::uint64_t>(107 + in + out));
      nn::Sequential net;
      auto& fc = net.emplace<nn::Linear>(in, out, rng, true, "fc");
      fc.bias()->value = Tensor::uniform(Shape{out}, rng, -0.5f, 0.5f);
      net.set_mode(nn::Mode::kEval);
      const OracleWeights ow = oracle_weights(fc.weight().value, 1);
      const float* bias = fc.bias()->value.data();
      auto model = graph::compile(
          net, Shape{kSeq, in},
          graph::CompileOptions{kMaxBatch, graph::Precision::kInt8, true});
      for (std::int64_t n = 1; n <= kMaxBatch; ++n) {
        SCOPED_TRACE(n);
        const Tensor x = Tensor::uniform(Shape{n, kSeq, in}, rng, -2.0f, 2.0f);
        Tensor want(Shape{n, kSeq, out});
        for (std::int64_t s = 0; s < n * kSeq; ++s) {
          const float* row = x.data() + s * in;
          float max_abs = 0.0f;
          for (std::int64_t c = 0; c < in; ++c)
            max_abs = std::max(max_abs, std::fabs(row[c]));
          const float scale = std::max(max_abs / 127.0f, 1e-12f);
          const float inv = 1.0f / scale;
          for (std::int64_t r = 0; r < out; ++r) {
            std::int32_t acc = 0;
            for (std::int64_t c = 0; c < in; ++c)
              acc += std::int32_t{ow.q[static_cast<std::size_t>(r * in + c)]} *
                     igemm::detail::quantize_value(row[c], inv);
            want.data()[s * out + r] = igemm::detail::epilogue_value(
                acc, ow.scales[static_cast<std::size_t>(r)], scale, bias[r]);
          }
        }
        expect_bitwise(model.forward(x), want);
      }
    }
}

// ---- ReLU: one kernel for both precisions ----------------------------------
//
// Both precisions run ReLU, ReLU6 and the residual add+ReLU through
// kernels::relu / relu_cap. Their bits must equal a plain clipping loop on
// every special class, on the detected backend, on the portable twin and
// through compiled fp32 plans.

float clipping_loop(float x, float cap) {
  float v = x > 0.0f ? x : 0.0f;
  if (cap > 0.0f && v > cap) v = cap;
  return v;
}

std::vector<float> relu_special_values() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float den = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  const float below_cap = std::nextafter(6.0f, 0.0f);
  const float above_cap = std::nextafter(6.0f, inf);
  std::vector<float> v = {0.0f, -0.0f, nan, -nan, inf, -inf, den, -den};
  v.insert(v.end(), {fmin - den, -(fmin - den), fmin, -fmin, 1e30f, -1e30f});
  v.insert(v.end(), {6.0f, -6.0f, below_cap, above_cap, 0.5f, -0.5f});
  // Odd length past two AVX-512 vectors: every class lands in a vector body
  // somewhere and the last few in the scalar tail.
  const std::size_t base = v.size();
  for (std::size_t i = 0; v.size() < 37; ++i) v.push_back(v[i % base]);
  std::reverse(v.begin() + static_cast<std::ptrdiff_t>(base), v.end());
  return v;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << "element " << i << ": got " << got[i] << ", want " << want[i];
}

TEST(GraphExecutor, ReluKernelsMatchClippingLoopBitwise) {
  const std::vector<float> x = relu_special_values();
  const auto n = static_cast<std::int64_t>(x.size());
  for (const float cap : {0.0f, 6.0f}) {
    SCOPED_TRACE(cap);
    std::vector<float> want(x.size()), fast(x.size()), portable(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      want[i] = clipping_loop(x[i], cap);
    if (cap > 0.0f) {
      kernels::relu_cap(x.data(), fast.data(), n, cap);
      kernels::scalar::relu_cap(x.data(), portable.data(), n, cap);
    } else {
      kernels::relu(x.data(), fast.data(), n);
      kernels::scalar::relu(x.data(), portable.data(), n);
    }
    expect_same_bits(fast, want);
    expect_same_bits(portable, want);

    // The compiled fp32 plan of a lone ReLU / ReLU6.
    nn::Sequential net;
    net.emplace<nn::ReLU>(cap);
    net.set_mode(nn::Mode::kEval);
    auto model = graph::compile(
        net, Shape{n}, graph::CompileOptions{1, graph::Precision::kF32, true});
    Tensor in(Shape{1, n});
    std::copy(x.begin(), x.end(), in.data());
    const Tensor& out = model.forward(in);
    expect_same_bits(std::vector<float>(out.data(), out.data() + n), want);
  }
}

TEST(GraphExecutor, AddReluMatchesClippingLoopBitwise) {
  // A hand-built one-node graph: y = relu(x + x), the residual join.
  const std::vector<float> x = relu_special_values();
  const auto n = static_cast<std::int64_t>(x.size());
  graph::Graph g;
  g.input = g.add_value(Shape{n}, "in");
  graph::Node add;
  add.op = graph::Op::kAdd;
  add.inputs = {g.input, g.input};
  add.add_relu = true;
  add.label = "join";
  add.output = g.add_value(Shape{n}, "join");
  g.nodes.push_back(add);
  g.output = add.output;
  graph::CompiledModel model{std::move(g), 1};
  Tensor in(Shape{1, n});
  std::copy(x.begin(), x.end(), in.data());
  const Tensor& out = model.forward(in);
  std::vector<float> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    want[i] = clipping_loop(x[i] + x[i], 0.0f);
  expect_same_bits(std::vector<float>(out.data(), out.data() + n), want);
}

TEST(GraphExecutor, CompiledBatchedEqualsSerial) {
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    for (auto precision : {graph::Precision::kF32, graph::Precision::kInt8}) {
      SCOPED_TRACE(std::string(arch) +
                   (precision == graph::Precision::kF32 ? " fp32" : " int8"));
      auto enc = eval_encoder(arch, 17);
      auto model = graph::compile(*enc.backbone, Shape{3, kH, kW},
                                  graph::CompileOptions{4, precision, true});
      Rng rng(41);
      const Tensor batch =
          Tensor::uniform(Shape{4, 3, kH, kW}, rng, -1.0f, 1.0f);
      const Tensor batched = model.forward(batch);  // copy: arena reused below
      const std::int64_t per = 3 * kH * kW;
      for (std::int64_t i = 0; i < 4; ++i) {
        Tensor single(Shape{1, 3, kH, kW});
        std::copy(batch.data() + i * per, batch.data() + (i + 1) * per,
                  single.data());
        const Tensor& feats = model.forward(single);
        for (std::int64_t c = 0; c < feats.dim(1); ++c)
          EXPECT_EQ(batched.at(i, c), feats.at(0, c)) << i << "," << c;
      }
    }
  }
}

// A non-finite sample must not perturb its batch-mates. Each int8 conv's
// epilogue hands the next conv one max per image; a NaN or Inf that leaked
// across images would shift a finite sample's scale. Every finite row of a
// mixed batch equals that sample's batch-1 forward bitwise.
TEST(GraphExecutor, NonFiniteSampleIsolatedFromBatchMates) {
  constexpr std::int64_t kBatch = 6, kNan = 1, kInf = 4;
  const std::int64_t per = 3 * kH * kW;
  for (const char* arch : {"resnet18", "mobilenetv2"}) {
    SCOPED_TRACE(arch);
    auto enc = eval_encoder(arch, 53);
    auto model = graph::compile(
        *enc.backbone, Shape{3, kH, kW},
        graph::CompileOptions{kBatch, graph::Precision::kInt8, true});
    Rng rng(59);
    Tensor batch = Tensor::uniform(Shape{kBatch, 3, kH, kW}, rng, -1.0f, 1.0f);
    std::fill_n(batch.data() + kNan * per, per,
                std::numeric_limits<float>::quiet_NaN());
    std::fill_n(batch.data() + kInf * per, per,
                std::numeric_limits<float>::infinity());
    const Tensor mixed = model.forward(batch);  // copy: arena reused below
    for (std::int64_t i = 0; i < kBatch; ++i) {
      if (i == kNan || i == kInf) continue;
      Tensor single(Shape{1, 3, kH, kW});
      std::copy_n(batch.data() + i * per, per, single.data());
      const Tensor& feats = model.forward(single);
      for (std::int64_t c = 0; c < feats.dim(1); ++c)
        ASSERT_EQ(std::bit_cast<std::uint32_t>(mixed.at(i, c)),
                  std::bit_cast<std::uint32_t>(feats.at(0, c)))
            << "sample " << i << " feature " << c;
    }
  }
}

// Linear -> ReLU -> Linear: the fused-epilogue plan equals the module
// tree's eval forward (gemm kNT + bias, then a separate kernels::relu).
TEST(GraphExecutor, MlpHeadCompiledMatchesEager) {
  Rng rng(19);
  auto head = models::make_projection_head(24, 32, 16, rng);
  head->set_mode(nn::Mode::kEval);
  auto model =
      graph::compile(*head, Shape{24},
                     graph::CompileOptions{4, graph::Precision::kF32, true});
  const Tensor batch = Tensor::uniform(Shape{4, 24}, rng, -1.0f, 1.0f);
  expect_bitwise(model.forward(batch), head->forward(batch));
}

TEST(GraphExecutor, RejectsUnprocessedGraph) {
  auto enc = eval_encoder("resnet18", 21);
  graph::Graph g = graph::trace(*enc.backbone, Shape{3, kH, kW});
  EXPECT_THROW(graph::CompiledModel(std::move(g), 1), CheckError);
}

TEST(GraphPasses, DeadOpEliminationDropsUnusedBranch) {
  graph::Graph g;
  g.input = g.add_value(Shape{8}, "in");
  graph::Node live;
  live.op = graph::Op::kRelu;
  live.inputs = {g.input};
  live.label = "live";
  live.output = g.add_value(Shape{8}, "live");
  g.nodes.push_back(live);
  graph::Node dead;
  dead.op = graph::Op::kRelu;
  dead.inputs = {g.input};
  dead.label = "dead-branch";
  dead.output = g.add_value(Shape{8}, "dead");
  g.nodes.push_back(dead);
  g.output = g.nodes[0].output;

  EXPECT_EQ(graph::eliminate_dead_ops(g), 1u);
  ASSERT_EQ(g.nodes.size(), 1u);
  EXPECT_EQ(g.nodes[0].label, "live");
  EXPECT_EQ(g.output, g.nodes[0].output);
}

// Planner property: whatever the lifetimes, two buffers alive at the same
// step must never overlap in the arena, and every offset stays aligned.
TEST(GraphPlanner, RandomizedLifetimesNeverOverlap) {
  Rng rng(47);
  for (int trial = 0; trial < 60; ++trial) {
    const int count = rng.uniform_int(2, 40);
    std::vector<graph::PlannedBuffer> buffers;
    for (int i = 0; i < count; ++i) {
      graph::PlannedBuffer b;
      b.bytes = rng.uniform_int(1, 5000);
      b.first = rng.uniform_int(0, 24);
      b.last = b.first + rng.uniform_int(0, 10);
      buffers.push_back(b);
    }
    const std::int64_t peak =
        graph::assign_offsets(buffers, graph::kArenaAlign);
    for (const auto& b : buffers) {
      EXPECT_GE(b.offset, 0);
      EXPECT_EQ(b.offset % graph::kArenaAlign, 0);
      EXPECT_LE(b.offset + b.bytes, peak);
    }
    for (std::size_t i = 0; i < buffers.size(); ++i)
      for (std::size_t j = i + 1; j < buffers.size(); ++j) {
        const auto& a = buffers[i];
        const auto& b = buffers[j];
        if (a.last < b.first || a.first > b.last) continue;  // disjoint lives
        const bool disjoint_mem = a.offset + a.bytes <= b.offset ||
                                  b.offset + b.bytes <= a.offset;
        EXPECT_TRUE(disjoint_mem)
            << "trial " << trial << ": buffers " << i << " and " << j
            << " overlap in time and memory";
      }
  }
}

// Acceptance gate: on ResNet-18 the planned arena must come in at or under
// 60% of the naive one-allocation-per-buffer footprint, in both precisions.
TEST(GraphPlanner, ArenaWellUnderNaiveOnResnet18) {
  auto enc = eval_encoder("resnet18", 29);
  for (auto precision : {graph::Precision::kF32, graph::Precision::kInt8}) {
    SCOPED_TRACE(precision == graph::Precision::kF32 ? "fp32" : "int8");
    auto model = graph::compile(*enc.backbone, Shape{3, kH, kW},
                                graph::CompileOptions{4, precision, true});
    const graph::ArenaPlan& plan = model.plan();
    ASSERT_GT(plan.naive_bytes, 0);
    ASSERT_GT(plan.arena_bytes, 0);
    EXPECT_LE(plan.arena_bytes * 100, plan.naive_bytes * 60)
        << "arena " << plan.arena_bytes << " vs naive " << plan.naive_bytes;
  }
}

TEST(GraphPlanner, DumpAnnotatesOffsets) {
  auto enc = eval_encoder("resnet18", 33);
  auto model = graph::compile(
      *enc.backbone, Shape{3, kH, kW},
      graph::CompileOptions{2, graph::Precision::kF32, true});
  const std::string text = graph::dump(model.graph(), model.plan());
  EXPECT_NE(text.find("arena "), std::string::npos);
  EXPECT_NE(text.find("@arena+"), std::string::npos);
  EXPECT_NE(text.find("scratch["), std::string::npos);
  EXPECT_NE(text.find("@external"), std::string::npos);
}

}  // namespace
}  // namespace cq
