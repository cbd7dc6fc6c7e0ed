// ViT backbone + its graph lowering: attention-shaped kernel coverage
// (softmax over seq x seq rows with odd tails, batched kNT GEMM at head
// widths), module gradchecks for the new LayerNorm/GELU/VitBlock pieces,
// and the compiled == eager bitwise gates at every batch width and pool
// size — the same contract the conv families pin in test_graph.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "graph/executor.hpp"
#include "graph/passes.hpp"
#include "graph/tracer.hpp"
#include "models/encoder.hpp"
#include "models/vit.hpp"
#include "nn/activations.hpp"
#include "nn/layernorm.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "testutil.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

models::Encoder eval_vit(std::uint64_t seed) {
  Rng rng(seed);
  auto enc = models::make_encoder("vit", rng);
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

constexpr std::int64_t kImg = 16;

// Attention rows are seq x seq — including seq values that leave vector-width
// tails. The SIMD and portable softmax must agree bitwise (the determinism
// contract attention inherits).
TEST(VitKernels, SoftmaxRowsAttentionShapesMatchScalarBitwise) {
  Rng rng(3);
  for (std::int64_t seq : {3, 7, 16, 17, 33}) {
    SCOPED_TRACE(seq);
    Tensor scores = Tensor::uniform(Shape{seq, seq}, rng, -4.0f, 4.0f);
    Tensor a = scores;
    Tensor b = scores;
    kernels::softmax_rows(a.data(), seq, seq);
    kernels::scalar::softmax_rows(b.data(), seq, seq);
    for (std::int64_t i = 0; i < seq * seq; ++i)
      ASSERT_EQ(a.data()[i], b.data()[i]) << i;
    // Rows are probability distributions.
    for (std::int64_t r = 0; r < seq; ++r) {
      double s = 0.0;
      for (std::int64_t c = 0; c < seq; ++c) s += a.data()[r * seq + c];
      EXPECT_NEAR(s, 1.0, 1e-5) << r;
    }
  }
}

// The attention score GEMM (Q K^T) at real head widths, checked against a
// naive double-accumulated reference.
TEST(VitKernels, ScoreGemmKntHeadShapesMatchReference) {
  Rng rng(5);
  const std::int64_t seq = 16;
  for (std::int64_t dh : {32, 48, 64}) {
    SCOPED_TRACE(dh);
    Tensor q = Tensor::uniform(Shape{seq, dh}, rng, -1.0f, 1.0f);
    Tensor k = Tensor::uniform(Shape{seq, dh}, rng, -1.0f, 1.0f);
    Tensor s = Tensor::zeros(Shape{seq, seq});
    gemm::gemm(gemm::Trans::kNT, seq, seq, dh, q.data(), k.data(), s.data(),
               /*accumulate=*/false);
    for (std::int64_t i = 0; i < seq; ++i)
      for (std::int64_t j = 0; j < seq; ++j) {
        double ref = 0.0;
        for (std::int64_t d = 0; d < dh; ++d)
          ref += static_cast<double>(q.at(i, d)) * k.at(j, d);
        EXPECT_NEAR(s.at(i, j), ref, 1e-4 * (1.0 + std::abs(ref)))
            << i << "," << j;
      }
  }
}

TEST(VitModules, LayerNormGradcheck) {
  Rng rng(7);
  nn::LayerNorm ln(12, 1e-5f, "ln");
  ln.set_mode(nn::Mode::kTrain);
  Tensor x = Tensor::uniform(Shape{3, 5, 12}, rng, -2.0f, 2.0f);
  test::check_module_gradients(ln, x, rng);
}

TEST(VitModules, GeluGradcheck) {
  Rng rng(9);
  nn::GELU gelu;
  gelu.set_mode(nn::Mode::kTrain);
  Tensor x = Tensor::uniform(Shape{4, 33}, rng, -3.0f, 3.0f);
  test::check_module_gradients(gelu, x, rng);
}

TEST(VitModules, VitBlockGradcheck) {
  Rng rng(11);
  auto policy = std::make_shared<quant::QuantPolicy>();
  policy->set_full_precision();
  models::VitBlock block(/*dim=*/8, /*heads=*/2, /*mlp_dim=*/16, policy, rng,
                         "blk");
  block.set_mode(nn::Mode::kTrain);
  Tensor x = Tensor::uniform(Shape{2, 4, 8}, rng, -1.0f, 1.0f);
  test::check_module_gradients(block, x, rng);
}

TEST(VitModules, PatchEmbedGradcheck) {
  Rng rng(13);
  auto policy = std::make_shared<quant::QuantPolicy>();
  policy->set_full_precision();
  models::PatchEmbed pe(/*in_channels=*/2, /*image_size=*/8, /*patch=*/4,
                        /*dim=*/6, policy, rng, "patch");
  pe.set_mode(nn::Mode::kTrain);
  Tensor x = Tensor::uniform(Shape{2, 2, 8, 8}, rng, -1.0f, 1.0f);
  test::check_module_gradients(pe, x, rng);
}

// The tracer emits one node per ViT sub-op and the passes reduce them to
// the executor's supported set with every Linear int8-lowered.
TEST(VitGraph, TraceAndLowerRoundTrip) {
  auto enc = eval_vit(17);
  graph::Graph g = graph::trace(*enc.backbone, Shape{3, kImg, kImg});
  const std::string text = graph::dump(g);
  EXPECT_NE(text.find("patch_embed"), std::string::npos);
  EXPECT_NE(text.find("attn_core"), std::string::npos);
  EXPECT_NE(text.find("layernorm"), std::string::npos);
  EXPECT_NE(text.find("gelu"), std::string::npos);
  EXPECT_NE(text.find("seq_mean"), std::string::npos);
  graph::run_default_passes(g, graph::Precision::kInt8);
  std::size_t int8_linears = 0;
  for (const graph::Node& n : g.nodes) {
    EXPECT_NE(n.op, graph::Op::kIdentity) << n.label;
    if (n.op == graph::Op::kLinear) {
      EXPECT_EQ(n.precision, graph::Precision::kInt8) << n.label;
      ++int8_linears;
    }
    // Patchify stays fp32: it is the first layer and not a kLinear node.
    if (n.op == graph::Op::kPatchEmbed) {
      EXPECT_EQ(n.precision, graph::Precision::kF32);
    }
  }
  EXPECT_EQ(int8_linears, 8u);  // 2 blocks x (qkv, proj, fc1, fc2)
}

// The compiled fp32 plan reproduces the eager module tree bit for bit at
// every batch width up to the plan's max.
TEST(VitGraph, CompiledMatchesEagerFp32AcrossWidths) {
  auto enc = eval_vit(19);
  const std::int64_t max_batch = 5;
  auto model =
      graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                     graph::CompileOptions{max_batch,
                                           graph::Precision::kF32, true});
  Rng rng(23);
  for (std::int64_t n = 1; n <= max_batch; ++n) {
    SCOPED_TRACE(n);
    const Tensor x = Tensor::uniform(Shape{n, 3, kImg, kImg}, rng,
                                     -1.0f, 1.0f);
    const Tensor eager = enc.backbone->forward(x);
    expect_bitwise(model.forward(x), eager);
  }
}

// Int8 plan: batch-N equals N batch-1 forwards bitwise (per-sample scales
// must not see the rest of the batch), and stays close to fp32.
TEST(VitGraph, CompiledInt8BatchedEqualsSerial) {
  auto enc = eval_vit(29);
  auto model =
      graph::compile(*enc.backbone, Shape{3, kImg, kImg},
                     graph::CompileOptions{4, graph::Precision::kInt8, true});
  Rng rng(31);
  const Tensor batch = Tensor::uniform(Shape{4, 3, kImg, kImg}, rng,
                                       -1.0f, 1.0f);
  const Tensor batched = model.forward(batch);  // copy: arena reused below
  const std::int64_t per = 3 * kImg * kImg;
  for (std::int64_t i = 0; i < 4; ++i) {
    Tensor single(Shape{1, 3, kImg, kImg});
    std::copy(batch.data() + i * per, batch.data() + (i + 1) * per,
              single.data());
    const Tensor& feats = model.forward(single);
    for (std::int64_t c = 0; c < feats.dim(1); ++c)
      EXPECT_EQ(batched.at(i, c), feats.at(0, c)) << i << "," << c;
  }
}

// End-to-end: the vit arch trains under the SimCLR/CQ runner like the conv
// families — loss stays finite over a couple of tiny epochs.
TEST(VitTraining, SimclrSmokeStaysFinite) {
  auto cfg_data = data::synth_cifar_config();
  Rng drng(cfg_data.seed);
  const auto ds = data::make_synth_dataset(cfg_data, 16, drng);
  Rng rng(43);
  auto enc = models::make_encoder("vit", rng);
  core::PretrainConfig cfg;
  cfg.variant = core::CqVariant::kCqA;
  cfg.precisions = quant::PrecisionSet::range(6, 16);
  cfg.epochs = 1;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;
  cfg.warmup_epochs = 0;
  cfg.proj_hidden = 16;
  cfg.proj_dim = 8;
  core::SimClrCqTrainer trainer(enc, cfg);
  const auto stats = trainer.train(ds);
  EXPECT_FALSE(stats.diverged);
}

// Checkpoint round trip covers the new parameter kinds (pos embeddings,
// LayerNorm gamma/beta) through save_module/load_module.
TEST(VitModules, CheckpointRoundTripBitwise) {
  auto enc = eval_vit(47);
  auto enc2 = eval_vit(48);  // different init
  const std::string path = "test_vit_ckpt.bin";
  models::save_module(path, *enc.backbone);
  models::load_module(path, *enc2.backbone);
  Rng rng(49);
  const Tensor x = Tensor::uniform(Shape{2, 3, kImg, kImg}, rng, -1.0f, 1.0f);
  expect_bitwise(enc2.backbone->forward(x), enc.backbone->forward(x));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cq
