// Model zoo: shapes, quantization wiring, checkpointing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "models/encoder.hpp"
#include "models/heads.hpp"
#include "models/mobilenetv2.hpp"
#include "models/resnet.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

TEST(Encoder, KnownArchList) {
  EXPECT_EQ(models::known_archs().size(), 7u);
  EXPECT_TRUE(models::is_known_arch("resnet18"));
  EXPECT_TRUE(models::is_known_arch("mobilenetv2"));
  EXPECT_TRUE(models::is_known_arch("vit"));
  EXPECT_FALSE(models::is_known_arch("vgg16"));
}

TEST(Encoder, UnknownArchThrows) {
  Rng rng(1);
  EXPECT_THROW(models::make_encoder("vgg16", rng), CheckError);
}

TEST(Encoder, AllArchsProduceFeatureVectors) {
  Rng rng(2);
  for (const auto& arch : models::known_archs()) {
    Rng arch_rng(rng.next_u64());
    auto enc = models::make_encoder(arch, arch_rng);
    enc.backbone->set_mode(nn::Mode::kEval);
    Tensor x = Tensor::uniform(Shape{2, 3, 16, 16}, arch_rng);
    Tensor f = enc.forward(x);
    EXPECT_EQ(f.shape(), Shape({2, enc.feature_dim})) << arch;
    EXPECT_GT(enc.feature_dim, 0) << arch;
    // Finite output.
    for (std::int64_t i = 0; i < f.numel(); ++i)
      ASSERT_TRUE(std::isfinite(f[i])) << arch;
  }
}

TEST(Encoder, DepthOrderingOfParameterCounts) {
  Rng rng(3);
  auto r18 = models::make_encoder("resnet18", rng);
  auto r34 = models::make_encoder("resnet34", rng);
  auto r74 = models::make_encoder("resnet74", rng);
  auto r110 = models::make_encoder("resnet110", rng);
  auto r152 = models::make_encoder("resnet152", rng);
  EXPECT_LT(r18.backbone->parameter_count(), r34.backbone->parameter_count());
  EXPECT_LT(r74.backbone->parameter_count(), r110.backbone->parameter_count());
  EXPECT_LT(r110.backbone->parameter_count(),
            r152.backbone->parameter_count());
}

TEST(Encoder, CifarStyleDepthMatchesFamilyFormula) {
  // depth = 6n + 2 -> n blocks per stage.
  EXPECT_EQ(models::resnet74_config().stage_blocks,
            (std::vector<std::int64_t>{12, 12, 12}));
  EXPECT_EQ(models::resnet110_config().stage_blocks,
            (std::vector<std::int64_t>{18, 18, 18}));
  EXPECT_EQ(models::resnet152_config().stage_blocks,
            (std::vector<std::int64_t>{25, 25, 25}));
}

TEST(Encoder, PolicyBitsChangeForwardOutput) {
  Rng rng(4);
  auto enc = models::make_encoder("resnet18", rng);
  enc.backbone->set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{1, 3, 16, 16}, rng);
  enc.policy->set_full_precision();
  Tensor f_fp = enc.forward(x);
  enc.policy->set_bits(2);
  Tensor f_q = enc.forward(x);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < f_fp.numel(); ++i)
    diff += std::abs(f_fp[i] - f_q[i]);
  EXPECT_GT(diff, 1e-4f);
}

TEST(Encoder, HighBitsCloseToFullPrecision) {
  Rng rng(5);
  auto enc = models::make_encoder("resnet18", rng);
  enc.backbone->set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{1, 3, 16, 16}, rng);
  Tensor f_fp = enc.forward(x);
  enc.policy->set_bits(16);
  Tensor f_16 = enc.forward(x);
  enc.policy->set_bits(2);
  Tensor f_2 = enc.forward(x);
  enc.policy->set_full_precision();
  float d16 = 0.0f, d2 = 0.0f;
  for (std::int64_t i = 0; i < f_fp.numel(); ++i) {
    d16 += std::abs(f_fp[i] - f_16[i]);
    d2 += std::abs(f_fp[i] - f_2[i]);
  }
  EXPECT_LT(d16, d2);
}

TEST(Encoder, MobileNetUsesDepthwiseGroups) {
  // Structure check via parameter count: MobileNetV2 should be far cheaper
  // than a dense conv net of similar channel counts would be.
  Rng rng(7);
  auto mnv2 = models::make_encoder("mobilenetv2", rng);
  EXPECT_LT(mnv2.backbone->parameter_count(), 20000);
  EXPECT_GT(mnv2.backbone->parameter_count(), 1000);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  Rng rng(8);
  auto enc = models::make_encoder("resnet18", rng);
  const std::string path = "test_ckpt_r18.ckpt";
  models::save_module(path, *enc.backbone);

  Rng rng2(99);  // different init
  auto enc2 = models::make_encoder("resnet18", rng2);
  models::load_module(path, *enc2.backbone);

  enc.backbone->set_mode(nn::Mode::kEval);
  enc2.backbone->set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{1, 3, 16, 16}, rng);
  Tensor f1 = enc.forward(x);
  Tensor f2 = enc2.forward(x);
  for (std::int64_t i = 0; i < f1.numel(); ++i)
    EXPECT_FLOAT_EQ(f1[i], f2[i]);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsTrailingGarbage) {
  // load_module validates expect_eof(): a checkpoint with extra bytes after
  // the last parameter (format drift, concatenated files) must not load.
  Rng rng(8);
  auto enc = models::make_encoder("resnet18", rng);
  const std::string path = "test_ckpt_tail.ckpt";
  models::save_module(path, *enc.backbone);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "junk";
  }
  auto enc2 = models::make_encoder("resnet18", rng);
  EXPECT_THROW(models::load_module(path, *enc2.backbone), CheckError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, RejectsArchMismatch) {
  Rng rng(9);
  auto r18 = models::make_encoder("resnet18", rng);
  const std::string path = "test_ckpt_mismatch.ckpt";
  models::save_module(path, *r18.backbone);
  auto r34 = models::make_encoder("resnet34", rng);
  EXPECT_THROW(models::load_module(path, *r34.backbone), CheckError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ClassificationWeightsLoadIntoDetectionTrunk) {
  // GAP carries no parameters, so the pooled backbone's weights move into
  // the spatial trunk, through a checkpoint or in memory (Table 3 copies
  // them); both paths must give the trunk the same feature map, bit for
  // bit.
  Rng rng(10);
  auto enc = models::make_encoder("resnet18", rng);
  // One train-mode forward moves the BN running stats off their init
  // values, so the buffers are checked too, not only the parameters.
  enc.backbone->set_mode(nn::Mode::kTrain);
  enc.forward(Tensor::uniform(Shape{4, 3, 16, 16}, rng));
  enc.backbone->clear_cache();
  const std::string path = "test_ckpt_trunk.ckpt";
  models::save_module(path, *enc.backbone);

  auto policy = std::make_shared<quant::QuantPolicy>();
  const auto make_trunk = [&](std::int64_t* dim) {
    Rng trunk_rng(123);
    return models::build_resnet(models::resnet18_config(), policy, trunk_rng,
                                dim, /*include_gap=*/false);
  };
  std::int64_t trunk_dim = 0;
  auto loaded = make_trunk(&trunk_dim);
  EXPECT_NO_THROW(models::load_module(path, *loaded));
  EXPECT_EQ(trunk_dim, enc.feature_dim);
  std::int64_t copied_dim = 0;
  auto copied = make_trunk(&copied_dim);
  nn::copy_parameters(*enc.backbone, *copied);

  loaded->set_mode(nn::Mode::kEval);
  copied->set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{1, 3, 16, 16}, rng);
  Tensor fmap = loaded->forward(x);
  EXPECT_EQ(fmap.shape().rank(), 4u);
  EXPECT_EQ(fmap.dim(1), trunk_dim);
  const Tensor fmap_copied = copied->forward(x);
  ASSERT_EQ(fmap_copied.shape(), fmap.shape());
  EXPECT_EQ(std::memcmp(fmap_copied.data(), fmap.data(),
                        static_cast<std::size_t>(fmap.numel()) *
                            sizeof(float)),
            0);
  std::filesystem::remove(path);
}

TEST(Heads, ProjectionHeadShape) {
  Rng rng(11);
  auto head = models::make_projection_head(64, 32, 16, rng);
  Tensor x = Tensor::randn(Shape{4, 64}, rng);
  EXPECT_EQ(head->forward(x).shape(), Shape({4, 16}));
}

TEST(Heads, ByolMlpShapeAndBn) {
  Rng rng(12);
  auto head = models::make_byol_mlp(16, 32, 8, rng);
  Tensor x = Tensor::randn(Shape{4, 16}, rng);
  EXPECT_EQ(head->forward(x).shape(), Shape({4, 8}));
  // Contains BN buffers.
  std::vector<Tensor*> buffers;
  head->collect_buffers(buffers);
  EXPECT_EQ(buffers.size(), 2u);
}

TEST(Heads, ClassifierShape) {
  Rng rng(13);
  auto head = models::make_classifier(10, 7, rng);
  Tensor x = Tensor::randn(Shape{3, 10}, rng);
  EXPECT_EQ(head->forward(x).shape(), Shape({3, 7}));
}

TEST(Models, TrainForwardBackwardAllArchs) {
  // Smoke test: one forward + backward at 4-bit through every architecture.
  Rng rng(14);
  for (const auto& arch : models::known_archs()) {
    // Deep CIFAR nets are slow; use the two family representatives + mnv2.
    if (arch == "resnet110" || arch == "resnet152" || arch == "resnet34")
      continue;
    Rng arch_rng(rng.next_u64());
    auto enc = models::make_encoder(arch, arch_rng);
    enc.policy->set_bits(4);
    Tensor x = Tensor::uniform(Shape{2, 3, 16, 16}, arch_rng);
    Tensor f = enc.forward(x);
    Tensor g = enc.backbone->backward(Tensor::ones(f.shape()));
    EXPECT_EQ(g.shape(), x.shape()) << arch;
    // Gradients reached the stem.
    bool any_grad = false;
    for (nn::Parameter* p : enc.backbone->parameters())
      any_grad |= std::ranges::any_of(p->grad.span(),
                                      [](float v) { return v != 0.0f; });
    EXPECT_TRUE(any_grad) << arch;
  }
}

}  // namespace
}  // namespace cq
