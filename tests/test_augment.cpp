#include <gtest/gtest.h>

#include "data/augment.hpp"
#include "data/synth.hpp"

namespace cq {
namespace {

TEST(Augment, PreservesShapeAndRange) {
  Rng rng(1);
  data::AugmentPipeline aug;
  Tensor img = Tensor::uniform(Shape{3, 16, 16}, rng);
  for (int i = 0; i < 20; ++i) {
    Tensor v = aug(img, rng);
    ASSERT_EQ(v.shape(), img.shape());
    for (std::int64_t j = 0; j < v.numel(); ++j) {
      ASSERT_GE(v[j], 0.0f);
      ASSERT_LE(v[j], 1.0f);
    }
  }
}

TEST(Augment, IdentityPipelinePassesThrough) {
  Rng rng(2);
  data::AugmentConfig cfg;
  cfg.identity = true;
  const data::AugmentPipeline aug(cfg);
  Tensor img = Tensor::uniform(Shape{3, 8, 8}, rng);
  Tensor v = aug(img, rng);
  for (std::int64_t i = 0; i < img.numel(); ++i)
    EXPECT_FLOAT_EQ(img[i], v[i]);
}

TEST(Augment, TwoViewsDiffer) {
  Rng rng(3);
  data::AugmentPipeline aug;
  Tensor img = Tensor::uniform(Shape{3, 16, 16}, rng);
  Tensor v1 = aug(img, rng);
  Tensor v2 = aug(img, rng);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < v1.numel(); ++i)
    diff += std::abs(v1[i] - v2[i]);
  EXPECT_GT(diff, 0.01f);
}

TEST(Augment, DeterministicGivenRngState) {
  Rng rng_a(7), rng_b(7);
  data::AugmentPipeline aug;
  Tensor img = Tensor::uniform(Shape{3, 12, 12}, rng_a);
  Tensor img_b = Tensor::uniform(Shape{3, 12, 12}, rng_b);
  Tensor v1 = aug(img, rng_a);
  Tensor v2 = aug(img_b, rng_b);
  for (std::int64_t i = 0; i < v1.numel(); ++i)
    ASSERT_FLOAT_EQ(v1[i], v2[i]);
}

TEST(Augment, BatchStacksViews) {
  Rng rng(4);
  const auto cfg = data::synth_cifar_config();
  const auto ds = data::make_synth_dataset(cfg, 8, rng);
  data::AugmentPipeline aug;
  const std::vector<std::int64_t> idx = {0, 3, 7};
  Tensor batch = aug.batch(ds, idx, rng);
  EXPECT_EQ(batch.shape(), Shape({3, 3, cfg.height, cfg.width}));
}

TEST(Augment, NoJitterWhenStrengthZero) {
  Rng rng(5);
  data::AugmentConfig cfg;
  cfg.min_crop_scale = 1.0f;  // full-frame crop
  cfg.flip_prob = 0.0f;
  cfg.jitter_strength = 0.0f;
  cfg.grayscale_prob = 0.0f;
  cfg.noise_sigma = 0.0f;
  data::AugmentPipeline aug(cfg);
  Tensor img = Tensor::uniform(Shape{3, 10, 10}, rng);
  Tensor v = aug(img, rng);
  for (std::int64_t i = 0; i < img.numel(); ++i)
    EXPECT_NEAR(img[i], v[i], 1e-5);
}

TEST(Augment, RejectsInvalidCropScale) {
  data::AugmentConfig cfg;
  cfg.min_crop_scale = 0.0f;
  EXPECT_THROW(data::AugmentPipeline{cfg}, CheckError);
}


TEST(Augment, CutoutErasesASquare) {
  Rng rng(6);
  data::AugmentConfig cfg;
  cfg.min_crop_scale = 1.0f;
  cfg.flip_prob = 0.0f;
  cfg.jitter_prob = 0.0f;
  cfg.grayscale_prob = 0.0f;
  cfg.noise_sigma = 0.0f;
  cfg.cutout_prob = 1.0f;
  cfg.cutout_frac = 0.5f;
  data::AugmentPipeline aug(cfg);
  Tensor img = Tensor::ones(Shape{3, 12, 12});
  Tensor v = aug(img, rng);
  std::int64_t erased = 0;
  for (std::int64_t i = 0; i < v.numel(); ++i)
    if (v[i] == 0.5f) ++erased;
  EXPECT_EQ(erased, 3 * 6 * 6);  // one 6x6 square per channel
}

}  // namespace
}  // namespace cq
