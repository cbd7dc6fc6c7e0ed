// MoCo trainer and queue-based InfoNCE loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/losses.hpp"
#include "core/moco.hpp"
#include "data/synth.hpp"
#include "tensor/ops.hpp"
#include "testutil.hpp"
#include "util/check.hpp"

namespace cq {
namespace {

data::Dataset tiny_dataset(std::int64_t n = 24) {
  auto cfg = data::synth_cifar_config();
  Rng rng(cfg.seed + 3);
  return data::make_synth_dataset(cfg, n, rng);
}

core::PretrainConfig tiny_config(core::CqVariant variant) {
  core::PretrainConfig cfg;
  cfg.variant = variant;
  cfg.precisions = quant::PrecisionSet::range(6, 16);
  cfg.epochs = 2;
  cfg.batch_size = 8;
  cfg.lr = 0.05f;
  cfg.warmup_epochs = 0;
  cfg.proj_hidden = 16;
  cfg.proj_dim = 8;
  cfg.moco_queue = 32;
  cfg.byol_ema = 0.9f;  // reused as the key-encoder momentum
  return cfg;
}

TEST(InfoNceQueue, ValueFiniteAndPositive) {
  Rng rng(1);
  Tensor q = Tensor::randn(Shape{4, 6}, rng);
  Tensor k = Tensor::randn(Shape{4, 6}, rng);
  Tensor queue = ops::l2_normalize_rows(Tensor::randn(Shape{16, 6}, rng));
  const auto loss = core::info_nce_queue(q, k, queue, 0.5f);
  EXPECT_TRUE(std::isfinite(loss.value));
  EXPECT_GT(loss.value, 0.0f);
}

TEST(InfoNceQueue, AlignedKeysScoreLowerThanRandom) {
  Rng rng(2);
  Tensor q = Tensor::randn(Shape{6, 8}, rng);
  Tensor queue = ops::l2_normalize_rows(Tensor::randn(Shape{32, 8}, rng));
  const float aligned = core::info_nce_queue(q, q, queue, 0.2f).value;
  Tensor k = Tensor::randn(Shape{6, 8}, rng);
  const float random = core::info_nce_queue(q, k, queue, 0.2f).value;
  EXPECT_LT(aligned, random);
}

TEST(InfoNceQueue, KeyGradientIsZero) {
  Rng rng(3);
  Tensor q = Tensor::randn(Shape{3, 5}, rng);
  Tensor k = Tensor::randn(Shape{3, 5}, rng);
  Tensor queue = ops::l2_normalize_rows(Tensor::randn(Shape{8, 5}, rng));
  const auto loss = core::info_nce_queue(q, k, queue, 0.5f);
  const auto nonzero = [](float v) { return v != 0.0f; };
  EXPECT_TRUE(std::ranges::none_of(loss.grad_b.span(), nonzero));
  EXPECT_TRUE(std::ranges::any_of(loss.grad_a.span(), nonzero));
}

TEST(InfoNceQueue, GradientMatchesFiniteDifferences) {
  Rng rng(4);
  Tensor q = Tensor::randn(Shape{3, 4}, rng);
  Tensor k = Tensor::randn(Shape{3, 4}, rng);
  Tensor queue = ops::l2_normalize_rows(Tensor::randn(Shape{6, 4}, rng));
  const auto loss = core::info_nce_queue(q, k, queue, 0.5f);
  test::check_loss_gradient(
      [&](const Tensor& z) {
        return static_cast<double>(
            core::info_nce_queue(z, k, queue, 0.5f).value);
      },
      q, loss.grad_a);
}

TEST(InfoNceQueue, RejectsMismatchedDims) {
  Rng rng(5);
  Tensor q = Tensor::randn(Shape{3, 4}, rng);
  Tensor k = Tensor::randn(Shape{3, 4}, rng);
  Tensor queue = Tensor::randn(Shape{8, 5}, rng);
  EXPECT_THROW(core::info_nce_queue(q, k, queue, 0.5f), CheckError);
}

TEST(MocoTrainer, VanillaRunsAndStaysFinite) {
  const auto ds = tiny_dataset();
  Rng rng(6);
  auto enc = models::make_encoder("resnet18", rng);
  core::MocoCqTrainer trainer(enc, tiny_config(core::CqVariant::kVanilla));
  const auto stats = trainer.train(ds);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
  EXPECT_FALSE(stats.diverged);
}

TEST(MocoTrainer, CqARunsWithQuantization) {
  const auto ds = tiny_dataset();
  Rng rng(7);
  auto enc = models::make_encoder("resnet18", rng);
  core::MocoCqTrainer trainer(enc, tiny_config(core::CqVariant::kCqA));
  const auto stats = trainer.train(ds);
  EXPECT_FALSE(stats.diverged);
}

TEST(MocoTrainer, RejectsUnsupportedVariants) {
  Rng rng(8);
  auto enc = models::make_encoder("resnet18", rng);
  EXPECT_THROW(
      core::MocoCqTrainer(enc, tiny_config(core::CqVariant::kCqC)),
      CheckError);
}

TEST(MocoTrainer, QueueRowsStayNormalized) {
  const auto ds = tiny_dataset();
  Rng rng(9);
  auto enc = models::make_encoder("resnet18", rng);
  core::MocoCqTrainer trainer(enc, tiny_config(core::CqVariant::kVanilla));
  trainer.train(ds);
  const Tensor& queue = trainer.queue();
  for (std::int64_t r = 0; r < queue.dim(0); ++r) {
    double s = 0.0;
    for (std::int64_t c = 0; c < queue.dim(1); ++c)
      s += static_cast<double>(queue.at(r, c)) * queue.at(r, c);
    EXPECT_NEAR(s, 1.0, 1e-3);
  }
}

TEST(MocoTrainer, QueueCursorAdvancesAndWraps) {
  const auto ds = tiny_dataset(16);
  Rng rng(10);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kVanilla);
  cfg.moco_queue = 12;  // batch 8, 2 batches/epoch, 2 epochs = 32 keys
  core::MocoCqTrainer trainer(enc, cfg);
  trainer.train(ds);
  // 32 keys into a 12-slot ring: cursor = 32 mod 12 = 8.
  EXPECT_EQ(trainer.queue_cursor(), 8);
}

TEST(MocoTrainer, LossDecreasesAfterQueueWarmup) {
  // The queue starts with random (easy) negatives, so the loss *rises*
  // while real keys replace them; compare against the post-warmup epoch.
  const auto ds = tiny_dataset(32);
  Rng rng(11);
  auto enc = models::make_encoder("resnet18", rng);
  auto cfg = tiny_config(core::CqVariant::kVanilla);
  cfg.epochs = 12;
  core::MocoCqTrainer trainer(enc, cfg);
  const auto stats = trainer.train(ds);
  ASSERT_GE(stats.epoch_loss.size(), 12u);
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss[2]);
}

}  // namespace
}  // namespace cq
