// Second parameterized property suite: optimizers, augmentation invariants,
// architecture shape sweeps, batchnorm statistics.
#include <gtest/gtest.h>

#include <cmath>

#include "data/augment.hpp"
#include "data/synth.hpp"
#include "models/encoder.hpp"
#include "nn/batchnorm.hpp"
#include "optim/schedule.hpp"
#include "optim/sgd.hpp"
#include "tensor/ops.hpp"

namespace cq {
namespace {

// ---- SGD convergence across hyperparameters -------------------------------

struct SgdCase {
  float lr;
  float momentum;
};

class SgdProperty : public ::testing::TestWithParam<SgdCase> {};

TEST_P(SgdProperty, ConvergesOnQuadraticBowl) {
  const auto p = GetParam();
  nn::Parameter w(Tensor::from({4.0f, -7.0f, 2.0f}), "w");
  const Tensor target = Tensor::from({1.0f, 0.0f, -1.0f});
  optim::Sgd sgd({&w}, {.lr = p.lr, .momentum = p.momentum});
  for (int s = 0; s < 800; ++s) {
    for (std::int64_t i = 0; i < 3; ++i) w.grad[i] = w.value[i] - target[i];
    sgd.step();
  }
  for (std::int64_t i = 0; i < 3; ++i)
    EXPECT_NEAR(w.value[i], target[i], 0.05f)
        << "lr=" << p.lr << " m=" << p.momentum;
}

INSTANTIATE_TEST_SUITE_P(
    HyperSweep, SgdProperty,
    ::testing::Values(SgdCase{0.01f, 0.0f}, SgdCase{0.05f, 0.0f},
                      SgdCase{0.1f, 0.5f}, SgdCase{0.05f, 0.9f},
                      SgdCase{0.2f, 0.5f}),
    [](const ::testing::TestParamInfo<SgdCase>& info) {
      return "lr" + std::to_string(static_cast<int>(info.param.lr * 100)) +
             "_m" + std::to_string(static_cast<int>(info.param.momentum * 10));
    });

// ---- Cosine schedule invariants over configurations -----------------------

struct ScheduleCase {
  std::int64_t total;
  std::int64_t warmup;
};

class ScheduleProperty : public ::testing::TestWithParam<ScheduleCase> {};

TEST_P(ScheduleProperty, BoundedAndPeaksAfterWarmup) {
  const auto p = GetParam();
  optim::CosineSchedule sched(1.0f, p.total, p.warmup);
  float peak = 0.0f;
  std::int64_t peak_step = 0;
  for (std::int64_t s = 0; s < p.total; ++s) {
    const float lr = sched.lr_at(s);
    EXPECT_GE(lr, 0.0f);
    EXPECT_LE(lr, 1.0f + 1e-6f);
    if (lr > peak) {
      peak = lr;
      peak_step = s;
    }
  }
  EXPECT_NEAR(peak, 1.0f, 1e-5f);
  if (p.warmup > 0) {
    EXPECT_GE(peak_step, p.warmup - 1);
    EXPECT_LE(peak_step, p.warmup);
  } else {
    EXPECT_EQ(peak_step, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(ConfigSweep, ScheduleProperty,
                         ::testing::Values(ScheduleCase{10, 0},
                                           ScheduleCase{100, 10},
                                           ScheduleCase{100, 50},
                                           ScheduleCase{2, 1},
                                           ScheduleCase{1000, 1}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param.total) +
                                  "_w" + std::to_string(info.param.warmup);
                         });

// ---- Augmentation invariants across strengths ------------------------------

class AugmentProperty : public ::testing::TestWithParam<float> {};

TEST_P(AugmentProperty, OutputAlwaysValidImage) {
  const float strength = GetParam();
  data::AugmentConfig cfg;
  cfg.min_crop_scale = std::max(0.2f, 1.0f - strength);
  cfg.jitter_strength = strength;
  cfg.grayscale_prob = strength * 0.5f;
  cfg.noise_sigma = strength * 0.1f;
  cfg.cutout_prob = strength * 0.5f;
  data::AugmentPipeline aug(cfg);
  Rng rng(static_cast<std::uint64_t>(strength * 1000) + 1);
  const auto ds =
      data::make_synth_dataset(data::synth_cifar_config(), 4, rng);
  for (const auto& img : ds.images) {
    for (int trial = 0; trial < 5; ++trial) {
      const Tensor v = aug(img, rng);
      ASSERT_EQ(v.shape(), img.shape());
      for (std::int64_t i = 0; i < v.numel(); ++i) {
        ASSERT_GE(v[i], 0.0f);
        ASSERT_LE(v[i], 1.0f);
        ASSERT_TRUE(std::isfinite(v[i]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StrengthSweep, AugmentProperty,
                         ::testing::Values(0.0f, 0.2f, 0.5f, 0.8f, 1.0f),
                         [](const auto& info) {
                           return "s" + std::to_string(static_cast<int>(
                                            info.param * 10));
                         });

// ---- Encoder output shapes across architectures and input sizes -----------

struct ArchCase {
  const char* arch;
  std::int64_t hw;
};

// Without a printer gtest lists the raw bytes of `arch`, a pointer whose
// value moves with ASLR, so the test names would differ from run to run.
void PrintTo(const ArchCase& c, std::ostream* os) {
  *os << "{" << c.arch << ", " << c.hw << "}";
}

class ArchProperty : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchProperty, EvalForwardShapeAndFiniteness) {
  const auto p = GetParam();
  Rng rng(11);
  auto enc = models::make_encoder(p.arch, rng);
  enc.backbone->set_mode(nn::Mode::kEval);
  Tensor x = Tensor::uniform(Shape{2, 3, p.hw, p.hw}, rng);
  Tensor f = enc.forward(x);
  EXPECT_EQ(f.shape(), Shape({2, enc.feature_dim}));
  for (std::int64_t i = 0; i < f.numel(); ++i)
    ASSERT_TRUE(std::isfinite(f[i]));
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, ArchProperty,
    ::testing::Values(ArchCase{"resnet18", 16}, ArchCase{"resnet18", 24},
                      ArchCase{"resnet18", 32}, ArchCase{"resnet34", 16},
                      ArchCase{"resnet74", 16}, ArchCase{"mobilenetv2", 16},
                      ArchCase{"mobilenetv2", 24}),
    [](const ::testing::TestParamInfo<ArchCase>& info) {
      return std::string(info.param.arch) + "_" +
             std::to_string(info.param.hw);
    });

// ---- BatchNorm statistics across shapes ------------------------------------

class BnProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BnProperty, TrainOutputIsStandardized) {
  const auto [n, c, hw] = GetParam();
  Rng rng(static_cast<std::uint64_t>(n * 100 + c * 10 + hw));
  nn::BatchNorm2d bn(c);
  Tensor x = Tensor::randn(Shape{n, c, hw, hw}, rng, 2.0f, 3.0f);
  Tensor y = bn.forward(x);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    double mean = 0.0, sq = 0.0;
    std::int64_t count = 0;
    for (std::int64_t img = 0; img < n; ++img)
      for (std::int64_t i = 0; i < hw * hw; ++i) {
        const double v =
            y[(img * c + ch) * hw * hw + i];
        mean += v;
        sq += v * v;
        ++count;
      }
    mean /= static_cast<double>(count);
    EXPECT_NEAR(mean, 0.0, 1e-3);
    EXPECT_NEAR(sq / static_cast<double>(count), 1.0, 0.05);
  }
}

INSTANTIATE_TEST_SUITE_P(ShapeSweep, BnProperty,
                         ::testing::Values(std::tuple{4, 2, 4},
                                           std::tuple{8, 1, 8},
                                           std::tuple{2, 8, 2},
                                           std::tuple{16, 3, 3}),
                         [](const auto& info) {
                           return "n" + std::to_string(std::get<0>(info.param)) +
                                  "c" + std::to_string(std::get<1>(info.param)) +
                                  "s" + std::to_string(std::get<2>(info.param));
                         });

}  // namespace
}  // namespace cq
