// SimCLR-style stochastic augmentation pipeline (paper's Aug_1 / Aug_2).
#pragma once

#include "data/dataset.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace cq::data {

struct AugmentConfig {
  // Defaults follow SimCLR's recipe scaled to SynthVision: class identity is
  // carried partly by color, so full-strength SimCLR color augmentation
  // (jitter 0.4 / grayscale 0.2 / crop 0.45) destroys the signal at this
  // image scale — tuned values keep SSL >> random-init (see EXPERIMENTS.md).
  /// Random resized crop: area scale sampled in [min_crop_scale, 1].
  float min_crop_scale = 0.6f;
  float flip_prob = 0.5f;
  /// Color jitter strength (brightness / contrast / saturation half-range).
  float jitter_strength = 0.3f;
  float jitter_prob = 0.8f;
  float grayscale_prob = 0.1f;
  float noise_sigma = 0.02f;
  /// Cutout (DeVries & Taylor): with this probability, a random square of
  /// side cutout_frac * min(H, W) is erased to gray.
  float cutout_prob = 0.0f;
  float cutout_frac = 0.3f;
  /// Disable everything (identity pipeline) — used by CQ-Quant (Sec. 4.5).
  bool identity = false;
};

class AugmentPipeline {
 public:
  explicit AugmentPipeline(AugmentConfig config = {});

  const AugmentConfig& config() const { return config_; }

  /// One stochastic view of `img` (output has the same H, W).
  Tensor operator()(const Tensor& img, Rng& rng) const;

  /// A full augmented batch from dataset rows `indices`.
  Tensor batch(const Dataset& ds, std::span<const std::int64_t> indices,
               Rng& rng) const;

 private:
  AugmentConfig config_;
};

}  // namespace cq::data
