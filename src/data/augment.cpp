#include "data/augment.hpp"

#include <algorithm>
#include <cmath>

#include "core/trace.hpp"
#include "data/image.hpp"
#include "util/check.hpp"

namespace cq::data {

AugmentPipeline::AugmentPipeline(AugmentConfig config) : config_(config) {
  CQ_CHECK(config_.min_crop_scale > 0.0f && config_.min_crop_scale <= 1.0f);
}

Tensor AugmentPipeline::operator()(const Tensor& img, Rng& rng) const {
  if (config_.identity) return img;
  const auto h = img.dim(1), w = img.dim(2);
  Tensor out = img;

  // Random resized crop (area-scale sampling as in SimCLR).
  {
    const float area_scale = static_cast<float>(
        rng.uniform(config_.min_crop_scale, 1.0f));
    const float side = std::sqrt(area_scale);
    const auto ch = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(side * static_cast<float>(h)));
    const auto cw = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(side * static_cast<float>(w)));
    const auto top = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(h - ch + 1)));
    const auto left = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(w - cw + 1)));
    out = resize_bilinear(crop(out, top, left, ch, cw), h, w);
  }

  if (rng.bernoulli(config_.flip_prob)) out = hflip(out);

  if (rng.bernoulli(config_.jitter_prob) && config_.jitter_strength > 0.0f) {
    const float s = config_.jitter_strength;
    const float brightness = static_cast<float>(rng.uniform(-s, s));
    const float contrast = 1.0f + static_cast<float>(rng.uniform(-s, s));
    // Saturation jitter via blending towards grayscale.
    const float sat = static_cast<float>(rng.uniform(0.0, s));
    float scale[3], shift[3];
    for (int c = 0; c < 3; ++c) {
      scale[c] = contrast;
      shift[c] = brightness;
    }
    out = channel_affine(out, scale, shift);
    if (sat > 0.0f) {
      Tensor gray = grayscale(out);
      for (std::int64_t i = 0; i < out.numel(); ++i)
        out[i] = (1.0f - sat) * out[i] + sat * gray[i];
    }
  }

  if (rng.bernoulli(config_.grayscale_prob)) out = grayscale(out);

  if (config_.cutout_prob > 0.0f && rng.bernoulli(config_.cutout_prob)) {
    const auto side = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(config_.cutout_frac *
                                     static_cast<float>(std::min(h, w))));
    const auto top = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(h - side + 1)));
    const auto left = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(w - side + 1)));
    for (std::int64_t c = 0; c < 3; ++c)
      for (std::int64_t y = top; y < top + side; ++y)
        for (std::int64_t x = left; x < left + side; ++x)
          out.at(c, y, x) = 0.5f;
  }

  if (config_.noise_sigma > 0.0f) {
    for (std::int64_t i = 0; i < out.numel(); ++i)
      out[i] = std::clamp(
          out[i] + static_cast<float>(rng.normal(0.0, config_.noise_sigma)),
          0.0f, 1.0f);
  }
  return out;
}

Tensor AugmentPipeline::batch(const Dataset& ds,
                              std::span<const std::int64_t> indices,
                              Rng& rng) const {
  CQ_TRACE_SCOPE_N("augment.batch", indices.size());
  CQ_CHECK(!indices.empty());
  std::vector<Tensor> views;
  views.reserve(indices.size());
  for (auto i : indices) {
    CQ_CHECK(i >= 0 && i < ds.size());
    views.push_back((*this)(ds.images[static_cast<std::size_t>(i)], rng));
  }
  return stack_images(views);
}

}  // namespace cq::data
