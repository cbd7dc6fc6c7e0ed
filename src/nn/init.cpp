#include "nn/init.hpp"

#include <cmath>

#include "util/check.hpp"

namespace cq::nn::init {

Tensor he_uniform(Shape shape, std::int64_t fan_in, Rng& rng) {
  CQ_CHECK(fan_in > 0);
  const float b = std::sqrt(6.0f / static_cast<float>(fan_in));
  return Tensor::uniform(std::move(shape), rng, -b, b);
}

Tensor he_normal(Shape shape, std::int64_t fan_in, Rng& rng) {
  CQ_CHECK(fan_in > 0);
  const float s = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::randn(std::move(shape), rng, 0.0f, s);
}

}  // namespace cq::nn::init
