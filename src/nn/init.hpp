// Weight initialization schemes.
#pragma once

#include "tensor/tensor.hpp"

namespace cq::nn::init {

/// Kaiming/He uniform: U(-b, b) with b = sqrt(6 / fan_in). Suited to ReLU
/// networks (He et al., 2015).
Tensor he_uniform(Shape shape, std::int64_t fan_in, Rng& rng);

/// Kaiming/He normal: N(0, sqrt(2 / fan_in)).
Tensor he_normal(Shape shape, std::int64_t fan_in, Rng& rng);

}  // namespace cq::nn::init
