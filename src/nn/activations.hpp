// Pointwise activations.
#pragma once

#include "nn/module.hpp"

namespace cq::nn {

/// ReLU, with an optional upper clip (cap = 6 gives ReLU6 for MobileNetV2;
/// cap <= 0 means unbounded).
class ReLU : public Module {
 public:
  explicit ReLU(float cap = 0.0f) : cap_(cap) {}

  /// Upper clip; <= 0 means plain (unbounded) ReLU. Deployment compilers
  /// read this to reproduce ReLU6 and to fuse the activation into GEMM
  /// epilogues.
  float cap() const { return cap_; }

  const char* type_name() const override { return "ReLU"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::size_t pending_caches() const override { return cache_.size(); }

 protected:
  void on_clear_cache() override { cache_.clear(); }

 private:
  float cap_;
  std::vector<Tensor> cache_;  // inputs
};

/// GELU (tanh approximation, kernels::gelu) — the transformer MLP
/// activation. Pointwise over any shape.
class GELU : public Module {
 public:
  const char* type_name() const override { return "GELU"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::size_t pending_caches() const override { return cache_.size(); }

 protected:
  void on_clear_cache() override { cache_.clear(); }

 private:
  std::vector<Tensor> cache_;  // inputs
};

}  // namespace cq::nn
