// Global average pooling (NCHW).
#pragma once

#include "nn/module.hpp"

namespace cq::nn {

/// Global average pooling [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Module {
 public:
  const char* type_name() const override { return "GlobalAvgPool"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::size_t pending_caches() const override { return shapes_.size(); }

 protected:
  void on_clear_cache() override { shapes_.clear(); }

 private:
  std::vector<Shape> shapes_;
};

}  // namespace cq::nn
