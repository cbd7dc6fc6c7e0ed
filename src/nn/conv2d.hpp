// 2-D convolution (NCHW) via im2col + matmul, with grouped / depthwise
// support and an optional weight transform (fake quantization).
#pragma once

#include <memory>
#include <optional>

#include "nn/module.hpp"
#include "tensor/im2col.hpp"

namespace cq::nn {

struct Conv2dSpec {
  std::int64_t in_channels = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
  std::int64_t groups = 1;
  bool bias = false;  // conv layers are usually followed by BatchNorm
};

class Conv2d : public Module {
 public:
  Conv2d(const Conv2dSpec& spec, Rng& rng, std::string name = "conv");

  const char* type_name() const override { return "Conv2d"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::size_t pending_caches() const override { return cache_.size(); }

  void set_weight_transform(std::shared_ptr<const WeightTransform> t) {
    transform_ = std::move(t);
  }

  const Conv2dSpec& spec() const { return spec_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return spec_.bias ? &bias_ : nullptr; }

 protected:
  void on_clear_cache() override { cache_.clear(); }

 private:
  struct Cache {
    Tensor input;  // [N, Cin, H, W]
    // Exactly one of these is set when the transform was active: the spec
    // when quantize-on-pack applied, the tensor otherwise (e.g. Gaussian).
    std::optional<Tensor> effective_weight;
    std::optional<gemm::QuantSpec> weight_spec;
  };

  ConvGeometry group_geometry(std::int64_t in_h, std::int64_t in_w) const;

  Conv2dSpec spec_;
  Parameter weight_;  // [Cout, (Cin/groups) * K * K]
  Parameter bias_;
  std::shared_ptr<const WeightTransform> transform_;
  std::vector<Cache> cache_;
  Tensor cols_, dcols_;  // per-image im2col scratch, reused across calls
};

}  // namespace cq::nn
