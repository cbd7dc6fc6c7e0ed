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

  /// One group's lowering geometry on an in_h x in_w input: in_channels /
  /// groups input channels, a square kernel.
  ConvGeometry group_geometry(std::int64_t in_h, std::int64_t in_w) const {
    return {.in_channels = in_channels / groups,
            .in_h = in_h,
            .in_w = in_w,
            .kernel_h = kernel,
            .kernel_w = kernel,
            .stride = stride,
            .pad = pad};
  }
};

namespace detail {
/// The one fp32 conv forward, shared by Conv2d::forward and the compiled
/// plan's fp32 conv node. For each of the n NCHW images and each group:
/// im2col into `cols` (one image's column matrix, group_geometry's col_rows
/// x col_cols floats), then one gemm(kNN) that writes that image-group's
/// NCHW slice of y. `w` is [out_channels, col_rows]. Each caller brings its
/// own epilogue: `ep.bias`, when set, holds all out_channels per-row biases
/// and each group's GEMM reads its own slice. `qa` folds a fake
/// quantization into the packing of w (nullptr: raw weights). Every image
/// runs the batch-1 code, so a batch-N forward equals N batch-1 forwards.
void conv2d_forward(const Conv2dSpec& spec, const float* x, std::int64_t n,
                    std::int64_t in_h, std::int64_t in_w, const float* w,
                    const gemm::Epilogue& ep, const gemm::QuantSpec* qa,
                    float* cols, float* y);
}  // namespace detail

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

  Conv2dSpec spec_;
  Parameter weight_;  // [Cout, (Cin/groups) * K * K]
  Parameter bias_;
  std::shared_ptr<const WeightTransform> transform_;
  std::vector<Cache> cache_;
  Tensor cols_, dcols_;  // per-image im2col scratch, reused across calls
};

}  // namespace cq::nn
