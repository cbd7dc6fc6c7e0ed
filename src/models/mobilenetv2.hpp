// MobileNetV2 backbone (Sandler et al. 2018), width/expansion-reduced.
//
// Inverted residual block: 1x1 expand (ReLU6) -> 3x3 depthwise (ReLU6) ->
// 1x1 linear projection, residual add when stride == 1 and channels match.
// Quantized like the ResNets (weight transforms on every conv, ActQuant on
// every block output).
#pragma once

#include <memory>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "quant/actquant.hpp"
#include "quant/policy.hpp"

namespace cq::models {

class InvertedResidual : public nn::Module {
 public:
  InvertedResidual(std::int64_t in_ch, std::int64_t out_ch,
                   std::int64_t stride, std::int64_t expand_ratio,
                   std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
                   const std::string& name);

  const char* type_name() const override { return "InvertedResidual"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void visit_children(const std::function<void(Module&)>& fn) override;

  /// Structure accessors (used by the graph tracer).
  nn::Sequential& body() { return body_; }
  bool uses_residual() const { return use_residual_; }

 private:
  bool use_residual_;
  nn::Sequential body_;
  quant::ActQuant actq_;
};

struct MobileNetV2Config {
  struct BlockSpec {
    std::int64_t expand;
    std::int64_t out_ch;
    std::int64_t repeats;
    std::int64_t stride;  // stride of the first repeat
  };
  std::int64_t in_channels = 3;
  std::int64_t stem_ch = 8;
  std::int64_t head_ch = 48;
  std::vector<BlockSpec> blocks;
};

MobileNetV2Config mobilenetv2_config();

std::unique_ptr<nn::Sequential> build_mobilenetv2(
    const MobileNetV2Config& config,
    std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
    std::int64_t* feature_dim_out);

}  // namespace cq::models
