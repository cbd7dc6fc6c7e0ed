// ResNet backbones, width-reduced for single-core experiments.
//
// Two families, matching the paper's six-network zoo:
//  * "ImageNet-style" ResNet-18/34 — 4 stages of BasicBlocks, channel
//    doubling, base width 8 (the paper's 64, scaled 8x down).
//  * "CIFAR-style" ResNet-74/110/152 — 3 stages of n BasicBlocks each
//    (depth = 6n+2; n = 12/18/25), base width 4. These are the thin deep
//    nets whose lower absolute accuracy in the paper's Tables 4/5 the
//    family structure preserves.
//
// Every Conv2d gets the encoder's FakeQuantWeight transform and every block
// output passes through ActQuant, so setting the shared QuantPolicy's
// bit-width quantizes the whole backbone (paper Eq. 4).
#pragma once

#include <memory>

#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/sequential.hpp"
#include "quant/actquant.hpp"
#include "quant/policy.hpp"

namespace cq::models {

/// Standard pre-activation-free BasicBlock: conv-bn-relu-conv-bn (+ skip),
/// final ReLU, then activation fake-quant.
class BasicBlock : public nn::Module {
 public:
  BasicBlock(std::int64_t in_ch, std::int64_t out_ch, std::int64_t stride,
             std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
             const std::string& name);

  const char* type_name() const override { return "BasicBlock"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void visit_children(const std::function<void(Module&)>& fn) override;

  /// Structure accessors (used by the graph tracer).
  nn::Sequential& main_path() { return main_; }
  nn::Sequential* shortcut_path() { return shortcut_.get(); }

 private:
  nn::Sequential main_;
  std::unique_ptr<nn::Sequential> shortcut_;  // null = identity skip
  nn::ReLU relu_;
  quant::ActQuant actq_;
};

struct ResNetConfig {
  /// Blocks per stage; stage i uses base_width << i channels (capped by the
  /// stage list length) and stride 2 from the second stage on.
  std::vector<std::int64_t> stage_blocks;
  std::int64_t base_width = 8;
  std::int64_t in_channels = 3;
};

/// ImageNet-style: 4 stages.
ResNetConfig resnet18_config();
ResNetConfig resnet34_config();
/// CIFAR-style: 3 stages, depth 6n+2.
ResNetConfig resnet74_config();
ResNetConfig resnet110_config();
ResNetConfig resnet152_config();

/// Builds the full backbone [N,3,H,W] -> [N, feature_dim]; writes the
/// resulting feature dimension to `feature_dim_out`. With
/// include_gap = false the net stops before global pooling and returns the
/// spatial feature map [N, feature_dim, h, w] — the detection trunk.
/// (GlobalAvgPool has no parameters, so classification checkpoints load
/// into detection trunks unchanged.)
std::unique_ptr<nn::Sequential> build_resnet(
    const ResNetConfig& config,
    std::shared_ptr<const quant::QuantPolicy> policy, Rng& rng,
    std::int64_t* feature_dim_out, bool include_gap = true);

}  // namespace cq::models
