// Encoder: a quantization-aware backbone plus its shared QuantPolicy.
//
// This is the F_q(x, theta_q) of the paper: `policy->set_bits(q)` switches
// every conv weight and intermediate activation of the backbone to q-bit
// fake quantization for subsequent forward passes.
#pragma once

#include <memory>
#include <string>

#include "nn/sequential.hpp"
#include "quant/policy.hpp"

namespace cq::models {

struct Encoder {
  std::unique_ptr<nn::Sequential> backbone;  // [N,3,H,W] -> [N, feature_dim]
  std::shared_ptr<quant::QuantPolicy> policy;
  std::int64_t feature_dim = 0;
  std::string arch;
  quant::QuantizerConfig qconfig;

  /// Forward at the policy's current precision.
  Tensor forward(const Tensor& x) { return backbone->forward(x); }
};

/// Known architectures: resnet18, resnet34, resnet74, resnet110, resnet152,
/// mobilenetv2, vit.
bool is_known_arch(const std::string& arch);
const std::vector<std::string>& known_archs();

/// Build an encoder by name. Throws CheckError for unknown names.
Encoder make_encoder(const std::string& arch, Rng& rng,
                     quant::QuantizerConfig qconfig = {});

/// Save/load every parameter and buffer of a module (in collection order) to
/// a checkpoint file. Loading validates names and shapes.
void save_module(const std::string& path, nn::Module& module);
void load_module(const std::string& path, nn::Module& module);

}  // namespace cq::models
