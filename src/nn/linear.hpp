// Fully connected layer y = x W^T + b, with optional weight transform
// (fake quantization) applied on the forward path.
//
// The bias add rides the GEMM epilogue (no separate pass over y), and when
// the installed transform exposes a pack_spec() the fake quantization is
// folded into the GEMM packing of W — the layer then never materializes a
// quantized weight tensor, caching only the tiny QuantSpec for backward.
#pragma once

#include <memory>
#include <optional>

#include "nn/module.hpp"

namespace cq::nn {

class Linear : public Module {
 public:
  /// He-uniform initialized weight [out_features, in_features].
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true, std::string name = "linear");

  const char* type_name() const override { return "Linear"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  std::size_t pending_caches() const override { return cache_.size(); }

  /// Install/replace the weight transform (nullptr disables).
  void set_weight_transform(std::shared_ptr<const WeightTransform> t) {
    transform_ = std::move(t);
  }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }
  Parameter& weight() { return weight_; }
  Parameter* bias() { return has_bias_ ? &bias_ : nullptr; }

 protected:
  void on_clear_cache() override { cache_.clear(); }

 private:
  struct Cache {
    Tensor input;  // [N, in]
    // Exactly one of these is set when the transform was active: the spec
    // when quantize-on-pack applied, the tensor when the transform had to
    // materialize (e.g. Gaussian perturbation).
    std::optional<Tensor> effective_weight;
    std::optional<gemm::QuantSpec> weight_spec;
  };

  std::int64_t in_features_;
  std::int64_t out_features_;
  bool has_bias_;
  Parameter weight_;
  Parameter bias_;
  std::shared_ptr<const WeightTransform> transform_;
  std::vector<Cache> cache_;
};

}  // namespace cq::nn
