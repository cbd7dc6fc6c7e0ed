#include "nn/linear.hpp"

#include <cmath>
#include <utility>

#include "core/trace.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"

namespace cq::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias, std::string name)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  CQ_CHECK(in_features > 0 && out_features > 0);
  weight_ = Parameter(init::he_uniform(Shape{out_features, in_features},
                                       in_features, rng),
                      name + ".weight", /*decay=*/true);
  if (has_bias_)
    bias_ = Parameter(Tensor::zeros(Shape{out_features}), name + ".bias",
                      /*decay=*/false);
}

Tensor Linear::forward(const Tensor& x) {
  CQ_TRACE_SCOPE_N("nn.linear.fwd", x.dim(0));
  CQ_CHECK_MSG(x.shape().rank() == 2 && x.dim(1) == in_features_,
               "linear input " << x.shape().str() << " expects [N, "
                               << in_features_ << "]");
  const bool transformed = transform_ && transform_->active();
  // Quantize-on-pack: an affine transform is folded into the GEMM's packing
  // of W (no quantized tensor materialized); otherwise fall back to apply().
  std::optional<gemm::QuantSpec> wq;
  Tensor w_eff;
  if (transformed) {
    wq = transform_->pack_spec(weight_);
    if (!wq) w_eff = transform_->apply(weight_);
  }
  const Tensor& w = wq || !transformed ? weight_.value : w_eff;

  gemm::Epilogue ep;
  if (has_bias_) {
    ep.bias = std::as_const(bias_.value).data();
    ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
  }

  const auto batch = x.dim(0);
  // gemm fully writes y, so skip the zero-fill.
  Tensor y = Tensor::empty(Shape{batch, out_features_});  // y = x W^T + b
  gemm::gemm(gemm::Trans::kNT, batch, out_features_, in_features_, x.data(),
             w.data(), y.data(), /*accumulate=*/false, ep, nullptr,
             wq ? &*wq : nullptr);
  if (mode_ == Mode::kTrain) {
    Cache entry;
    entry.input = x;
    if (transformed) {
      if (wq)
        entry.weight_spec = wq;
      else
        entry.effective_weight = std::move(w_eff);
    }
    cache_.push_back(std::move(entry));
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  CQ_TRACE_SCOPE_N("nn.linear.bwd", grad_out.dim(0));
  CQ_CHECK_MSG(!cache_.empty(), "linear backward without matching forward");
  Cache entry = std::move(cache_.back());
  cache_.pop_back();
  CQ_CHECK(grad_out.shape().rank() == 2 && grad_out.dim(1) == out_features_);
  CQ_CHECK(grad_out.dim(0) == entry.input.dim(0));

  const auto batch = grad_out.dim(0);
  // Straight-through estimator: dL/dW_master := dL/dW_effective.
  // dW[out,in] += grad_out^T[out,batch] * x[batch,in], accumulated in place.
  gemm::gemm(gemm::Trans::kTN, out_features_, in_features_, batch,
             grad_out.data(), entry.input.data(), weight_.grad.data(),
             /*accumulate=*/true);
  if (has_bias_) {
    kernels::add_rows(grad_out.data(), batch, out_features_,
                      bias_.grad.data());
  }
  // grad_in = grad_out * W_effective. In the quantize-on-pack case the
  // effective weight is re-derived from the master weight and the cached
  // spec — valid because backward always runs before the optimizer step
  // that would rewrite the master values.
  const Tensor& w_used =
      entry.effective_weight ? *entry.effective_weight : weight_.value;
  Tensor grad_in = Tensor::empty(Shape{batch, in_features_});  // grad_out * W
  gemm::gemm(gemm::Trans::kNN, batch, in_features_, out_features_,
             grad_out.data(), w_used.data(), grad_in.data(),
             /*accumulate=*/false, gemm::Epilogue{}, nullptr,
             entry.weight_spec ? &*entry.weight_spec : nullptr);
  return grad_in;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

}  // namespace cq::nn
