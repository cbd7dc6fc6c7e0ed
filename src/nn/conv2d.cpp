#include "nn/conv2d.hpp"

#include <utility>

#include "core/trace.hpp"
#include "nn/init.hpp"
#include "tensor/gemm.hpp"

namespace cq::nn {

Conv2d::Conv2d(const Conv2dSpec& spec, Rng& rng, std::string name)
    : spec_(spec) {
  CQ_CHECK(spec.in_channels > 0 && spec.out_channels > 0);
  CQ_CHECK(spec.kernel > 0 && spec.stride > 0 && spec.pad >= 0);
  CQ_CHECK_MSG(spec.groups > 0 && spec.in_channels % spec.groups == 0 &&
                   spec.out_channels % spec.groups == 0,
               "groups must divide both channel counts");
  const auto cin_g = spec.in_channels / spec.groups;
  const auto fan_in = cin_g * spec.kernel * spec.kernel;
  weight_ = Parameter(
      init::he_normal(Shape{spec.out_channels, fan_in}, fan_in, rng),
      name + ".weight", /*decay=*/true);
  if (spec.bias)
    bias_ = Parameter(Tensor::zeros(Shape{spec.out_channels}), name + ".bias",
                      /*decay=*/false);
}

namespace detail {

void conv2d_forward(const Conv2dSpec& spec, const float* x, std::int64_t n,
                    std::int64_t in_h, std::int64_t in_w, const float* w,
                    const gemm::Epilogue& ep, const gemm::QuantSpec* qa,
                    float* cols, float* y) {
  const auto g = spec.group_geometry(in_h, in_w);
  const auto spatial = g.out_h() * g.out_w();
  const auto cout_g = spec.out_channels / spec.groups;
  const auto krows = g.col_rows();  // cin_g * K * K
  const auto group_in = g.in_channels * in_h * in_w;
  gemm::Epilogue group_ep = ep;
  for (std::int64_t img = 0; img < n; ++img) {
    const float* in_base = x + img * spec.in_channels * in_h * in_w;
    float* out_base = y + img * spec.out_channels * spatial;
    for (std::int64_t grp = 0; grp < spec.groups; ++grp) {
      im2col(in_base + grp * group_in, g, cols);
      // out[cout_g, spatial] = W_grp[cout_g, krows] * cols[krows, spatial];
      // GEMM rows are output channels, so the bias is a per-row epilogue.
      if (ep.bias != nullptr) group_ep.bias = ep.bias + grp * cout_g;
      gemm::gemm(gemm::Trans::kNN, cout_g, spatial, krows,
                 w + grp * cout_g * krows, cols,
                 out_base + grp * cout_g * spatial,
                 /*accumulate=*/false, group_ep, qa, nullptr);
    }
  }
}

}  // namespace detail

Tensor Conv2d::forward(const Tensor& x) {
  CQ_TRACE_SCOPE_N("nn.conv.fwd", x.dim(0));
  CQ_CHECK_MSG(x.shape().rank() == 4 && x.dim(1) == spec_.in_channels,
               "conv input " << x.shape().str() << " expects [N, "
                             << spec_.in_channels << ", H, W]");
  const auto n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const auto g = spec_.group_geometry(in_h, in_w);
  const auto oh = g.out_h(), ow = g.out_w();
  CQ_CHECK_MSG(oh > 0 && ow > 0, "conv output would be empty for input "
                                     << x.shape().str());

  const bool transformed = transform_ && transform_->active();
  // Quantize-on-pack: fold an affine fake quantization into the GEMM's
  // packing of W; otherwise materialize via apply().
  std::optional<gemm::QuantSpec> wq;
  Tensor w_eff;
  if (transformed) {
    wq = transform_->pack_spec(weight_);
    if (!wq) w_eff = transform_->apply(weight_);
  }
  const Tensor& w_fwd = wq || !transformed ? weight_.value : w_eff;
  const gemm::QuantSpec* qa = wq ? &*wq : nullptr;

  // Fully overwritten below (gemm writes every output element).
  Tensor y = Tensor::empty(Shape{n, spec_.out_channels, oh, ow});
  cols_.resize(Shape{g.col_rows(), oh * ow});
  // Bias only when the module has one: a +0.0 bias would turn -0.0
  // outputs into +0.0.
  gemm::Epilogue ep;
  if (spec_.bias) {
    ep.bias = std::as_const(bias_.value).data();
    ep.bias_kind = gemm::Epilogue::Bias::kPerRow;
  }
  detail::conv2d_forward(spec_, x.data(), n, in_h, in_w, w_fwd.data(), ep, qa,
                         cols_.data(), y.data());

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

Tensor Conv2d::backward(const Tensor& grad_out) {
  CQ_TRACE_SCOPE_N("nn.conv.bwd", grad_out.dim(0));
  CQ_CHECK_MSG(!cache_.empty(), "conv backward without matching forward");
  Cache entry = std::move(cache_.back());
  cache_.pop_back();

  const Tensor& x = entry.input;
  const auto n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const auto g = spec_.group_geometry(in_h, in_w);
  const auto oh = g.out_h(), ow = g.out_w();
  CQ_CHECK(grad_out.shape().rank() == 4 && grad_out.dim(0) == n &&
           grad_out.dim(1) == spec_.out_channels && grad_out.dim(2) == oh &&
           grad_out.dim(3) == ow);

  const auto groups = spec_.groups;
  const auto cout_g = spec_.out_channels / groups;
  const auto cin_g = g.in_channels;
  const auto krows = g.col_rows();
  const auto spatial = oh * ow;

  const Tensor& w_used =
      entry.effective_weight ? *entry.effective_weight : weight_.value;
  const float* W = w_used.data();
  float* Wg = weight_.grad.data();

  // grad_in must start zeroed: col2im scatter-adds into it.
  Tensor grad_in(x.shape());
  cols_.resize(Shape{krows, spatial});
  dcols_.resize(Shape{krows, spatial});
  float* cols = cols_.data();
  float* dcols = dcols_.data();

  const float* x_base = x.data();
  const float* go_all = grad_out.data();
  float* gi_all = grad_in.data();
  for (std::int64_t img = 0; img < n; ++img) {
    const float* in_base = x_base + img * spec_.in_channels * in_h * in_w;
    const float* go_base = go_all + img * spec_.out_channels * spatial;
    float* gi_base = gi_all + img * spec_.in_channels * in_h * in_w;
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      // Recompute cols (cheaper in memory than caching per-image columns).
      im2col(in_base + grp * cin_g * in_h * in_w, g, cols);
      const float* go = go_base + grp * cout_g * spatial;
      // dW_grp += go[cout_g, spatial] * cols^T[spatial, krows]
      float* wg_grad = Wg + grp * cout_g * krows;
      gemm::gemm(gemm::Trans::kNT, cout_g, krows, spatial, go, cols, wg_grad,
                 /*accumulate=*/true);
      // dcols[krows, spatial] = W_grp^T[krows, cout_g] * go[cout_g, spatial].
      // With quantize-on-pack the effective weight is re-derived from the
      // master weight and the cached spec (backward precedes the optimizer
      // step, so the master values still match the forward's).
      const float* wgrp = W + grp * cout_g * krows;
      gemm::gemm(gemm::Trans::kTN, krows, spatial, cout_g, wgrp, go, dcols,
                 /*accumulate=*/false, gemm::Epilogue{},
                 entry.weight_spec ? &*entry.weight_spec : nullptr, nullptr);
      col2im(dcols, g, gi_base + grp * cin_g * in_h * in_w);
    }
    if (spec_.bias) {
      for (std::int64_t oc = 0; oc < spec_.out_channels; ++oc) {
        const float* gorow = go_base + oc * spatial;
        double s = 0.0;
        for (std::int64_t sp = 0; sp < spatial; ++sp) s += gorow[sp];
        bias_.grad[oc] += static_cast<float>(s);
      }
    }
  }
  return grad_in;
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (spec_.bias) out.push_back(&bias_);
}

}  // namespace cq::nn
