// Shared test helpers: numeric gradient checking against Module::backward.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace cq::test {

/// Scalar probe loss: L = sum_i w_i * y_i for fixed random weights w. Its
/// gradient w.r.t. y is exactly w, which we feed to backward().
struct GradCheckOptions {
  double eps = 1e-2;        // central-difference step
  double rtol = 4e-2;       // relative tolerance
  double atol = 1e-3;       // absolute tolerance
  bool check_params = true; // also verify parameter gradients
  /// Fraction of coordinates allowed to disagree. Finite differences
  /// straddle ReLU kinks in composite nets, so a few coordinates of an
  /// otherwise-correct gradient can mismatch; layers without kinks should
  /// keep this at 0.
  double allow_kink_fraction = 0.0;
};

inline void expect_close(double expected, double actual, double rtol,
                         double atol, const std::string& what) {
  const double tol = atol + rtol * std::abs(expected);
  EXPECT_NEAR(actual, expected, tol) << what;
}

/// Verifies dL/dx and (optionally) dL/dtheta of `module` against central
/// finite differences of the probe loss. The module must be in train mode.
inline void check_module_gradients(nn::Module& module, const Tensor& x,
                                   Rng& rng,
                                   const GradCheckOptions& opt = {}) {
  // Probe weights for the output.
  module.clear_cache();
  module.zero_grad();
  Tensor y0 = module.forward(x);
  Tensor w = Tensor::uniform(y0.shape(), rng, -1.0f, 1.0f);

  auto loss_at = [&](const Tensor& input) {
    Tensor y = module.forward(input);
    module.clear_cache();
    double s = 0.0;
    for (std::int64_t i = 0; i < y.numel(); ++i)
      s += static_cast<double>(w[i]) * y[i];
    return s;
  };

  // Analytic pass (consumes the cache pushed by the y0 forward).
  Tensor grad_x = module.backward(w);
  std::vector<Tensor> param_grads;
  for (nn::Parameter* p : module.parameters()) param_grads.push_back(p->grad);

  std::int64_t checked = 0, mismatched = 0;
  auto compare = [&](double numeric, double analytic,
                     const std::string& what) {
    ++checked;
    if (opt.allow_kink_fraction > 0.0) {
      const double tol = opt.atol + opt.rtol * std::abs(numeric);
      if (std::abs(numeric - analytic) > tol) ++mismatched;
    } else {
      expect_close(numeric, analytic, opt.rtol, opt.atol, what);
    }
  };

  // Numeric dL/dx.
  Tensor xm = x;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float orig = xm[i];
    xm[i] = orig + static_cast<float>(opt.eps);
    const double lp = loss_at(xm);
    xm[i] = orig - static_cast<float>(opt.eps);
    const double lm = loss_at(xm);
    xm[i] = orig;
    const double numeric = (lp - lm) / (2.0 * opt.eps);
    compare(numeric, grad_x[i], "input grad @" + std::to_string(i));
  }

  auto params = module.parameters();
  if (opt.check_params) {
    for (std::size_t k = 0; k < params.size(); ++k) {
      Tensor& v = params[k]->value;
      for (std::int64_t i = 0; i < v.numel(); ++i) {
        const float orig = v[i];
        v[i] = orig + static_cast<float>(opt.eps);
        const double lp = loss_at(x);
        v[i] = orig - static_cast<float>(opt.eps);
        const double lm = loss_at(x);
        v[i] = orig;
        const double numeric = (lp - lm) / (2.0 * opt.eps);
        compare(numeric, param_grads[k][i],
                params[k]->name + " grad @" + std::to_string(i));
      }
    }
  }
  if (opt.allow_kink_fraction > 0.0) {
    EXPECT_LE(static_cast<double>(mismatched),
              opt.allow_kink_fraction * static_cast<double>(checked))
        << mismatched << " of " << checked
        << " gradient coordinates disagree (beyond kink allowance)";
  }
}

/// Finite-difference check for a standalone loss function returning
/// (value, grad) for input z.
inline void check_loss_gradient(
    const std::function<double(const Tensor&)>& value_of, const Tensor& z,
    const Tensor& analytic_grad, double eps = 1e-3, double rtol = 3e-2,
    double atol = 1e-4) {
  Tensor zm = z;
  for (std::int64_t i = 0; i < z.numel(); ++i) {
    const float orig = zm[i];
    zm[i] = orig + static_cast<float>(eps);
    const double lp = value_of(zm);
    zm[i] = orig - static_cast<float>(eps);
    const double lm = value_of(zm);
    zm[i] = orig;
    const double numeric = (lp - lm) / (2.0 * eps);
    expect_close(numeric, analytic_grad[i], rtol, atol,
                 "loss grad @" + std::to_string(i));
  }
}

/// Direct convolution, the oracle for every conv lowering; it shares no code
/// with im2col or gemm. x is NCHW [n, s.in_channels, h, w]; weight is
/// [s.out_channels, s.in_channels / s.groups * k * k] in (c, kh, kw) order;
/// bias holds s.out_channels floats or is null. Each output sums, in
/// double, the taps of its group's input channels that land inside the
/// image, then adds bias[oc]. Returns NCHW [n, s.out_channels, oh, ow].
inline std::vector<float> naive_conv(const nn::Conv2dSpec& s, const float* x,
                                     std::int64_t n, std::int64_t h,
                                     std::int64_t w, const float* weight,
                                     const float* bias = nullptr) {
  const std::int64_t k = s.kernel;
  const std::int64_t oh = (h + 2 * s.pad - k) / s.stride + 1;
  const std::int64_t ow = (w + 2 * s.pad - k) / s.stride + 1;
  const std::int64_t cin_g = s.in_channels / s.groups;
  const std::int64_t cout_g = s.out_channels / s.groups;
  std::vector<float> out(
      static_cast<std::size_t>(n * s.out_channels * oh * ow));
  std::size_t o = 0;
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t oc = 0; oc < s.out_channels; ++oc)
      for (std::int64_t oy = 0; oy < oh; ++oy)
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          double acc = 0.0;
          for (std::int64_t ic = 0; ic < cin_g; ++ic) {
            const std::int64_t c = oc / cout_g * cin_g + ic;
            for (std::int64_t ky = 0; ky < k; ++ky)
              for (std::int64_t kx = 0; kx < k; ++kx) {
                const std::int64_t iy = oy * s.stride + ky - s.pad;
                const std::int64_t ix = ox * s.stride + kx - s.pad;
                if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                acc += static_cast<double>(
                           x[((img * s.in_channels + c) * h + iy) * w + ix]) *
                       weight[((oc * cin_g + ic) * k + ky) * k + kx];
              }
          }
          if (bias != nullptr) acc += bias[oc];
          out[o++] = static_cast<float>(acc);
        }
  return out;
}

}  // namespace cq::test
