// Shared test helpers: numeric gradient checking against Module::backward,
// and race-free shared fixture files.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>

#include "nn/module.hpp"
#include "tensor/tensor.hpp"

namespace cq::test {

/// Writes a fixture file that several test processes may build at once
/// (ctest runs each discovered case in its own process, so a function-static
/// fixture is rebuilt per process). `write` fills a per-process temp file,
/// which is then renamed onto `path`: rename is atomic, so a concurrent
/// reader sees a complete file, never one another process is still writing.
inline void publish_file(const std::string& path,
                         const std::function<void(const std::string&)>& write) {
  const std::string tmp = path + "." + std::to_string(::getpid()) + ".tmp";
  write(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("publish_file: cannot rename " + tmp);
}

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

}  // namespace cq::test
