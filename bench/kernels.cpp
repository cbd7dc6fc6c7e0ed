// Kernel-layer bench: measures what the SIMD kernel layer (DESIGN.md Sec. 9)
// buys over the seed's scalar implementations. Three sections:
//
//   fused     Linear-forward pipeline: blocked GEMM, then the seed's
//             at()-indexed bias pass, then a separate ReLU pass (literally
//             the replaced implementation) vs ONE fused GEMM carrying a
//             bias+ReLU epilogue. Bit-identity is asserted before timing.
//
//   qpack     quantize-on-pack: seed-style scalar Eq. 10 loop materializing
//             a quantized weight tensor then GEMM, vs a single GEMM with the
//             QuantSpec folded into B-packing. Asserted bit-identical to
//             kernels::quantize + GEMM (and to the scalar loop).
//
//   kernels   per-kernel GB/s: seed-style scalar loop vs the VecF kernel,
//             with backend-vs-portable bitwise equivalence asserted first.
//
// Flags: --json=PATH writes the JSON report (run_benches.sh writes
// bench_out/kernels.json); --smoke runs tiny shapes and the equivalence
// checks only — wired as the `kernels_smoke` ctest (label `bench`) so CI
// catches bench bitrot cheaply.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "quant/quantizer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace cq;

using bench::check;
using bench::escape;
using bench::g_failures;
using bench::time_best;

bool bitwise_equal(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

// ---- fused Linear-forward vs the seed pipeline -----------------------------

/// The replaced seed implementation of Linear::forward + ReLU: blocked GEMM
/// into y, bias added through the bounds-checked at() accessor, activation as
/// a separate pass into a fresh tensor (what nn::ReLU::forward did).
Tensor seed_linear_relu(const Tensor& x, const Tensor& w, const Tensor& b) {
  const std::int64_t m = x.dim(0), n = w.dim(0), k = w.dim(1);
  Tensor y = Tensor::empty(Shape{m, n});
  gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), w.data(), y.data());
  for (std::int64_t r = 0; r < m; ++r)
    for (std::int64_t c = 0; c < n; ++c) y.at(r, c) += b[c];
  Tensor z = Tensor::empty(y.shape());
  const float* yp = std::as_const(y).data();
  float* zp = z.data();
  for (std::int64_t i = 0; i < m * n; ++i) zp[i] = yp[i] > 0.0f ? yp[i] : 0.0f;
  return z;
}

struct FusedCase {
  std::string name;
  std::int64_t m, n, k;
  double base_s = 0.0, fused_s = 0.0, flops = 0.0;
};

FusedCase bench_fused_linear(std::int64_t m, std::int64_t n, std::int64_t k,
                             bool smoke, Rng& rng) {
  Tensor x = Tensor::randn(Shape{m, k}, rng);
  Tensor w = Tensor::randn(Shape{n, k}, rng);
  Tensor b = Tensor::randn(Shape{n}, rng);
  gemm::Epilogue ep;
  ep.bias = std::as_const(b).data();
  ep.bias_kind = gemm::Epilogue::Bias::kPerCol;
  ep.act = gemm::Epilogue::Act::kRelu;

  Tensor ref = seed_linear_relu(x, w, b);
  Tensor y(Shape{m, n});
  gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), w.data(), y.data(),
             /*accumulate=*/false, ep);
  check(bitwise_equal(std::as_const(y).data(), std::as_const(ref).data(),
                      m * n),
        "fused linear epilogue != seed gemm+bias+relu pipeline (bitwise)");

  const double target = smoke ? 0.0 : 0.1;
  FusedCase c{"linear_fwd_bias_relu", m, n, k};
  c.flops = 2.0 * double(m) * double(n) * double(k);
  c.base_s = time_best(
      [&] { Tensor z = seed_linear_relu(x, w, b); escape(z.data()); }, target);
  c.fused_s = time_best(
      [&] {
        gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), w.data(), y.data(),
                   false, ep);
        escape(y.data());
      },
      target);
  return c;
}

// ---- quantize-on-pack vs materialize-then-GEMM -----------------------------

FusedCase bench_quantized_pack(std::int64_t m, std::int64_t n, std::int64_t k,
                               int bits, bool smoke, Rng& rng) {
  Tensor x = Tensor::randn(Shape{m, k}, rng);
  Tensor w = Tensor::randn(Shape{n, k}, rng);
  const quant::LinearQuantizer quantizer;
  const gemm::QuantSpec q = quantizer.make_spec(w, bits);

  // Seed-style materialization: a fresh quantized copy of W every forward,
  // through the scalar Eq. 10 loop the seed quantizer ran.
  auto materialize = [&] {
    Tensor wq = Tensor::empty(w.shape());
    const float* wp = w.data();
    float* qp = wq.data();
    for (std::int64_t i = 0; i < w.numel(); ++i)
      qp[i] = q.step * std::nearbyint(wp[i] * q.inv_step);
    return wq;
  };

  // Equivalence: packed-quantized GEMM == materialize-then-GEMM, bitwise,
  // for both the seed scalar loop and kernels::quantize materialization.
  Tensor wq = materialize();
  Tensor wq2 = Tensor::empty(w.shape());
  kernels::quantize(w.data(), wq2.data(), w.numel(), q);
  check(bitwise_equal(std::as_const(wq).data(), std::as_const(wq2).data(),
                      w.numel()),
        "kernels::quantize != seed scalar Eq. 10 loop (bitwise)");
  Tensor ref(Shape{m, n}), y(Shape{m, n});
  gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), wq.data(), ref.data());
  gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), w.data(), y.data(), false,
             gemm::Epilogue{}, nullptr, &q);
  check(bitwise_equal(std::as_const(y).data(), std::as_const(ref).data(),
                      m * n),
        "quantize-on-pack GEMM != materialize-then-GEMM (bitwise)");

  const double target = smoke ? 0.0 : 0.1;
  char name[64];
  std::snprintf(name, sizeof(name), "quantized_pack_gemm_b%d", bits);
  FusedCase c{name, m, n, k};
  c.flops = 2.0 * double(m) * double(n) * double(k);
  c.base_s = time_best(
      [&] {
        Tensor wm = materialize();
        gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), wm.data(), ref.data());
        escape(ref.data());
      },
      target);
  c.fused_s = time_best(
      [&] {
        gemm::gemm(gemm::Trans::kNT, m, n, k, x.data(), w.data(), y.data(),
                   false, gemm::Epilogue{}, nullptr, &q);
        escape(y.data());
      },
      target);
  return c;
}

// ---- per-kernel GB/s vs seed-style scalar loops ----------------------------

struct KernelCase {
  std::string name;
  std::int64_t n;
  double bytes = 0.0, base_s = 0.0, simd_s = 0.0;
};

template <class Base, class Simd, class Equiv>
KernelCase bench_kernel(const char* name, std::int64_t n, double bytes,
                        Base&& base, Simd&& simd, Equiv&& equiv, bool smoke) {
  equiv();
  const double target = smoke ? 0.0 : 0.05;
  KernelCase c{name, n, bytes};
  c.base_s = time_best(base, target);
  c.simd_s = time_best(simd, target);
  return c;
}

std::vector<KernelCase> bench_kernels(bool smoke, Rng& rng) {
  const std::int64_t n = smoke ? 1011 : 1 << 16;  // odd smoke size: tails
  const std::int64_t rows = smoke ? 7 : 256, cols = smoke ? 13 : 256;
  Tensor x = Tensor::randn(Shape{n}, rng);
  Tensor y(Shape{n}), y2(Shape{n});
  const float* xp = x.data();
  float* yp = y.data();
  float* y2p = y2.data();
  std::vector<KernelCase> out;

  auto check_pair = [&](const char* what) {
    check(bitwise_equal(yp, y2p, n), what);
  };

  out.push_back(bench_kernel(
      "vexp", n, 8.0 * n,
      [&] {
        for (std::int64_t i = 0; i < n; ++i) yp[i] = std::exp(xp[i]);
        escape(yp);
      },
      [&] {
        kernels::vexp(xp, yp, n);
        escape(yp);
      },
      [&] {
        kernels::vexp(xp, yp, n);
        kernels::scalar::vexp(xp, y2p, n);
        check_pair("vexp backend != portable (bitwise)");
      },
      smoke));

  out.push_back(bench_kernel(
      "relu", n, 8.0 * n,
      [&] {
        for (std::int64_t i = 0; i < n; ++i)
          yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
        escape(yp);
      },
      [&] {
        kernels::relu(xp, yp, n);
        escape(yp);
      },
      [&] {
        kernels::relu(xp, yp, n);
        kernels::scalar::relu(xp, y2p, n);
        check_pair("relu backend != portable (bitwise)");
      },
      smoke));

  {
    const gemm::QuantSpec q = quant::LinearQuantizer().make_spec(x, 4);
    out.push_back(bench_kernel(
        "quantize", n, 8.0 * n,
        [&] {
          for (std::int64_t i = 0; i < n; ++i)
            yp[i] = q.step * std::nearbyint(xp[i] * q.inv_step);
          escape(yp);
        },
        [&] {
          kernels::quantize(xp, yp, n, q);
          escape(yp);
        },
        [&] {
          kernels::quantize(xp, yp, n, q);
          kernels::scalar::quantize(xp, y2p, n, q);
          check_pair("quantize backend != portable (bitwise)");
        },
        smoke));
  }

  {
    Tensor mat = Tensor::randn(Shape{rows, cols}, rng);
    Tensor m1 = mat, m2 = mat;  // COW copies, detached on data()
    float* a = m1.data();
    float* b = m2.data();
    const std::int64_t mn = rows * cols;
    out.push_back(bench_kernel(
        "softmax_rows", mn, 16.0 * mn,
        [&] {
          std::memcpy(a, std::as_const(mat).data(), mn * sizeof(float));
          for (std::int64_t r = 0; r < rows; ++r) {
            float* row = a + r * cols;
            float mx = row[0];
            for (std::int64_t c = 1; c < cols; ++c)
              mx = row[c] > mx ? row[c] : mx;
            float s = 0.0f;
            for (std::int64_t c = 0; c < cols; ++c) {
              row[c] = std::exp(row[c] - mx);
              s += row[c];
            }
            const float inv = 1.0f / s;
            for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
          }
          escape(a);
        },
        [&] {
          std::memcpy(a, std::as_const(mat).data(), mn * sizeof(float));
          kernels::softmax_rows(a, rows, cols);
          escape(a);
        },
        [&] {
          std::memcpy(a, std::as_const(mat).data(), mn * sizeof(float));
          std::memcpy(b, std::as_const(mat).data(), mn * sizeof(float));
          kernels::softmax_rows(a, rows, cols);
          kernels::scalar::softmax_rows(b, rows, cols);
          check(bitwise_equal(a, b, mn),
                "softmax_rows backend != portable (bitwise)");
        },
        smoke));

    out.push_back(bench_kernel(
        "l2_normalize_rows", mn, 12.0 * mn,
        [&] {
          std::memcpy(a, std::as_const(mat).data(), mn * sizeof(float));
          for (std::int64_t r = 0; r < rows; ++r) {
            float* row = a + r * cols;
            float ss = 0.0f;
            for (std::int64_t c = 0; c < cols; ++c) ss += row[c] * row[c];
            const float norm = std::sqrt(ss);
            if (norm > 1e-12f) {
              const float inv = 1.0f / norm;
              for (std::int64_t c = 0; c < cols; ++c) row[c] *= inv;
            }
          }
          escape(a);
        },
        [&] {
          std::memcpy(a, std::as_const(mat).data(), mn * sizeof(float));
          kernels::l2_normalize_rows(a, rows, cols, nullptr, 1e-12f);
          escape(a);
        },
        [&] {
          std::memcpy(a, std::as_const(mat).data(), mn * sizeof(float));
          std::memcpy(b, std::as_const(mat).data(), mn * sizeof(float));
          kernels::l2_normalize_rows(a, rows, cols, nullptr, 1e-12f);
          kernels::scalar::l2_normalize_rows(b, rows, cols, nullptr, 1e-12f);
          check(bitwise_equal(a, b, mn),
                "l2_normalize_rows backend != portable (bitwise)");
        },
        smoke));
  }

  {
    Tensor p0 = Tensor::randn(Shape{n}, rng);
    Tensor g = Tensor::randn(Shape{n}, rng);
    Tensor p = p0, v = Tensor::zeros(Shape{n});
    float* pp = p.data();
    float* vp = v.data();
    const float* gp = g.data();
    const float lr = 0.1f, mom = 0.9f, wd = 1e-4f, gs = 0.5f;
    out.push_back(bench_kernel(
        "sgd_update", n, 20.0 * n,
        [&] {
          for (std::int64_t i = 0; i < n; ++i) {
            const float gg = gs * gp[i] + wd * pp[i];
            vp[i] = mom * vp[i] + gg;
            pp[i] -= lr * vp[i];
          }
          escape(pp);
        },
        [&] {
          kernels::sgd_update(pp, gp, vp, n, lr, mom, wd, gs);
          escape(pp);
        },
        [&] {
          Tensor pa = p0, pb = p0;
          Tensor va = Tensor::zeros(Shape{n}), vb = Tensor::zeros(Shape{n});
          kernels::sgd_update(pa.data(), gp, va.data(), n, lr, mom, wd, gs);
          kernels::scalar::sgd_update(pb.data(), gp, vb.data(), n, lr, mom,
                                      wd, gs);
          check(bitwise_equal(std::as_const(pa).data(),
                              std::as_const(pb).data(), n) &&
                    bitwise_equal(std::as_const(va).data(),
                                  std::as_const(vb).data(), n),
                "sgd_update backend != portable (bitwise)");
        },
        smoke));

    Tensor m = Tensor::zeros(Shape{n}), vv = Tensor::zeros(Shape{n});
    float* mp = m.data();
    float* vvp = vv.data();
    const float b1 = 0.9f, b2 = 0.999f, eps = 1e-8f;
    const float bc1 = 1.0f - std::pow(b1, 3), bc2 = 1.0f - std::pow(b2, 3);
    out.push_back(bench_kernel(
        "adam_update", n, 28.0 * n,
        [&] {
          for (std::int64_t i = 0; i < n; ++i) {
            const float gg = gp[i] + wd * pp[i];
            mp[i] = b1 * mp[i] + (1.0f - b1) * gg;
            vvp[i] = b2 * vvp[i] + ((1.0f - b2) * gg) * gg;
            const float mhat = mp[i] / bc1;
            const float vhat = vvp[i] / bc2;
            pp[i] -= (lr * mhat) / (std::sqrt(vhat) + eps);
          }
          escape(pp);
        },
        [&] {
          kernels::adam_update(pp, gp, mp, vvp, n, lr, b1, b2, eps, wd, bc1,
                               bc2);
          escape(pp);
        },
        [&] {
          Tensor pa = p0, pb = p0;
          Tensor ma = Tensor::zeros(Shape{n}), mb = Tensor::zeros(Shape{n});
          Tensor va = Tensor::zeros(Shape{n}), vb = Tensor::zeros(Shape{n});
          kernels::adam_update(pa.data(), gp, ma.data(), va.data(), n, lr, b1,
                               b2, eps, wd, bc1, bc2);
          kernels::scalar::adam_update(pb.data(), gp, mb.data(), vb.data(), n,
                                       lr, b1, b2, eps, wd, bc1, bc2);
          check(bitwise_equal(std::as_const(pa).data(),
                              std::as_const(pb).data(), n),
                "adam_update backend != portable (bitwise)");
        },
        smoke));
  }

  return out;
}

// ---- report ----------------------------------------------------------------

int run(const std::string& path, bool smoke) {
  Rng rng(0xC0DE);
  std::vector<FusedCase> fused;
  // Head-shaped forwards where the seed's separate bias/activation passes
  // are a real fraction of the runtime (small-k projection layers), plus a
  // deeper layer for context.
  if (smoke) {
    fused.push_back(bench_fused_linear(5, 9, 13, smoke, rng));
    fused.push_back(bench_quantized_pack(5, 9, 13, 4, smoke, rng));
  } else {
    fused.push_back(bench_fused_linear(128, 512, 64, smoke, rng));
    fused.push_back(bench_fused_linear(64, 256, 32, smoke, rng));
    fused.push_back(bench_quantized_pack(32, 512, 512, 4, smoke, rng));
    fused.push_back(bench_quantized_pack(32, 512, 512, 8, smoke, rng));
  }
  std::vector<KernelCase> kernels_ = bench_kernels(smoke, rng);

  std::string body;
  char line[512];
  for (std::size_t i = 0; i < fused.size(); ++i) {
    const FusedCase& c = fused[i];
    const double speedup = c.base_s / c.fused_s;
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, "
                  "\"k\": %lld, \"unfused_gflops\": %.3f, "
                  "\"fused_gflops\": %.3f, \"speedup\": %.2f}%s\n",
                  c.name.c_str(), static_cast<long long>(c.m),
                  static_cast<long long>(c.n), static_cast<long long>(c.k),
                  c.flops / c.base_s / 1e9, c.flops / c.fused_s / 1e9,
                  speedup, i + 1 < fused.size() ? "," : "");
    body += line;
    std::fprintf(stderr,
                 "%-24s m=%-4lld n=%-4lld k=%-4lld  unfused %8.3f  fused "
                 "%8.3f GFLOP/s  (%.2fx)\n",
                 c.name.c_str(), static_cast<long long>(c.m),
                 static_cast<long long>(c.n), static_cast<long long>(c.k),
                 c.flops / c.base_s / 1e9, c.flops / c.fused_s / 1e9, speedup);
  }
  std::string kbody;
  for (std::size_t i = 0; i < kernels_.size(); ++i) {
    const KernelCase& c = kernels_[i];
    const double speedup = c.base_s / c.simd_s;
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"n\": %lld, "
                  "\"scalar_gbps\": %.3f, \"simd_gbps\": %.3f, "
                  "\"speedup\": %.2f}%s\n",
                  c.name.c_str(), static_cast<long long>(c.n),
                  c.bytes / c.base_s / 1e9, c.bytes / c.simd_s / 1e9, speedup,
                  i + 1 < kernels_.size() ? "," : "");
    kbody += line;
    std::fprintf(stderr,
                 "%-24s n=%-8lld  scalar %8.3f  simd %8.3f GB/s  (%.2fx)\n",
                 c.name.c_str(), static_cast<long long>(c.n),
                 c.bytes / c.base_s / 1e9, c.bytes / c.simd_s / 1e9, speedup);
  }

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"kernels\",\n";
  std::snprintf(line, sizeof(line),
                "  \"backend\": \"%s\",\n  \"simd_width\": %d,\n",
                kernels::backend(), kernels::simd_width());
  json += line;
  json += "  \"regenerate\": \"build/bench/kernels "
          "--json=bench_out/kernels.json\",\n";
  json += "  \"unfused_baseline\": \"seed pipeline: blocked gemm + "
          "at()-indexed bias pass + separate relu pass; quantized baseline "
          "materializes the weight through the seed scalar Eq. 10 loop\",\n";
  json += "  \"fused_cases\": [\n" + body + "  ],\n";
  json += "  \"kernel_cases\": [\n" + kbody + "  ]\n}\n";
  if (!path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    out << json;
  }
  if (g_failures) {
    std::fprintf(stderr, "%d equivalence check(s) FAILED\n", g_failures);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: kernels [--json=PATH] [--smoke]\n");
      return 2;
    }
  }
  return run(json, smoke);
}
