// Vectorized elementwise / reduction / update kernels on the fixed-width
// VecF type (simd.hpp), shared by ops.cpp, the quantizer, the optimizers and
// the nn layers. Each kernel is written ONCE as a template over the vector
// type and instantiated twice:
//
//   kernels::foo          — the compile-time-detected backend (AVX2+FMA when
//                           the build machine has it, portable otherwise)
//   kernels::scalar::foo  — the portable 8-lane emulation, always built
//
// The two instantiations run the same lane algorithm with IEEE-exact lane
// ops, so their results are BIT-IDENTICAL — asserted by the fuzz suite in
// tests/test_kernels.cpp. This is the repo's determinism contract: a
// scalar-only build (-DCQ_SCALAR_KERNELS=ON) reproduces the SIMD build's
// training trajectories exactly.
//
// Reductions use 8 float lanes with a fixed combining tree. Relative to the
// old sequential double-accumulation loops this reassociates the sum (a
// one-time, deterministic change, covered by the existing tolerance-based
// tests); min/max reductions are order-independent and stay bit-identical
// to the historical loops.
#pragma once

#include <bit>
#include <cstdint>

#include "tensor/gemm.hpp"  // gemm::QuantSpec — shared with quantize-on-pack

namespace cq::kernels {

/// a + b under x86's NaN rule, made explicit: a NaN `a` comes back quieted
/// whatever `b` is. A plain `a + b` leaves the operand order, and so which
/// payload survives NaN + NaN, to the compiler (it treats + as commutative).
inline float add_first(float a, float b) {
  if (a != a)
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) | 0x400000u);
  return a + b;
}

/// Name of the compiled-in default backend: "avx2" or "scalar".
const char* backend();
/// Lane width of the kernel layer (always 8).
int simd_width();

// ---- elementwise math ------------------------------------------------------

/// y = exp(x). Range-reduced degree-5 polynomial, < 2 ulp vs std::exp;
/// identical across backends. Inputs are clamped to the finite exp range
/// ([-87.3, 88.7]): overflow saturates near FLT_MAX, underflow to ~1e-38.
void vexp(const float* x, float* y, std::int64_t n);

/// y = add_first(a, b) lane-wise: a + b, except that a NaN `a` comes back
/// quieted. Any of a, b and y may alias.
void add(const float* a, const float* b, float* y, std::int64_t n);

/// y = max(x, 0) with the exact lane semantics of the historical scalar loop
/// (x > 0 ? x : 0 — NaN maps to 0).
void relu(const float* x, float* y, std::int64_t n);
/// y = min(max(x, 0), cap) (ReLU6-style).
void relu_cap(const float* x, float* y, std::int64_t n, float cap);
/// y = (x > 0) ? g : 0 — the ReLU backward mask.
void relu_grad(const float* x, const float* g, float* y, std::int64_t n);
/// y = (x > 0 && x < cap) ? g : 0.
void relu_cap_grad(const float* x, const float* g, float* y, std::int64_t n,
                   float cap);
/// y = GELU(x), tanh approximation (Hendrycks & Gimpel):
///   0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))
/// with tanh built from the same range-reduced exp as vexp, so the SIMD and
/// scalar backends are bit-identical. x and y may alias.
void gelu(const float* x, float* y, std::int64_t n);
/// y = g * dGELU(x)/dx for the tanh-approximation GELU above.
void gelu_grad(const float* x, const float* g, float* y, std::int64_t n);

// ---- reductions ------------------------------------------------------------

/// Min and max over n elements (order-independent, matches sequential).
void minmax(const float* x, std::int64_t n, float* lo, float* hi);
/// In-place row-wise stabilized softmax of a row-major [rows, cols] matrix.
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);
/// In-place row-wise log-softmax.
void log_softmax_rows(float* x, std::int64_t rows, std::int64_t cols);
/// In-place row L2 normalization; rows with norm <= eps are left unchanged.
/// When `norms` is non-null it receives the per-row norms ([rows] floats).
void l2_normalize_rows(float* x, std::int64_t rows, std::int64_t cols,
                       float* norms, float eps);

// ---- attention -------------------------------------------------------------

/// One attention head, out = softmax(Q K^T * scale) V, with Q, K and V read
/// in place as [seq, dh] matrices of row stride `ld` at q, k and v (one
/// head's columns of fused [seq, 3*dim] qkv rows). `probs` receives the
/// [seq, seq] attention map; out is [seq, dh] with row stride `ldo`. Each
/// product element sums from +0.0 over ascending k, a mul then an add:
/// gemm's per-element order, so for seq, dh <= gemm::kKC (one gemm k-panel)
/// the result equals gemm kNT, the scale, softmax_rows and gemm kNN bit for
/// bit.
void attention_head(const float* q, const float* k, const float* v,
                    std::int64_t ld, std::int64_t seq, std::int64_t dh,
                    float scale, float* probs, float* out, std::int64_t ldo);

// ---- quantization ----------------------------------------------------------

/// y = Eq. 10 affine quantization of x under `q` (gemm::quantize_value
/// lane-wise — bit-identical to the quantize-on-pack GEMM path). Identity
/// specs copy. x and y may alias.
void quantize(const float* x, float* y, std::int64_t n,
              const gemm::QuantSpec& q);
/// Same, additionally writing mask[i] = 0 where x[i] was clamped by the
/// percentile range (1 elsewhere) — the STE clip mask.
void quantize_masked(const float* x, float* y, std::int64_t n,
                     const gemm::QuantSpec& q, std::uint8_t* mask);

// ---- parameter updates -----------------------------------------------------

/// SGD with momentum + decoupled-from-decay gradient scaling, the exact
/// operation sequence of the historical scalar loop (mul/add, no fma):
///   g' = grad_scale * g + wd * p;  v = momentum * v + g';  p -= lr * v.
void sgd_update(float* p, const float* g, float* v, std::int64_t n, float lr,
                float momentum, float wd, float grad_scale);
/// Adam, matching the historical scalar operation sequence:
///   g' = g + wd * p;  m = b1*m + (1-b1)*g';  v = b2*v + (1-b2)*g'*g';
///   p -= lr * (m/bc1) / (sqrt(v/bc2) + eps).
void adam_update(float* p, const float* g, float* m, float* v, std::int64_t n,
                 float lr, float beta1, float beta2, float eps, float wd,
                 float bc1, float bc2);

/// dst[c] += sum over rows of the row-major [rows, cols] matrix, accumulated
/// row-by-row (per-column order identical to the scalar loop) — the bias
/// gradient reduction.
void add_rows(const float* src, std::int64_t rows, std::int64_t cols,
              float* dst);

// ---- portable reference instantiation --------------------------------------

/// The same kernels instantiated on the portable VecPortable backend. Always
/// compiled (even on AVX2 builds) so tests can assert scalar-vs-SIMD bitwise
/// equality at runtime in a single binary.
namespace scalar {
void vexp(const float* x, float* y, std::int64_t n);
void add(const float* a, const float* b, float* y, std::int64_t n);
void relu(const float* x, float* y, std::int64_t n);
void relu_cap(const float* x, float* y, std::int64_t n, float cap);
void relu_grad(const float* x, const float* g, float* y, std::int64_t n);
void relu_cap_grad(const float* x, const float* g, float* y, std::int64_t n,
                   float cap);
void gelu(const float* x, float* y, std::int64_t n);
void gelu_grad(const float* x, const float* g, float* y, std::int64_t n);
void minmax(const float* x, std::int64_t n, float* lo, float* hi);
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);
void log_softmax_rows(float* x, std::int64_t rows, std::int64_t cols);
void attention_head(const float* q, const float* k, const float* v,
                    std::int64_t ld, std::int64_t seq, std::int64_t dh,
                    float scale, float* probs, float* out, std::int64_t ldo);
void l2_normalize_rows(float* x, std::int64_t rows, std::int64_t cols,
                       float* norms, float eps);
void quantize(const float* x, float* y, std::int64_t n,
              const gemm::QuantSpec& q);
void quantize_masked(const float* x, float* y, std::int64_t n,
                     const gemm::QuantSpec& q, std::uint8_t* mask);
void sgd_update(float* p, const float* g, float* v, std::int64_t n, float lr,
                float momentum, float wd, float grad_scale);
void adam_update(float* p, const float* g, float* m, float* v, std::int64_t n,
                 float lr, float beta1, float beta2, float eps, float wd,
                 float bc1, float bc2);
void add_rows(const float* src, std::int64_t rows, std::int64_t cols,
              float* dst);
}  // namespace scalar

}  // namespace cq::kernels
