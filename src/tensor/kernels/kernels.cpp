// Kernel layer implementation. Every kernel is a template over the vector
// type, instantiated once for the detected backend (simd::VecF) and once for
// the portable emulation (simd::VecPortable, exported under kernels::scalar).
//
// This TU is compiled with -march=native -ffp-contract=off (or with
// CQ_FORCE_SCALAR and baseline flags under -DCQ_SCALAR_KERNELS=ON, in which
// case VecF *is* VecPortable and the two instantiations coincide). Tails
// shorter than one vector run scalar lane code built from the same IEEE ops
// (fmaf / nearbyintf / sqrt), so backend choice never changes results.
#include "tensor/kernels/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/trace.hpp"
#include "tensor/kernels/simd.hpp"

namespace cq::kernels {
namespace {

constexpr std::int64_t W = simd::kWidth;

// ---- exp: Cephes-style range reduction + degree-5 polynomial ---------------
//
//   n = round(x * log2(e));  r = x - n*ln2_hi - n*ln2_lo
//   exp(r) = 1 + r + r^2 * P(r),  exp(x) = exp(r) * 2^n
//
// Max error < 2 ulp over the clamped domain. The input clamp keeps 2^n
// constructible from the exponent field: above kExpHi the result saturates
// at exp(kExpHi) ~ 1.7e38, below kExpLo at ~1.2e-38 (the historical
// std::exp path returned inf / denormals there; softmax-style callers
// subtract the row max first so the clamp is never live for them).
constexpr float kExpHi = 88.0f;
constexpr float kExpLo = -87.33654f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

// Scalar replica of the vector lane algorithm — used for loop tails so a
// value produces the same bits whether it lands in a vector or the tail.
inline float exp_lane(float x) {
  x = x < kExpHi ? x : kExpHi;  // x86 min/max semantics, as in simd.hpp
  x = x > kExpLo ? x : kExpLo;
  const float n = std::nearbyint(x * kLog2e);
  float r = std::fmaf(n, -kLn2Hi, x);
  r = std::fmaf(n, -kLn2Lo, r);
  float p = kExpC0;
  p = std::fmaf(p, r, kExpC1);
  p = std::fmaf(p, r, kExpC2);
  p = std::fmaf(p, r, kExpC3);
  p = std::fmaf(p, r, kExpC4);
  p = std::fmaf(p, r, kExpC5);
  const float y = std::fmaf(p, r * r, r) + 1.0f;
  return y * std::bit_cast<float>(
                 (static_cast<std::int32_t>(n) + 127) << 23);
}

template <class V>
inline V exp_vec(V x) {
  x = V::min(x, V::broadcast(kExpHi));
  x = V::max(x, V::broadcast(kExpLo));
  const V n = V::round_nearest(x * V::broadcast(kLog2e));
  V r = V::fma(n, V::broadcast(-kLn2Hi), x);
  r = V::fma(n, V::broadcast(-kLn2Lo), r);
  V p = V::broadcast(kExpC0);
  p = V::fma(p, r, V::broadcast(kExpC1));
  p = V::fma(p, r, V::broadcast(kExpC2));
  p = V::fma(p, r, V::broadcast(kExpC3));
  p = V::fma(p, r, V::broadcast(kExpC4));
  p = V::fma(p, r, V::broadcast(kExpC5));
  const V y = V::fma(p, r * r, r) + V::broadcast(1.0f);
  return y * V::exp2_int(n);
}

// ---- elementwise templates -------------------------------------------------

template <class V>
void vexp_t(const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + W <= n; i += W) exp_vec(V::load(x + i)).store(y + i);
  for (; i < n; ++i) y[i] = exp_lane(x[i]);
}

template <class V>
void relu_t(const float* x, float* y, std::int64_t n) {
  const V zero = V::zero();
  std::int64_t i = 0;
  for (; i + W <= n; i += W) V::max(V::load(x + i), zero).store(y + i);
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

template <class V>
void relu_cap_t(const float* x, float* y, std::int64_t n, float cap) {
  const V zero = V::zero(), capv = V::broadcast(cap);
  std::int64_t i = 0;
  for (; i + W <= n; i += W)
    V::min(V::max(V::load(x + i), zero), capv).store(y + i);
  for (; i < n; ++i) {
    float v = x[i] > 0.0f ? x[i] : 0.0f;
    y[i] = v < cap ? v : cap;
  }
}

template <class V>
void add_t(const float* a, const float* b, float* y, std::int64_t n) {
  const V quiet = V::broadcast(std::bit_cast<float>(0x400000u));
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const V av = V::load(a + i);
    V::blend(V::is_nan(av), V::bit_or(av, quiet), av + V::load(b + i))
        .store(y + i);
  }
  for (; i < n; ++i) y[i] = add_first(a[i], b[i]);
}

template <class V>
void relu_grad_t(const float* x, const float* g, float* y, std::int64_t n) {
  const V zero = V::zero();
  std::int64_t i = 0;
  for (; i + W <= n; i += W)
    V::bit_and(V::cmp_gt(V::load(x + i), zero), V::load(g + i)).store(y + i);
  for (; i < n; ++i) y[i] = x[i] > 0.0f ? g[i] : 0.0f;
}

template <class V>
void relu_cap_grad_t(const float* x, const float* g, float* y, std::int64_t n,
                     float cap) {
  const V zero = V::zero(), capv = V::broadcast(cap);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const V xv = V::load(x + i);
    const V mask = V::bit_and(V::cmp_gt(xv, zero), V::cmp_lt(xv, capv));
    V::bit_and(mask, V::load(g + i)).store(y + i);
  }
  for (; i < n; ++i) y[i] = (x[i] > 0.0f && x[i] < cap) ? g[i] : 0.0f;
}

// ---- GELU (tanh approximation) ---------------------------------------------
//
//   u = sqrt(2/pi) * (x + 0.044715 x^3),  gelu(x) = 0.5 x (1 + tanh(u))
//
// tanh is built from the range-reduced exp above (tanh(u) =
// (1 - e^{-2u}) / (1 + e^{-2u})), so both backends inherit its bit-exact
// lane semantics. The exp input clamp saturates tanh to ±1 well before the
// clamp bounds matter (|u| > ~9 already rounds to ±1 in float).
constexpr float kGeluA = 0.044715f;
constexpr float kGelu3A = 3.0f * kGeluA;
constexpr float kSqrt2OverPi = 0.7978845608028654f;

inline float tanh_lane(float u) {
  const float e = exp_lane(-2.0f * u);
  return (1.0f - e) / (1.0f + e);
}

template <class V>
inline V tanh_vec(V u) {
  const V e = exp_vec(V::broadcast(-2.0f) * u);
  const V one = V::broadcast(1.0f);
  return (one - e) / (one + e);
}

inline float gelu_lane(float x) {
  const float x2 = x * x;
  const float u = kSqrt2OverPi * std::fmaf(kGeluA * x2, x, x);
  return (0.5f * x) * (1.0f + tanh_lane(u));
}

template <class V>
inline V gelu_vec(V x) {
  const V x2 = x * x;
  const V u = V::broadcast(kSqrt2OverPi) *
              V::fma(V::broadcast(kGeluA) * x2, x, x);
  return (V::broadcast(0.5f) * x) *
         (V::broadcast(1.0f) + tanh_vec(u));
}

template <class V>
void gelu_t(const float* x, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + W <= n; i += W) gelu_vec(V::load(x + i)).store(y + i);
  for (; i < n; ++i) y[i] = gelu_lane(x[i]);
}

//   dgelu/dx = 0.5 (1 + t) + 0.5 x (1 - t^2) u',  t = tanh(u),
//   u' = sqrt(2/pi) (1 + 3*0.044715 x^2)
inline float gelu_grad_lane(float x, float g) {
  const float x2 = x * x;
  const float u = kSqrt2OverPi * std::fmaf(kGeluA * x2, x, x);
  const float t = tanh_lane(u);
  const float du = kSqrt2OverPi * std::fmaf(kGelu3A, x2, 1.0f);
  const float sech2 = 1.0f - t * t;
  const float d = std::fmaf(0.5f * x, sech2 * du, 0.5f * (1.0f + t));
  return g * d;
}

template <class V>
inline V gelu_grad_vec(V x, V g) {
  const V one = V::broadcast(1.0f), half = V::broadcast(0.5f);
  const V x2 = x * x;
  const V u = V::broadcast(kSqrt2OverPi) *
              V::fma(V::broadcast(kGeluA) * x2, x, x);
  const V t = tanh_vec(u);
  const V du = V::broadcast(kSqrt2OverPi) *
               V::fma(V::broadcast(kGelu3A), x2, one);
  const V sech2 = one - t * t;
  const V d = V::fma(half * x, sech2 * du, half * (one + t));
  return g * d;
}

template <class V>
void gelu_grad_t(const float* x, const float* g, float* y, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + W <= n; i += W)
    gelu_grad_vec(V::load(x + i), V::load(g + i)).store(y + i);
  for (; i < n; ++i) y[i] = gelu_grad_lane(x[i], g[i]);
}

// ---- reduction templates ---------------------------------------------------

inline float max2(float a, float b) { return a > b ? a : b; }
inline float min2(float a, float b) { return a < b ? a : b; }

template <class V>
void minmax_t(const float* x, std::int64_t n, float* lo, float* hi) {
  if (n <= 0) {
    *lo = *hi = 0.0f;
    return;
  }
  float l = x[0], h = x[0];
  std::int64_t i = 0;
  if (n >= W) {
    V lv = V::load(x), hv = lv;
    for (i = W; i + W <= n; i += W) {
      const V v = V::load(x + i);
      lv = V::min(lv, v);
      hv = V::max(hv, v);
    }
    l = lv.hmin();
    h = hv.hmax();
  }
  for (; i < n; ++i) {
    l = min2(l, x[i]);
    h = max2(h, x[i]);
  }
  *lo = l;
  *hi = h;
}

template <class V>
float row_max(const float* x, std::int64_t n) {
  float m = x[0];
  std::int64_t i = 0;
  if (n >= W) {
    V mv = V::load(x);
    for (i = W; i + W <= n; i += W) mv = V::max(mv, V::load(x + i));
    m = mv.hmax();
  }
  for (; i < n; ++i) m = max2(m, x[i]);
  return m;
}

// exp(x - m) written in place; returns the sum of the exponentials.
template <class V>
float exp_sub_sum(float* x, std::int64_t n, float m) {
  const V mv = V::broadcast(m);
  V acc = V::zero();
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const V e = exp_vec(V::load(x + i) - mv);
    e.store(x + i);
    acc = acc + e;
  }
  float s = acc.hsum();
  for (; i < n; ++i) {
    const float e = exp_lane(x[i] - m);
    x[i] = e;
    s += e;
  }
  return s;
}

template <class V>
void softmax_rows_t(float* x, std::int64_t rows, std::int64_t cols) {
  if (cols <= 0) return;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    const float m = row_max<V>(row, cols);
    const float s = exp_sub_sum<V>(row, cols, m);
    const V sv = V::broadcast(s);
    std::int64_t i = 0;
    for (; i + W <= cols; i += W) (V::load(row + i) / sv).store(row + i);
    for (; i < cols; ++i) row[i] /= s;
  }
}

// ---- attention -------------------------------------------------------------

// The first n lanes from p, the rest zero; and its store twin. Full vectors
// load and store directly.
template <class V>
V load_n(const float* p, std::int64_t n) {
  if (n == W) return V::load(p);
  float t[W] = {};
  std::memcpy(t, p, static_cast<std::size_t>(n) * sizeof(float));
  return V::load(t);
}

template <class V>
void store_n(V x, float* p, std::int64_t n) {
  if (n == W) {
    x.store(p);
    return;
  }
  float t[W];
  x.store(t);
  std::memcpy(p, t, static_cast<std::size_t>(n) * sizeof(float));
}

// Query rows per register block: independent accumulator chains.
constexpr std::int64_t kAttnRows = 4;
// Key dims per transposed key tile; longer heads carry partial sums through
// `probs`, which stores them exactly.
constexpr std::int64_t kAttnDims = 64;

// Both products walk rows kAttnRows at a time (a short last block repeats
// row seq - 1 and discards it) and columns W lanes at a time; each lane sums
// from +0.0 over ascending k, a mul then an add.
template <class V>
void attention_head_t(const float* q, const float* k, const float* v,
                      std::int64_t ld, std::int64_t seq, std::int64_t dh,
                      float scale, float* probs, float* out,
                      std::int64_t ldo) {
  // probs = Q K^T * scale, W keys per step. The keys' dims are transposed
  // into kt once per tile so the k-walk reads one key per lane.
  for (std::int64_t j0 = 0; j0 < seq; j0 += W) {
    const std::int64_t nj = std::min(W, seq - j0);
    for (std::int64_t p0 = 0; p0 < dh; p0 += kAttnDims) {
      const std::int64_t np = std::min(kAttnDims, dh - p0);
      float kt[kAttnDims * W];
      for (std::int64_t p = 0; p < np; ++p)
        for (std::int64_t j = 0; j < W; ++j)
          kt[p * W + j] = j < nj ? k[(j0 + j) * ld + p0 + p] : 0.0f;
      const bool last = p0 + np == dh;
      for (std::int64_t i0 = 0; i0 < seq; i0 += kAttnRows) {
        const float* qr[kAttnRows];
        V acc[kAttnRows];
        for (std::int64_t r = 0; r < kAttnRows; ++r) {
          const std::int64_t i = std::min(i0 + r, seq - 1);
          qr[r] = q + i * ld + p0;
          acc[r] = p0 == 0 ? V::zero() : load_n<V>(probs + i * seq + j0, nj);
        }
        for (std::int64_t p = 0; p < np; ++p) {
          const V kv = V::load(kt + p * W);
          for (std::int64_t r = 0; r < kAttnRows; ++r)
            acc[r] = acc[r] + V::broadcast(qr[r][p]) * kv;
        }
        for (std::int64_t r = 0; r < kAttnRows && i0 + r < seq; ++r)
          store_n(last ? acc[r] * V::broadcast(scale) : acc[r],
                  probs + (i0 + r) * seq + j0, nj);
      }
    }
  }
  softmax_rows_t<V>(probs, seq, seq);
  // out = probs V, W value dims per step, each value row read in place.
  for (std::int64_t c0 = 0; c0 < dh; c0 += W) {
    const std::int64_t nc = std::min(W, dh - c0);
    for (std::int64_t i0 = 0; i0 < seq; i0 += kAttnRows) {
      const float* pr[kAttnRows];
      V acc[kAttnRows];
      for (std::int64_t r = 0; r < kAttnRows; ++r) {
        pr[r] = probs + std::min(i0 + r, seq - 1) * seq;
        acc[r] = V::zero();
      }
      for (std::int64_t j = 0; j < seq; ++j) {
        const V vv = load_n<V>(v + j * ld + c0, nc);
        for (std::int64_t r = 0; r < kAttnRows; ++r)
          acc[r] = acc[r] + V::broadcast(pr[r][j]) * vv;
      }
      for (std::int64_t r = 0; r < kAttnRows && i0 + r < seq; ++r)
        store_n(acc[r], out + (i0 + r) * ldo + c0, nc);
    }
  }
}

template <class V>
void log_softmax_rows_t(float* x, std::int64_t rows, std::int64_t cols) {
  if (cols <= 0) return;
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    const float m = row_max<V>(row, cols);
    // Sum of exp(x - m) without materializing the exponentials.
    const V mv = V::broadcast(m);
    V acc = V::zero();
    std::int64_t i = 0;
    for (; i + W <= cols; i += W)
      acc = acc + exp_vec(V::load(row + i) - mv);
    float s = acc.hsum();
    for (; i < cols; ++i) s += exp_lane(row[i] - m);
    const float shift = m + std::log(s);
    const V shiftv = V::broadcast(shift);
    for (i = 0; i + W <= cols; i += W)
      (V::load(row + i) - shiftv).store(row + i);
    for (; i < cols; ++i) row[i] -= shift;
  }
}

template <class V>
void l2_normalize_rows_t(float* x, std::int64_t rows, std::int64_t cols,
                         float* norms, float eps) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    V acc = V::zero();
    std::int64_t i = 0;
    for (; i + W <= cols; i += W) {
      const V v = V::load(row + i);
      acc = V::fma(v, v, acc);
    }
    float s = acc.hsum();
    for (; i < cols; ++i) s = std::fmaf(row[i], row[i], s);
    const float norm = std::sqrt(s);
    if (norms != nullptr) norms[r] = norm;
    if (norm > eps) {
      const float inv = 1.0f / norm;
      const V iv = V::broadcast(inv);
      for (i = 0; i + W <= cols; i += W)
        (V::load(row + i) * iv).store(row + i);
      for (; i < cols; ++i) row[i] *= inv;
    }
  }
}

// ---- quantization templates ------------------------------------------------

template <class V>
void quantize_t(const float* x, float* y, std::int64_t n,
                const gemm::QuantSpec& q) {
  if (q.identity) {
    if (y != x) std::memcpy(y, x, static_cast<std::size_t>(n) * sizeof(float));
    return;
  }
  const V lov = V::broadcast(q.lo), hiv = V::broadcast(q.hi);
  const V inv = V::broadcast(q.inv_step), stepv = V::broadcast(q.step);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    V v = V::load(x + i);
    if (q.clip) v = V::max(V::min(v, hiv), lov);
    const V r = q.nearest ? V::round_nearest(v * inv) : V::floor(v * inv);
    (stepv * r).store(y + i);
  }
  for (; i < n; ++i) y[i] = gemm::quantize_value(x[i], q);
}

template <class V>
void quantize_masked_t(const float* x, float* y, std::int64_t n,
                       const gemm::QuantSpec& q, std::uint8_t* mask) {
  if (q.identity || !q.clip) {
    quantize_t<V>(x, y, n, q);
    std::memset(mask, 1, static_cast<std::size_t>(n));
    return;
  }
  const V lov = V::broadcast(q.lo), hiv = V::broadcast(q.hi);
  const V inv = V::broadcast(q.inv_step), stepv = V::broadcast(q.step);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const V v0 = V::load(x + i);
    // Mask from the pre-clamp values; x may alias y, so derive it before the
    // quantized store below overwrites the chunk.
    float orig[W];
    v0.store(orig);
    for (std::int64_t j = 0; j < W; ++j)
      mask[i + j] = (orig[j] < q.lo || orig[j] > q.hi) ? 0 : 1;
    const V v = V::max(V::min(v0, hiv), lov);
    const V r = q.nearest ? V::round_nearest(v * inv) : V::floor(v * inv);
    (stepv * r).store(y + i);
  }
  for (; i < n; ++i) {
    const float v = x[i];
    mask[i] = (v < q.lo || v > q.hi) ? 0 : 1;
    y[i] = gemm::quantize_value(v, q);
  }
}

// ---- parameter update templates --------------------------------------------
//
// These reproduce the historical scalar loops' operation sequence exactly
// (independent mul/add, never fma — the baseline x86-64 build of the old
// loops had no FMA instruction), so switching the optimizers to the kernel
// layer does not move any training trajectory.

template <class V>
void sgd_update_t(float* p, const float* g, float* v, std::int64_t n, float lr,
                  float momentum, float wd, float grad_scale) {
  const V lrv = V::broadcast(lr), mov = V::broadcast(momentum);
  const V wdv = V::broadcast(wd), gsv = V::broadcast(grad_scale);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const V pv = V::load(p + i);
    const V gv = gsv * V::load(g + i) + wdv * pv;
    const V vv = mov * V::load(v + i) + gv;
    vv.store(v + i);
    (pv - lrv * vv).store(p + i);
  }
  for (; i < n; ++i) {
    const float gi = grad_scale * g[i] + wd * p[i];
    v[i] = momentum * v[i] + gi;
    p[i] -= lr * v[i];
  }
}

template <class V>
void adam_update_t(float* p, const float* g, float* m, float* v,
                   std::int64_t n, float lr, float beta1, float beta2,
                   float eps, float wd, float bc1, float bc2) {
  const V b1 = V::broadcast(beta1), c1 = V::broadcast(1.0f - beta1);
  const V b2 = V::broadcast(beta2), c2 = V::broadcast(1.0f - beta2);
  const V lrv = V::broadcast(lr), epsv = V::broadcast(eps);
  const V wdv = V::broadcast(wd);
  const V ibc1 = V::broadcast(bc1), ibc2 = V::broadcast(bc2);
  std::int64_t i = 0;
  for (; i + W <= n; i += W) {
    const V pv = V::load(p + i);
    const V gv = V::load(g + i) + wdv * pv;
    const V mv = b1 * V::load(m + i) + c1 * gv;
    const V vv = b2 * V::load(v + i) + c2 * gv * gv;  // ((1-b2)*g)*g order
    mv.store(m + i);
    vv.store(v + i);
    const V mhat = mv / ibc1;
    const V vhat = vv / ibc2;
    (pv - (lrv * mhat) / (V::sqrt(vhat) + epsv)).store(p + i);
  }
  for (; i < n; ++i) {
    const float gi = g[i] + wd * p[i];
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    const float mhat = m[i] / bc1;
    const float vhat = v[i] / bc2;
    p[i] -= (lr * mhat) / (std::sqrt(vhat) + eps);
  }
}

template <class V>
void add_rows_t(const float* src, std::int64_t rows, std::int64_t cols,
                float* dst) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * cols;
    std::int64_t i = 0;
    for (; i + W <= cols; i += W)
      (V::load(dst + i) + V::load(row + i)).store(dst + i);
    for (; i < cols; ++i) dst[i] += row[i];
  }
}

}  // namespace

const char* backend() { return simd::kBackend; }
int simd_width() { return simd::kWidth; }

// Default backend entry points.
using simd::VecF;

void vexp(const float* x, float* y, std::int64_t n) { vexp_t<VecF>(x, y, n); }
void relu(const float* x, float* y, std::int64_t n) { relu_t<VecF>(x, y, n); }
void add(const float* a, const float* b, float* y, std::int64_t n) {
  add_t<VecF>(a, b, y, n);
}
void relu_cap(const float* x, float* y, std::int64_t n, float cap) {
  relu_cap_t<VecF>(x, y, n, cap);
}
void relu_grad(const float* x, const float* g, float* y, std::int64_t n) {
  relu_grad_t<VecF>(x, g, y, n);
}
void relu_cap_grad(const float* x, const float* g, float* y, std::int64_t n,
                   float cap) {
  relu_cap_grad_t<VecF>(x, g, y, n, cap);
}
void gelu(const float* x, float* y, std::int64_t n) {
  CQ_TRACE_SCOPE_BYTES("kernels.gelu", 2 * n * sizeof(float));
  gelu_t<VecF>(x, y, n);
}
void gelu_grad(const float* x, const float* g, float* y, std::int64_t n) {
  CQ_TRACE_SCOPE_BYTES("kernels.gelu_grad", 3 * n * sizeof(float));
  gelu_grad_t<VecF>(x, g, y, n);
}
void minmax(const float* x, std::int64_t n, float* lo, float* hi) {
  minmax_t<VecF>(x, n, lo, hi);
}
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  CQ_TRACE_SCOPE_BYTES("kernels.softmax_rows", rows * cols * sizeof(float));
  softmax_rows_t<VecF>(x, rows, cols);
}
void attention_head(const float* q, const float* k, const float* v,
                    std::int64_t ld, std::int64_t seq, std::int64_t dh,
                    float scale, float* probs, float* out, std::int64_t ldo) {
  CQ_TRACE_SCOPE_HOT_BYTES("kernels.attention_head",
                           (3 * seq * dh + seq * seq) * sizeof(float));
  attention_head_t<VecF>(q, k, v, ld, seq, dh, scale, probs, out, ldo);
}
void log_softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  CQ_TRACE_SCOPE_BYTES("kernels.log_softmax_rows",
                       rows * cols * sizeof(float));
  log_softmax_rows_t<VecF>(x, rows, cols);
}
void l2_normalize_rows(float* x, std::int64_t rows, std::int64_t cols,
                       float* norms, float eps) {
  CQ_TRACE_SCOPE_BYTES("kernels.l2_normalize_rows",
                       rows * cols * sizeof(float));
  l2_normalize_rows_t<VecF>(x, rows, cols, norms, eps);
}
void quantize(const float* x, float* y, std::int64_t n,
              const gemm::QuantSpec& q) {
  CQ_TRACE_SCOPE_BYTES("kernels.quantize", 2 * n * sizeof(float));
  quantize_t<VecF>(x, y, n, q);
}
void quantize_masked(const float* x, float* y, std::int64_t n,
                     const gemm::QuantSpec& q, std::uint8_t* mask) {
  CQ_TRACE_SCOPE_BYTES("kernels.quantize", 2 * n * sizeof(float));
  quantize_masked_t<VecF>(x, y, n, q, mask);
}
void sgd_update(float* p, const float* g, float* v, std::int64_t n, float lr,
                float momentum, float wd, float grad_scale) {
  CQ_TRACE_SCOPE_BYTES("kernels.sgd_update", 3 * n * sizeof(float));
  sgd_update_t<VecF>(p, g, v, n, lr, momentum, wd, grad_scale);
}
void adam_update(float* p, const float* g, float* m, float* v, std::int64_t n,
                 float lr, float beta1, float beta2, float eps, float wd,
                 float bc1, float bc2) {
  CQ_TRACE_SCOPE_BYTES("kernels.adam_update", 4 * n * sizeof(float));
  adam_update_t<VecF>(p, g, m, v, n, lr, beta1, beta2, eps, wd, bc1, bc2);
}
void add_rows(const float* src, std::int64_t rows, std::int64_t cols,
              float* dst) {
  add_rows_t<VecF>(src, rows, cols, dst);
}

// Portable reference entry points (same code on VecPortable).
namespace scalar {
using simd::VecPortable;

void vexp(const float* x, float* y, std::int64_t n) {
  vexp_t<VecPortable>(x, y, n);
}
void relu(const float* x, float* y, std::int64_t n) {
  relu_t<VecPortable>(x, y, n);
}
void add(const float* a, const float* b, float* y, std::int64_t n) {
  add_t<VecPortable>(a, b, y, n);
}
void relu_cap(const float* x, float* y, std::int64_t n, float cap) {
  relu_cap_t<VecPortable>(x, y, n, cap);
}
void relu_grad(const float* x, const float* g, float* y, std::int64_t n) {
  relu_grad_t<VecPortable>(x, g, y, n);
}
void relu_cap_grad(const float* x, const float* g, float* y, std::int64_t n,
                   float cap) {
  relu_cap_grad_t<VecPortable>(x, g, y, n, cap);
}
void gelu(const float* x, float* y, std::int64_t n) {
  gelu_t<VecPortable>(x, y, n);
}
void gelu_grad(const float* x, const float* g, float* y, std::int64_t n) {
  gelu_grad_t<VecPortable>(x, g, y, n);
}
void minmax(const float* x, std::int64_t n, float* lo, float* hi) {
  minmax_t<VecPortable>(x, n, lo, hi);
}
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  softmax_rows_t<VecPortable>(x, rows, cols);
}
void attention_head(const float* q, const float* k, const float* v,
                    std::int64_t ld, std::int64_t seq, std::int64_t dh,
                    float scale, float* probs, float* out, std::int64_t ldo) {
  attention_head_t<VecPortable>(q, k, v, ld, seq, dh, scale, probs, out, ldo);
}
void log_softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  log_softmax_rows_t<VecPortable>(x, rows, cols);
}
void l2_normalize_rows(float* x, std::int64_t rows, std::int64_t cols,
                       float* norms, float eps) {
  l2_normalize_rows_t<VecPortable>(x, rows, cols, norms, eps);
}
void quantize(const float* x, float* y, std::int64_t n,
              const gemm::QuantSpec& q) {
  quantize_t<VecPortable>(x, y, n, q);
}
void quantize_masked(const float* x, float* y, std::int64_t n,
                     const gemm::QuantSpec& q, std::uint8_t* mask) {
  quantize_masked_t<VecPortable>(x, y, n, q, mask);
}
void sgd_update(float* p, const float* g, float* v, std::int64_t n, float lr,
                float momentum, float wd, float grad_scale) {
  sgd_update_t<VecPortable>(p, g, v, n, lr, momentum, wd, grad_scale);
}
void adam_update(float* p, const float* g, float* m, float* v, std::int64_t n,
                 float lr, float beta1, float beta2, float eps, float wd,
                 float bc1, float bc2) {
  adam_update_t<VecPortable>(p, g, m, v, n, lr, beta1, beta2, eps, wd, bc1,
                             bc2);
}
void add_rows(const float* src, std::int64_t rows, std::int64_t cols,
              float* dst) {
  add_rows_t<VecPortable>(src, rows, cols, dst);
}
}  // namespace scalar

}  // namespace cq::kernels
