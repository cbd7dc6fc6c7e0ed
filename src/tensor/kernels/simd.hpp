// Fixed-width SIMD vector abstraction for the kernel layer.
//
// Two interchangeable 8-lane float32 vector types:
//   VecAvx2     — __m256 wrapper (compiled in only when the TU has AVX2)
//   VecPortable — float[8] emulation of the exact same lane semantics
// and `VecF`, the compile-time-selected backend. Kernels are written once as
// templates over the vector type (kernels.cpp) and instantiated for both, so
// the portable build and the AVX2 build run the same 8-lane algorithm.
//
// DETERMINISM CONTRACT: every op here is specified lane-wise with IEEE-754
// single-precision semantics, so VecPortable and VecAvx2 produce bit-identical
// results — including the NaN/zero conventions of the x86 min/max
// instructions (min/max return the SECOND operand on NaN or equal-magnitude
// signed zeros) and correctly-rounded fma/sqrt/div. Horizontal reductions fix
// one explicit combining tree. This is what lets tests assert bitwise
// equality between the scalar and SIMD paths, and keeps training runs
// reproducible across build machines (see src/CMakeLists.txt on fp
// contraction).
//
// This header is internal to the kernel TUs (kernels.cpp, gemm.cpp), which
// are all compiled with the same flags; do not include it from headers or
// TUs built with the portable baseline flags, or `VecF` would name different
// types across the library (ODR).
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#if !defined(CQ_FORCE_SCALAR) && defined(__AVX2__)
#include <immintrin.h>
#define CQ_SIMD_AVX2 1
#endif

namespace cq::simd {

/// Lane count of VecF. Fixed at 8 (one AVX2 register) for every backend so
/// remainder handling and reduction trees are identical everywhere.
inline constexpr int kWidth = 8;

// ---- portable backend ------------------------------------------------------

struct VecPortable {
  float lane[kWidth];

  static VecPortable load(const float* p) {
    VecPortable r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static VecPortable broadcast(float v) {
    VecPortable r;
    for (float& l : r.lane) l = v;
    return r;
  }
  static VecPortable zero() { return broadcast(0.0f); }
  void store(float* p) const { std::memcpy(p, lane, sizeof(lane)); }

  friend VecPortable operator+(VecPortable a, VecPortable b) {
    for (int i = 0; i < kWidth; ++i) a.lane[i] += b.lane[i];
    return a;
  }
  friend VecPortable operator-(VecPortable a, VecPortable b) {
    for (int i = 0; i < kWidth; ++i) a.lane[i] -= b.lane[i];
    return a;
  }
  friend VecPortable operator*(VecPortable a, VecPortable b) {
    for (int i = 0; i < kWidth; ++i) a.lane[i] *= b.lane[i];
    return a;
  }
  friend VecPortable operator/(VecPortable a, VecPortable b) {
    for (int i = 0; i < kWidth; ++i) a.lane[i] /= b.lane[i];
    return a;
  }

  /// x86 semantics: (a OP b) ? a : b — returns b when unordered (NaN).
  static VecPortable min(VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }
  static VecPortable max(VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    return r;
  }

  /// Correctly-rounded fused multiply-add: a*b + c in one rounding step
  /// (std::fmaf is correct-rounded; matches vfmadd231ps bitwise).
  static VecPortable fma(VecPortable a, VecPortable b, VecPortable c) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::fmaf(a.lane[i], b.lane[i], c.lane[i]);
    return r;
  }

  static VecPortable sqrt(VecPortable a) {
    for (float& l : a.lane) l = std::sqrt(l);
    return a;
  }
  static VecPortable round_nearest(VecPortable a) {  // half-to-even
    for (float& l : a.lane) l = std::nearbyint(l);
    return a;
  }
  static VecPortable floor(VecPortable a) {
    for (float& l : a.lane) l = std::floor(l);
    return a;
  }

  /// All-bits lane mask: a > b (ordered). Unordered compares to false.
  static VecPortable cmp_gt(VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::bit_cast<float>(
          a.lane[i] > b.lane[i] ? std::uint32_t{0xFFFFFFFFu} : 0u);
    return r;
  }
  static VecPortable cmp_lt(VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::bit_cast<float>(
          a.lane[i] < b.lane[i] ? std::uint32_t{0xFFFFFFFFu} : 0u);
    return r;
  }
  /// All-bits lane mask: a is NaN.
  static VecPortable is_nan(VecPortable a) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::bit_cast<float>(
          a.lane[i] != a.lane[i] ? std::uint32_t{0xFFFFFFFFu} : 0u);
    return r;
  }
  static VecPortable bit_or(VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a.lane[i]) |
                                       std::bit_cast<std::uint32_t>(b.lane[i]));
    return r;
  }
  static VecPortable bit_and(VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(a.lane[i]) &
                                       std::bit_cast<std::uint32_t>(b.lane[i]));
    return r;
  }
  /// mask ? a : b, lane-wise (mask lanes are all-ones / all-zeros).
  static VecPortable blend(VecPortable mask, VecPortable a, VecPortable b) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i)
      r.lane[i] = std::bit_cast<std::uint32_t>(mask.lane[i]) ? a.lane[i]
                                                             : b.lane[i];
    return r;
  }

  /// 2^n for n a small integral-valued float (|n| <= 127): exponent-field
  /// construction, matching the integer pipeline of the AVX2 backend.
  static VecPortable exp2_int(VecPortable n) {
    VecPortable r;
    for (int i = 0; i < kWidth; ++i) {
      const std::int32_t e = static_cast<std::int32_t>(n.lane[i]);
      r.lane[i] = std::bit_cast<float>((e + 127) << 23);
    }
    return r;
  }

  /// Horizontal sum with the fixed tree ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))
  /// — the cheapest shape for AVX2 (extract-high + movehl + shuffle).
  float hsum() const {
    const float t0 = lane[0] + lane[4], t1 = lane[1] + lane[5];
    const float t2 = lane[2] + lane[6], t3 = lane[3] + lane[7];
    return (t0 + t2) + (t1 + t3);
  }
  float hmax() const {
    const float t0 = max2(lane[0], lane[4]), t1 = max2(lane[1], lane[5]);
    const float t2 = max2(lane[2], lane[6]), t3 = max2(lane[3], lane[7]);
    return max2(max2(t0, t2), max2(t1, t3));
  }
  float hmin() const {
    const float t0 = min2(lane[0], lane[4]), t1 = min2(lane[1], lane[5]);
    const float t2 = min2(lane[2], lane[6]), t3 = min2(lane[3], lane[7]);
    return min2(min2(t0, t2), min2(t1, t3));
  }

 private:
  static float max2(float a, float b) { return a > b ? a : b; }
  static float min2(float a, float b) { return a < b ? a : b; }
};

// ---- AVX2 backend ----------------------------------------------------------

#ifdef CQ_SIMD_AVX2

struct VecAvx2 {
  __m256 v;

  static VecAvx2 load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static VecAvx2 broadcast(float x) { return {_mm256_set1_ps(x)}; }
  static VecAvx2 zero() { return {_mm256_setzero_ps()}; }
  void store(float* p) const { _mm256_storeu_ps(p, v); }

  friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b) {
    return {_mm256_add_ps(a.v, b.v)};
  }
  friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b) {
    return {_mm256_sub_ps(a.v, b.v)};
  }
  friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b) {
    return {_mm256_mul_ps(a.v, b.v)};
  }
  friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b) {
    return {_mm256_div_ps(a.v, b.v)};
  }

  static VecAvx2 min(VecAvx2 a, VecAvx2 b) {
    return {_mm256_min_ps(a.v, b.v)};
  }
  static VecAvx2 max(VecAvx2 a, VecAvx2 b) {
    return {_mm256_max_ps(a.v, b.v)};
  }
  static VecAvx2 fma(VecAvx2 a, VecAvx2 b, VecAvx2 c) {
#ifdef __FMA__
    return {_mm256_fmadd_ps(a.v, b.v, c.v)};
#else
    // No-FMA AVX2 target: fall back to the correctly-rounded libm fma so
    // results still match the portable backend bitwise.
    VecAvx2 r;
    alignas(32) float aa[kWidth], bb[kWidth], cc[kWidth], rr[kWidth];
    _mm256_store_ps(aa, a.v);
    _mm256_store_ps(bb, b.v);
    _mm256_store_ps(cc, c.v);
    for (int i = 0; i < kWidth; ++i) rr[i] = std::fmaf(aa[i], bb[i], cc[i]);
    r.v = _mm256_load_ps(rr);
    return r;
#endif
  }

  static VecAvx2 sqrt(VecAvx2 a) { return {_mm256_sqrt_ps(a.v)}; }
  static VecAvx2 round_nearest(VecAvx2 a) {
    return {_mm256_round_ps(a.v, _MM_FROUND_TO_NEAREST_INT |
                                     _MM_FROUND_NO_EXC)};
  }
  static VecAvx2 floor(VecAvx2 a) { return {_mm256_floor_ps(a.v)}; }

  static VecAvx2 cmp_gt(VecAvx2 a, VecAvx2 b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_GT_OQ)};
  }
  static VecAvx2 cmp_lt(VecAvx2 a, VecAvx2 b) {
    return {_mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ)};
  }
  static VecAvx2 is_nan(VecAvx2 a) {
    return {_mm256_cmp_ps(a.v, a.v, _CMP_UNORD_Q)};
  }
  static VecAvx2 bit_or(VecAvx2 a, VecAvx2 b) {
    return {_mm256_or_ps(a.v, b.v)};
  }
  static VecAvx2 bit_and(VecAvx2 a, VecAvx2 b) {
    return {_mm256_and_ps(a.v, b.v)};
  }
  static VecAvx2 blend(VecAvx2 mask, VecAvx2 a, VecAvx2 b) {
    return {_mm256_blendv_ps(b.v, a.v, mask.v)};
  }

  static VecAvx2 exp2_int(VecAvx2 n) {
    const __m256i e = _mm256_cvtps_epi32(n.v);  // round-to-nearest; n integral
    const __m256i bits =
        _mm256_slli_epi32(_mm256_add_epi32(e, _mm256_set1_epi32(127)), 23);
    return {_mm256_castsi256_ps(bits)};
  }

  float hsum() const {
    const __m128 t = _mm_add_ps(_mm256_castps256_ps128(v),
                                _mm256_extractf128_ps(v, 1));
    const __m128 u = _mm_add_ps(t, _mm_movehl_ps(t, t));
    return _mm_cvtss_f32(_mm_add_ss(u, _mm_shuffle_ps(u, u, 1)));
  }
  float hmax() const {
    const __m128 t = _mm_max_ps(_mm256_castps256_ps128(v),
                                _mm256_extractf128_ps(v, 1));
    const __m128 u = _mm_max_ps(t, _mm_movehl_ps(t, t));
    return _mm_cvtss_f32(_mm_max_ss(u, _mm_shuffle_ps(u, u, 1)));
  }
  float hmin() const {
    const __m128 t = _mm_min_ps(_mm256_castps256_ps128(v),
                                _mm256_extractf128_ps(v, 1));
    const __m128 u = _mm_min_ps(t, _mm_movehl_ps(t, t));
    return _mm_cvtss_f32(_mm_min_ss(u, _mm_shuffle_ps(u, u, 1)));
  }
};

using VecF = VecAvx2;
inline constexpr const char* kBackend = "avx2";

#else  // portable fallback

using VecF = VecPortable;
inline constexpr const char* kBackend = "scalar";

#endif

}  // namespace cq::simd
