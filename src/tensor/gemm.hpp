// Single-precision GEMM kernels: one blocked, register-tiled core shared by
// all three transpose variants, plus the naive loops kept as a golden
// reference for equivalence testing.
//
// Storage is row-major throughout (matching Tensor). The transpose variant
// only changes how the packing routines walk A and B; the macro loops and
// micro-kernel are identical for all three, so every forward and backward
// GEMM in the library exercises the same optimized core.
//
// Numerics: the blocked kernels accumulate in float32 register tiles over
// KC-sized panels of k. This replaces the double-precision accumulation the
// old naive NT loop used — a conscious relaxation, pinned by
// tests/test_gemm.cpp (GemmTest.NtAccumulationStaysNearDoubleReference).
// Zeros in A are never skipped, so NaN/Inf in either operand propagate to C
// for every variant (the old kernels skipped zero rows, silently dropping
// 0 * NaN terms).
//
// Two fusion hooks extend the core (DESIGN.md §9):
//  * Epilogue — bias add and ReLU/ReLU-cap applied to the register tile as
//    it is written back on the LAST k-panel. The operation sequence per
//    element ((accumulated sum) + bias, then activation) is exactly the
//    sequence of the unfused gemm-then-bias-pass-then-act-pass pipeline, so
//    fused and unfused results are bit-identical.
//  * QuantSpec — the affine fake-quantization of paper Eq. 10 folded into
//    the A/B packing stage ("quantize-on-pack"): each element is quantized
//    as it is gathered into the packed sliver, so no quantized copy of the
//    operand is ever materialized. quantize_value() is the single shared
//    formula; LinearQuantizer routes through the same QuantSpec, which makes
//    pack-quantized GEMM bit-identical to materialize-then-GEMM.
#pragma once

#include <cmath>
#include <cstdint>

namespace cq::gemm {

/// Which operand is logically transposed. Operand shapes as stored:
///   kNN: C[M,N] = A[M,K]   * B[K,N]
///   kTN: C[M,N] = A[K,M]^T * B[K,N]
///   kNT: C[M,N] = A[M,K]   * B[N,K]^T
enum class Trans { kNN, kTN, kNT };

/// Affine quantizer parameters (paper Eq. 10: A_q = S_a * round(A / S_a)),
/// precomputed from one range pass over the operand. `identity` marks
/// full-precision / zero-range tensors where quantization is a no-op — the
/// packing routines then skip the transform entirely.
struct QuantSpec {
  float step = 0.0f;      // S_a
  float inv_step = 0.0f;  // 1 / S_a
  float lo = 0.0f;        // clamp bounds, used when `clip`
  float hi = 0.0f;
  bool clip = false;      // percentile range mode clamps to [lo, hi]
  bool nearest = true;    // round-to-nearest-even vs floor (Eq. 10 print)
  bool identity = true;
};

/// The one affine-quantization formula, shared by the packing routines and
/// the vectorized kernels::quantize — keeping every path on this exact
/// operation sequence is what makes quantize-on-pack bit-exact. nearbyintf
/// rounds half-to-even under the default FP environment, matching
/// _mm256_round_ps(_MM_FROUND_TO_NEAREST_INT).
inline float quantize_value(float v, const QuantSpec& q) {
  if (q.clip) v = v < q.lo ? q.lo : (v > q.hi ? q.hi : v);
  const float r = q.nearest ? std::nearbyint(v * q.inv_step)
                            : std::floor(v * q.inv_step);
  return q.step * r;
}

/// Fused epilogue, applied to C elements at final write-back:
///   c = act(c + bias), bias indexed per output row or per output column.
struct Epilogue {
  enum class Bias : std::uint8_t { kNone, kPerRow, kPerCol };
  enum class Act : std::uint8_t { kNone, kRelu, kReluCap };

  const float* bias = nullptr;  // [m] for kPerRow, [n] for kPerCol
  Bias bias_kind = Bias::kNone;
  Act act = Act::kNone;
  float cap = 0.0f;  // kReluCap: min(max(c, 0), cap)

  bool empty() const { return bias == nullptr && act == Act::kNone; }
};

/// Blocked GEMM: C = op(A) * op(B), or C += op(A) * op(B) when `accumulate`.
/// C is row-major [M, N] and must not alias A or B. k == 0 zeroes C (unless
/// accumulating), mirroring an empty sum.
void gemm(Trans trans, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate = false);

/// Fused variant: optional epilogue (applied after the full k accumulation,
/// including the k == 0 empty-sum case) and optional quantize-on-pack specs
/// for either operand (`qa` for op(A), `qb` for op(B); nullptr or an
/// identity spec packs the raw values).
void gemm(Trans trans, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate,
          const Epilogue& epilogue, const QuantSpec* qa = nullptr,
          const QuantSpec* qb = nullptr);

/// GEMM over a B operand the CALLER already laid out in packed sliver
/// format: kNR-column slivers left to right, each sliver kc x kNR floats in
/// k-major order, short trailing slivers zero-padded — i.e. value (p, j) of
/// op(B) lives at packed_b[(j / kNR) * (k * kNR) + p * kNR + j % kNR].
/// This is exactly the layout pack_block_b emits, extended across the full
/// width n, and it lets a caller pack a static B once (the compiled plan's
/// Linear and patch-embed weights) instead of on every call. Restricted
/// to k <= kKC (a single k-panel) so the sliver sequence is unambiguous.
/// A is row-major [M, K] (kNN orientation). Same micro-kernel, k-order and
/// epilogue sequencing as gemm(), so results are bit-identical to
/// gemm(kNN, ...) on the unpacked operand.
void gemm_prepacked_b(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, const float* packed_b, float* c,
                      bool accumulate, const Epilogue& epilogue,
                      const QuantSpec* qa = nullptr);

namespace reference {
/// The pre-blocking naive loops, kept verbatim as the golden reference (NT
/// still accumulates in double). Same contract as gemm::gemm. The only
/// deliberate change from the historical loops: no zero-skip, so NaN
/// propagation matches the blocked kernels.
void gemm(Trans trans, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate = false);
}  // namespace reference

namespace detail {
/// Pack the leading (min(k, kKC) x min(n, kNC)) block of op(B) into
/// NR-column slivers, optionally folding a QuantSpec — exposed so the
/// kernels bench and pack-equivalence tests can exercise the packing stage
/// in isolation. `bp` must hold round_up(nc, kNR) * kc floats.
void pack_block_b(Trans trans, std::int64_t k, std::int64_t n, const float* b,
                  float* bp, const QuantSpec* q);
/// Same for the leading (min(m, kMC) x min(k, kKC)) block of op(A) into
/// MR-row slivers; `ap` must hold round_up(mc, kMR) * kc floats.
void pack_block_a(Trans trans, std::int64_t m, std::int64_t k, const float* a,
                  float* ap, const QuantSpec* q);
}  // namespace detail

// Blocking parameters, exposed so tests can target tile boundaries and the
// bench can report them. kMR x kNR is the register tile; kMC/kKC/kNC are the
// cache-block sizes of the packed A (MC x KC) and B (KC x NC) panels.
inline constexpr std::int64_t kMR = 8;
inline constexpr std::int64_t kNR = 16;
inline constexpr std::int64_t kMC = 128;
inline constexpr std::int64_t kKC = 256;
inline constexpr std::int64_t kNC = 1024;

/// Float count of the packed-B buffer gemm_prepacked_b consumes for a [k, n]
/// operand (kNR-column slivers, short edges zero-padded). Callers that
/// prepack weights ahead of time — the graph executor plans one buffer per
/// linear node — size it with this instead of re-deriving the sliver math.
inline std::int64_t packed_b_floats(std::int64_t k, std::int64_t n) {
  return (n + kNR - 1) / kNR * kNR * k;
}

}  // namespace cq::gemm
