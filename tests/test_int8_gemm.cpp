// Saturating-arithmetic fuzz suite for the int8 GEMM micro-kernel family
// (tensor/kernels/igemm.hpp).
//
// The oracle is a naive per-element int32 loop that never touches the packed
// layouts: it quantizes B straight from the fp32 source with the kernel's
// one shared formula (igemm::detail::quantize_value), accumulates
// a[i,k] * (q[k,j] - zp[j]) in a plain int32, and folds the scales with
// igemm::detail::epilogue_value. Integer arithmetic is exact in any order
// and the epilogue is two specified float steps, so the micro-kernel —
// register tiling, offset-binary storage, rowsum correction and all — must
// match it BITWISE (EXPECT_EQ on floats, no tolerance), for every backend.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/threadpool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels/igemm.hpp"
#include "util/rng.hpp"

namespace cq {
namespace {

struct Problem {
  std::int64_t m = 0, n = 0, k = 0;
  std::vector<std::int8_t> a;       // [m, k] row-major
  std::vector<float> b;             // op(B)(p, j) = b[p * rs + j * cs]
  std::int64_t rs = 0, cs = 1;
  std::vector<float> col_inv;       // [n]
  std::vector<float> col_scale;     // [n]
  std::vector<float> row_scale;     // [m]
  std::vector<float> bias;          // [m] (may stay empty -> nullptr)
  std::vector<std::int32_t> col_zp; // [n] (may stay empty -> nullptr)
};

Problem make_problem(std::int64_t m, std::int64_t n, std::int64_t k,
                     Rng& rng) {
  Problem p;
  p.m = m;
  p.n = n;
  p.k = k;
  p.rs = n;  // row-major [k, n] by default (the im2col shape)
  p.cs = 1;
  p.a.resize(static_cast<std::size_t>(m * k));
  for (auto& v : p.a)
    v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
  p.b.resize(static_cast<std::size_t>(k * n));
  for (auto& v : p.b) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  p.col_inv.resize(static_cast<std::size_t>(n));
  p.col_scale.resize(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    const float scale = static_cast<float>(rng.uniform(0.005, 0.05));
    p.col_scale[static_cast<std::size_t>(j)] = scale;
    p.col_inv[static_cast<std::size_t>(j)] = 1.0f / scale;
  }
  p.row_scale.resize(static_cast<std::size_t>(m));
  for (auto& v : p.row_scale) v = static_cast<float>(rng.uniform(0.001, 0.1));
  p.bias.resize(static_cast<std::size_t>(m));
  for (auto& v : p.bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return p;
}

/// The oracle: unpacked, untiled, per-element.
std::vector<float> reference(const Problem& p, std::int64_t ldc) {
  std::vector<float> c(static_cast<std::size_t>(p.m * ldc), -999.0f);
  for (std::int64_t i = 0; i < p.m; ++i) {
    for (std::int64_t j = 0; j < p.n; ++j) {
      const std::int32_t zp =
          p.col_zp.empty() ? 0 : p.col_zp[static_cast<std::size_t>(j)];
      std::int32_t acc = 0;
      for (std::int64_t kk = 0; kk < p.k; ++kk) {
        const std::int32_t q = igemm::detail::quantize_value(
            p.b[static_cast<std::size_t>(kk * p.rs + j * p.cs)],
            p.col_inv[static_cast<std::size_t>(j)]);
        acc += static_cast<std::int32_t>(
                   p.a[static_cast<std::size_t>(i * p.k + kk)]) *
               (q - zp);
      }
      c[static_cast<std::size_t>(i * ldc + j)] = igemm::detail::epilogue_value(
          acc, p.row_scale[static_cast<std::size_t>(i)],
          p.col_scale[static_cast<std::size_t>(j)],
          p.bias.empty() ? 0.0f : p.bias[static_cast<std::size_t>(i)]);
    }
  }
  return c;
}

/// Pack + run one backend. `use_scalar` selects the portable twin.
std::vector<float> run_backend(const Problem& p, std::int64_t ldc,
                               bool use_scalar) {
  std::vector<std::int8_t> ap(
      static_cast<std::size_t>(igemm::packed_a_bytes(p.m, p.k)));
  std::vector<std::int32_t> rowsum(static_cast<std::size_t>(p.m));
  igemm::pack_a_s8(p.a.data(), p.m, p.k, ap.data(), rowsum.data());
  std::vector<std::uint8_t> bp(
      static_cast<std::size_t>(igemm::packed_b_bytes(p.k, p.n)));
  igemm::Epilogue ep;
  ep.row_scale = p.row_scale.data();
  ep.col_scale = p.col_scale.data();
  ep.bias = p.bias.empty() ? nullptr : p.bias.data();
  ep.col_zp = p.col_zp.empty() ? nullptr : p.col_zp.data();
  // Pre-fill with a sentinel: lanes outside [0, n) must never be stored.
  std::vector<float> c(static_cast<std::size_t>(p.m * ldc), -999.0f);
  if (use_scalar) {
    igemm::scalar::pack_b_quantized(p.b.data(), p.rs, p.cs, p.k, p.n,
                                    p.col_inv.data(), bp.data());
    igemm::scalar::gemm(p.m, p.n, p.k, ap.data(), rowsum.data(), bp.data(),
                        c.data(), ldc, ep);
  } else {
    igemm::pack_b_quantized(p.b.data(), p.rs, p.cs, p.k, p.n,
                            p.col_inv.data(), bp.data());
    igemm::gemm(p.m, p.n, p.k, ap.data(), rowsum.data(), bp.data(), c.data(),
                ldc, ep);
  }
  return c;
}

/// Assert both backends match the oracle bitwise (and the sentinel outside
/// the written region survived).
void check(const Problem& p, std::int64_t ldc = 0) {
  if (ldc == 0) ldc = p.n;
  const std::vector<float> ref = reference(p, ldc);
  const std::vector<float> got = run_backend(p, ldc, /*use_scalar=*/false);
  const std::vector<float> twin = run_backend(p, ldc, /*use_scalar=*/true);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(got[i], ref[i])
        << "backend vs oracle at " << i << " (m=" << p.m << " n=" << p.n
        << " k=" << p.k << ")";
    ASSERT_EQ(twin[i], ref[i])
        << "scalar twin vs oracle at " << i << " (m=" << p.m << " n=" << p.n
        << " k=" << p.k << ")";
  }
}

TEST(Int8Gemm, BackendReportsName) {
  EXPECT_NE(igemm::backend(), nullptr);
}

TEST(Int8Gemm, PackedBuffersMatchScalarTwinBitwise) {
  // The two pack_b implementations must produce byte-identical buffers —
  // including the offset-binary pad bytes — or packed-buffer reuse across
  // backends would silently diverge.
  Rng rng(21);
  for (const auto [k, n] : {std::pair<std::int64_t, std::int64_t>{1, 1},
                            {3, 5}, {4, 16}, {7, 17}, {64, 33}, {129, 47}}) {
    const Problem p = make_problem(4, n, k, rng);
    std::vector<std::uint8_t> bp(
        static_cast<std::size_t>(igemm::packed_b_bytes(k, n)), 0xAB);
    std::vector<std::uint8_t> bp2 = bp;
    igemm::pack_b_quantized(p.b.data(), p.rs, p.cs, k, n, p.col_inv.data(),
                            bp.data());
    igemm::scalar::pack_b_quantized(p.b.data(), p.rs, p.cs, k, n,
                                    p.col_inv.data(), bp2.data());
    EXPECT_EQ(bp, bp2) << "k=" << k << " n=" << n;
  }
}

TEST(Int8Gemm, FuzzShapeSweepWithOddTails) {
  // Every combination of full tiles, odd row/column tails and k-quad tails,
  // including degenerate 1x1.
  Rng rng(22);
  for (std::int64_t m : {1, 7, 8, 9, 16, 23})
    for (std::int64_t n : {1, 15, 16, 17, 33})
      for (std::int64_t k : {1, 3, 4, 5, 37, 128})
        check(make_problem(m, n, k, rng));
}

TEST(Int8Gemm, FuzzRandomizedShapes) {
  Rng rng(23);
  for (int iter = 0; iter < 25; ++iter) {
    const auto m = static_cast<std::int64_t>(rng.uniform_int(1, 40));
    const auto n = static_cast<std::int64_t>(rng.uniform_int(1, 70));
    const auto k = static_cast<std::int64_t>(rng.uniform_int(1, 200));
    Problem p = make_problem(m, n, k, rng);
    if (rng.bernoulli(0.5)) {  // random per-column zero points
      p.col_zp.resize(static_cast<std::size_t>(n));
      for (auto& zp : p.col_zp) zp = rng.uniform_int(-5, 5);
    }
    if (rng.bernoulli(0.3)) p.bias.clear();  // null-bias path
    check(p);
  }
}

TEST(Int8Gemm, SaturationClampsAtPlusMinus127) {
  // B values far outside the representable range: quantization must clamp
  // to +-127 (never wrap to the unused -128), and the kernel must agree
  // with the oracle on every saturated product.
  Rng rng(24);
  Problem p = make_problem(9, 18, 13, rng);
  for (std::size_t i = 0; i < p.b.size(); ++i)
    p.b[i] = (i % 2 == 0) ? 1e6f : -1e6f;
  check(p);
  // Direct formula checks, including round-half-even at the midpoint.
  EXPECT_EQ(igemm::detail::quantize_value(1e9f, 1.0f), 127);
  EXPECT_EQ(igemm::detail::quantize_value(-1e9f, 1.0f), -127);
  EXPECT_EQ(igemm::detail::quantize_value(0.5f, 1.0f), 0);   // half-to-even
  EXPECT_EQ(igemm::detail::quantize_value(1.5f, 1.0f), 2);
  EXPECT_EQ(igemm::detail::quantize_value(-127.5f, 1.0f), -127);  // clamp 1st
}

TEST(Int8Gemm, AllNegativePanels) {
  // Rowsums at their negative extreme exercise the offset correction's sign
  // handling: eff = acc - 128 * rowsum must stay exact.
  Rng rng(25);
  Problem p = make_problem(10, 19, 21, rng);
  for (auto& v : p.a)
    v = static_cast<std::int8_t>(-rng.uniform_int(1, 127));
  for (auto& v : p.b) v = -std::fabs(v) - 0.01f;
  check(p);
}

TEST(Int8Gemm, ZeroScaleGuardQuantizesToZero) {
  // A zero inv-scale encodes a zero-range column (the deploy path's guard
  // for all-zero samples): every element quantizes to 0 and the output
  // column collapses to the bias.
  Rng rng(26);
  Problem p = make_problem(6, 5, 12, rng);
  for (std::int64_t j = 0; j < p.n; ++j) {
    p.col_inv[static_cast<std::size_t>(j)] = 0.0f;
    p.col_scale[static_cast<std::size_t>(j)] = 1e-12f;
  }
  check(p);
  const std::vector<float> got = run_backend(p, p.n, /*use_scalar=*/false);
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j)
      EXPECT_EQ(got[static_cast<std::size_t>(i * p.n + j)],
                p.bias[static_cast<std::size_t>(i)]);
}

TEST(Int8Gemm, Int32AccumulatorsSurviveWorstCaseK) {
  // k=2048 of saturated products: |acc| grows to 2048 * 127 * 255 raw
  // (~66.3M as stored, 33.0M after the offset correction) — far beyond the
  // +-32767 an int16 accumulator wraps at. Exactness pins 32-bit
  // accumulation end to end.
  Rng rng(27);
  const std::int64_t k = 2048;
  Problem p = make_problem(3, 2, k, rng);
  for (auto& v : p.a) v = 127;
  for (auto& v : p.b) v = 1e6f;  // saturates to q = +127 everywhere
  p.bias.assign(p.bias.size(), 0.0f);
  check(p);
  const std::vector<float> got = run_backend(p, p.n, /*use_scalar=*/false);
  // acc - 128*rowsum = k * 127 * 127 exactly.
  const float eff = static_cast<float>(k * 127 * 127);
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j)
      EXPECT_EQ(got[static_cast<std::size_t>(i * p.n + j)],
                eff * (p.row_scale[static_cast<std::size_t>(i)] *
                       p.col_scale[static_cast<std::size_t>(j)]));
}

TEST(Int8Gemm, ParallelBitwiseIdenticalToSerialAtEveryThreadCount) {
  // Integer accumulation is exact in any order, but the packed buffers and
  // the output tiles must still land in exactly the same bytes at every
  // pool size — and the epilogue's float folds must happen once per tile
  // regardless of which thread runs it. Shapes are sized past both parallel
  // thresholds (2M flops for the kernel grid, 64K elements for pack_b) and
  // include odd tails plus a pool larger than the tile grid.
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t old_size = pool.size();
  Rng rng(31);
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {65, 129, 130},  // odd tails on every axis, deep enough to go parallel
      {8, 1040, 70},   // wide n: many pack_b slivers, single row panel
      {200, 17, 300},  // many row panels, single column sliver
      {3, 5, 7},       // tiny: stays serial at any size, still must match
  };
  for (const auto& [m, n, k] : shapes) {
    Problem p = make_problem(m, n, k, rng);
    if (n > 100) {  // zero-point path on the wide shape
      p.col_zp.resize(static_cast<std::size_t>(n));
      for (auto& zp : p.col_zp) zp = rng.uniform_int(-5, 5);
    }
    pool.set_size(1);
    const std::vector<float> serial = run_backend(p, p.n, false);
    const std::vector<float> serial_twin = run_backend(p, p.n, true);
    for (std::size_t threads : {2u, 3u, 8u}) {
      pool.set_size(threads);
      const std::vector<float> par = run_backend(p, p.n, false);
      const std::vector<float> par_twin = run_backend(p, p.n, true);
      ASSERT_EQ(par, serial) << "threads=" << threads << " m=" << m
                             << " n=" << n << " k=" << k;
      ASSERT_EQ(par_twin, serial_twin)
          << "scalar twin threads=" << threads << " m=" << m << " n=" << n
          << " k=" << k;
    }
    pool.set_size(old_size);
    check(p);  // and the parallel-capable path still matches the oracle
  }
}

TEST(Int8Gemm, LeadingDimensionLargerThanN) {
  // ldc > n: the kernel must stride over C without touching the gap (the
  // sentinel check inside check() covers the untouched tail of each row).
  Rng rng(28);
  const Problem p = make_problem(11, 14, 29, rng);
  check(p, /*ldc=*/23);
}

TEST(Int8Gemm, StridedBSource) {
  // Column-strided op(B) — the linear layer's transposed [n, k] walk.
  Rng rng(29);
  for (std::int64_t n : {1, 4, 16, 19}) {
    Problem p = make_problem(12, n, 45, rng);
    // Re-interpret the buffer as [n, k] row-major: op(B)(p,j) = b[j*k + p].
    p.rs = 1;
    p.cs = p.k;
    check(p);
  }
}

// ---- Fused conv lowering: pack_b_conv_quantized ----------------------------
//
// The oracle is the two-pass sequence the fused kernel replaces: the fp32
// column matrix from im2col_batched, then the row-major pack_b_quantized.
// The packed bytes must match BITWISE, pad bytes included.

struct ConvCase {
  ConvGeometry g;
  std::int64_t n = 1;          // images
  std::int64_t groups = 1;     // images hold groups * in_channels planes
  std::vector<float> images;   // [n, groups * in_channels, in_h, in_w]
  std::vector<float> col_inv;  // [n * spatial]
  std::int64_t sample_stride() const {
    return groups * g.in_channels * g.in_h * g.in_w;
  }
  std::int64_t ncols() const { return n * g.col_cols(); }
  // Group `grp`'s first plane: the channel offset the executor applies.
  const float* group_images(std::int64_t grp) const {
    return images.data() + grp * g.in_channels * g.in_h * g.in_w;
  }
};

ConvCase make_conv_case(std::int64_t c, std::int64_t h, std::int64_t w,
                        std::int64_t kernel, std::int64_t stride,
                        std::int64_t pad, std::int64_t n, Rng& rng,
                        std::int64_t groups = 1) {
  ConvCase cc;
  cc.g.in_channels = c;
  cc.g.in_h = h;
  cc.g.in_w = w;
  cc.g.kernel_h = cc.g.kernel_w = kernel;
  cc.g.stride = stride;
  cc.g.pad = pad;
  cc.n = n;
  cc.groups = groups;
  cc.images.resize(static_cast<std::size_t>(n * cc.sample_stride()));
  for (auto& v : cc.images) v = static_cast<float>(rng.uniform(-2.0, 2.0));
  cc.col_inv.resize(static_cast<std::size_t>(cc.ncols()));
  for (auto& v : cc.col_inv) v = static_cast<float>(rng.uniform(20.0, 200.0));
  return cc;
}

using Bytes = std::vector<std::uint8_t>;

Bytes two_pass(const ConvCase& cc, std::int64_t grp, bool use_scalar) {
  const std::int64_t k = cc.g.col_rows(), ncols = cc.ncols();
  std::vector<float> cols(static_cast<std::size_t>(k * ncols));
  im2col_batched(cc.group_images(grp), cc.n, cc.sample_stride(), cc.g,
                 cols.data(), ncols);
  Bytes bp(static_cast<std::size_t>(igemm::packed_b_bytes(k, ncols)), 0xAB);
  if (use_scalar)
    igemm::scalar::pack_b_quantized(cols.data(), ncols, 1, k, ncols,
                                    cc.col_inv.data(), bp.data());
  else
    igemm::pack_b_quantized(cols.data(), ncols, 1, k, ncols,
                            cc.col_inv.data(), bp.data());
  return bp;
}

Bytes fused(const ConvCase& cc, std::int64_t grp, bool use_scalar) {
  // A different sentinel from two_pass: an unwritten byte cannot match.
  Bytes bp(static_cast<std::size_t>(
               igemm::packed_b_bytes(cc.g.col_rows(), cc.ncols())),
           0xCD);
  if (use_scalar)
    igemm::scalar::pack_b_conv_quantized(cc.group_images(grp), cc.n,
                                         cc.sample_stride(), cc.g,
                                         cc.col_inv.data(), bp.data());
  else
    igemm::pack_b_conv_quantized(cc.group_images(grp), cc.n,
                                 cc.sample_stride(), cc.g, cc.col_inv.data(),
                                 bp.data());
  return bp;
}

/// Fused == two-pass on both backends, and backend == scalar twin.
void check_conv(const ConvCase& cc, std::int64_t grp = 0) {
  const Bytes ref = two_pass(cc, grp, /*use_scalar=*/false);
  const Bytes got = fused(cc, grp, /*use_scalar=*/false);
  const Bytes twin = fused(cc, grp, /*use_scalar=*/true);
  const auto& g = cc.g;
  const std::string what =
      "c=" + std::to_string(g.in_channels) + " h=" + std::to_string(g.in_h) +
      " w=" + std::to_string(g.in_w) + " k=" + std::to_string(g.kernel_h) +
      " s=" + std::to_string(g.stride) + " p=" + std::to_string(g.pad) +
      " n=" + std::to_string(cc.n) + " grp=" + std::to_string(grp);
  ASSERT_EQ(ref, two_pass(cc, grp, /*use_scalar=*/true)) << what;
  ASSERT_EQ(got, ref) << "backend vs two-pass " << what;
  ASSERT_EQ(twin, ref) << "scalar twin vs two-pass " << what;
}

TEST(Int8ConvPack, MatchesTwoPassOverGeometrySweep) {
  // Kernel 1/3/5 x stride 1/2/3 x pad 0-2 over non-square inputs, from
  // spatial extents far below kNR (slivers straddle images) to several
  // slivers per output row.
  Rng rng(40);
  const std::vector<std::pair<std::int64_t, std::int64_t>> sizes = {
      {2, 3}, {5, 7}, {9, 4}, {16, 16}, {13, 21}};
  for (std::int64_t kernel : {1, 3, 5})
    for (std::int64_t stride : {1, 2, 3})
      for (std::int64_t pad : {0, 1, 2})
        for (const auto& [h, w] : sizes) {
          if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
          for (std::int64_t n : {1, 2, 3, 5}) {
            check_conv(make_conv_case(3, h, w, kernel, stride, pad, n, rng));
            if (HasFatalFailure()) return;
          }
        }
}

TEST(Int8ConvPack, EveryBatchWidthOneToThirtyThree) {
  // Widths 1..33 walk every column tail of the last sliver and every
  // image-boundary phase within a sliver.
  Rng rng(41);
  for (std::int64_t n = 1; n <= 33; ++n) {
    check_conv(make_conv_case(2, 3, 3, 3, 1, 1, n, rng));  // spatial 9
    check_conv(make_conv_case(4, 4, 4, 3, 1, 1, n, rng));  // one sliver/img
    check_conv(make_conv_case(2, 8, 6, 1, 2, 0, n, rng));  // strided 1x1
    check_conv(make_conv_case(1, 2, 2, 3, 1, 1, n, rng));  // 2x2, 4 imgs
    if (HasFatalFailure()) return;
  }
}

TEST(Int8ConvPack, GroupChannelOffset) {
  // A later group reads from a channel offset inside each sample while
  // samples stay sample_stride apart (the depthwise / grouped conv walk).
  Rng rng(42);
  for (std::int64_t groups : {2, 4}) {
    for (std::int64_t n : {1, 3, 17}) {
      const ConvCase cc = make_conv_case(1, 6, 5, 3, 1, 1, n, rng, groups);
      for (std::int64_t grp = 0; grp < groups; ++grp) check_conv(cc, grp);
      const ConvCase cs = make_conv_case(3, 7, 7, 3, 2, 1, n, rng, groups);
      for (std::int64_t grp = 0; grp < groups; ++grp) check_conv(cs, grp);
    }
  }
}

TEST(Int8ConvPack, NonFiniteInputsAndScales) {
  // NaN and +-Inf taps, and Inf and zero inv-scale columns: padding taps of
  // an Inf column quantize 0 * Inf = NaN -> -127 exactly like im2col's zero
  // fill, and a zero column collapses to q = 0.
  Rng rng(43);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t n : {1, 3, 5}) {
      ConvCase cc = make_conv_case(2, 5, 6, 3, stride, 1, n, rng);
      for (std::size_t i = 0; i < cc.images.size(); i += 7)
        cc.images[i] = (i % 3 == 0) ? nan : (i % 3 == 1 ? inf : -inf);
      for (std::size_t j = 0; j < cc.col_inv.size(); j += 3)
        cc.col_inv[j] = (j % 2 == 0) ? inf : 0.0f;
      check_conv(cc);
    }
  }
}

TEST(Int8ConvPack, BitwiseInvariantToPoolSize) {
  // Shapes past the pack split bar (k * ncols >= 64K); slivers are the
  // unit of work, so any partition writes the same bytes.
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t old_size = pool.size();
  Rng rng(44);
  const std::vector<ConvCase> cases = {
      make_conv_case(16, 8, 8, 3, 1, 1, 32, rng),  // contiguous slivers
      make_conv_case(16, 9, 7, 3, 2, 1, 29, rng),  // gathered slivers
  };
  for (const ConvCase& cc : cases) {
    pool.set_size(1);
    const Bytes serial = fused(cc, 0, false);
    const Bytes serial_twin = fused(cc, 0, true);
    for (std::size_t threads : {2u, 3u, 8u}) {
      pool.set_size(threads);
      ASSERT_EQ(fused(cc, 0, false), serial) << "threads=" << threads;
      ASSERT_EQ(fused(cc, 0, true), serial_twin) << "threads=" << threads;
    }
    pool.set_size(old_size);
    ASSERT_EQ(serial, serial_twin);
    check_conv(cc);
  }
}

TEST(Int8Gemm, KZeroWritesBias) {
  Rng rng(30);
  Problem p = make_problem(5, 9, 0, rng);
  p.b.clear();
  p.b.push_back(0.0f);  // non-null source pointer, never read
  check(p);
  const std::vector<float> got = run_backend(p, p.n, /*use_scalar=*/false);
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j)
      EXPECT_EQ(got[static_cast<std::size_t>(i * p.n + j)],
                p.bias[static_cast<std::size_t>(i)]);
}

}  // namespace
}  // namespace cq
