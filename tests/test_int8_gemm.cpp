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

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/threadpool.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernels/igemm.hpp"
#include "tensor/kernels/kernels.hpp"
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

// ---- Channel-quad conv lowering: quantize_conv_input + pack_b_conv_c4 ------
//
// The oracle is the two-pass sequence over the same k order: the input's
// channels padded with zeros to a multiple of 4, the fp32 column matrix from
// im2col_batched, its rows permuted from (c, t) to (t, cq, ci), then the
// row-major pack_b_quantized with each image's inverse scale expanded per
// column. The packed bytes must match BITWISE, pad bytes included.

struct ConvCase {
  ConvGeometry g;
  std::int64_t n = 1;          // images
  std::int64_t groups = 1;     // images hold groups * in_channels planes
  std::vector<float> images;   // [n, groups * in_channels, in_h, in_w]
  std::vector<float> img_inv;  // [n]
  std::int64_t hw() const { return g.in_h * g.in_w; }
  std::int64_t sample_stride() const { return groups * g.in_channels * hw(); }
  std::int64_t spatial() const { return g.col_cols(); }
  std::int64_t ncols() const { return n * spatial(); }
  std::int64_t c4() const { return igemm::round_up(g.in_channels, igemm::kKU); }
  std::int64_t taps() const { return g.kernel_h * g.kernel_w; }
  // Group `grp`'s first plane: the channel offset the executor applies.
  const float* group_images(std::int64_t grp) const {
    return images.data() + grp * g.in_channels * hw();
  }
  std::vector<float> col_inv() const {  // image scales, expanded per column
    std::vector<float> out(static_cast<std::size_t>(ncols()));
    for (std::int64_t j = 0; j < ncols(); ++j)
      out[static_cast<std::size_t>(j)] =
          img_inv[static_cast<std::size_t>(j / spatial())];
    return out;
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
  cc.img_inv.resize(static_cast<std::size_t>(n));
  for (auto& v : cc.img_inv) v = static_cast<float>(rng.uniform(20.0, 200.0));
  return cc;
}

using Bytes = std::vector<std::uint8_t>;

/// im2col_batched of group `grp` with channels zero-padded to c4 (padded =
/// true) or as is, rows in (t, cq, ci) order when padded.
std::vector<float> im2col_rows(const ConvCase& cc, std::int64_t grp,
                               bool padded) {
  const std::int64_t hw = cc.hw(), c = cc.g.in_channels, taps = cc.taps();
  const std::int64_t ncols = cc.ncols();
  if (!padded) {
    std::vector<float> cols(static_cast<std::size_t>(c * taps * ncols));
    im2col_batched(cc.group_images(grp), cc.n, cc.sample_stride(), cc.g,
                   cols.data(), ncols);
    return cols;
  }
  const std::int64_t c4 = cc.c4();
  std::vector<float> x(static_cast<std::size_t>(cc.n * c4 * hw), 0.0f);
  for (std::int64_t img = 0; img < cc.n; ++img)
    for (std::int64_t ch = 0; ch < c; ++ch)
      for (std::int64_t s = 0; s < hw; ++s)
        x[static_cast<std::size_t>((img * c4 + ch) * hw + s)] =
            cc.group_images(grp)[img * cc.sample_stride() + ch * hw + s];
  ConvGeometry g4 = cc.g;
  g4.in_channels = c4;
  std::vector<float> cols(static_cast<std::size_t>(c4 * taps * ncols));
  im2col_batched(x.data(), cc.n, c4 * hw, g4, cols.data(), ncols);
  std::vector<float> perm(cols.size());
  for (std::int64_t ch = 0; ch < c4; ++ch)
    for (std::int64_t t = 0; t < taps; ++t)
      std::copy_n(cols.begin() + (ch * taps + t) * ncols, ncols,
                  perm.begin() + (t * c4 + ch) * ncols);
  return perm;
}

Bytes two_pass(const ConvCase& cc, std::int64_t grp, bool use_scalar) {
  const std::int64_t k = igemm::conv_k(cc.g), ncols = cc.ncols();
  const std::vector<float> rows = im2col_rows(cc, grp, /*padded=*/true);
  const std::vector<float> col_inv = cc.col_inv();
  Bytes bp(static_cast<std::size_t>(igemm::packed_b_bytes(k, ncols)), 0xAB);
  if (use_scalar)
    igemm::scalar::pack_b_quantized(rows.data(), ncols, 1, k, ncols,
                                    col_inv.data(), bp.data());
  else
    igemm::pack_b_quantized(rows.data(), ncols, 1, k, ncols, col_inv.data(),
                            bp.data());
  return bp;
}

/// The kernel pair under test: channel-quad bytes, pad bytes, packed B.
struct QuadPack {
  Bytes act, pad, bp;
};

QuadPack channel_quad(const ConvCase& cc, std::int64_t grp, bool use_scalar) {
  // Sentinels differ from two_pass's: an unwritten byte cannot match.
  QuadPack out{Bytes(static_cast<std::size_t>(cc.c4() * cc.n * cc.hw()), 0xEF),
               Bytes(static_cast<std::size_t>(cc.n), 0xEF),
               Bytes(static_cast<std::size_t>(igemm::packed_b_bytes(
                         igemm::conv_k(cc.g), cc.ncols())),
                     0xCD)};
  if (use_scalar) {
    igemm::scalar::quantize_conv_input(
        cc.group_images(grp), cc.n, cc.sample_stride(), cc.g.in_channels,
        cc.hw(), cc.img_inv.data(), out.act.data(), out.pad.data());
    igemm::scalar::pack_b_conv_c4(out.act.data(), out.pad.data(), cc.n, cc.g,
                                  out.bp.data());
  } else {
    igemm::quantize_conv_input(cc.group_images(grp), cc.n, cc.sample_stride(),
                               cc.g.in_channels, cc.hw(), cc.img_inv.data(),
                               out.act.data(), out.pad.data());
    igemm::pack_b_conv_c4(out.act.data(), out.pad.data(), cc.n, cc.g,
                          out.bp.data());
  }
  return out;
}

std::string describe(const ConvCase& cc, std::int64_t grp) {
  const auto& g = cc.g;
  return "c=" + std::to_string(g.in_channels) + " h=" + std::to_string(g.in_h) +
         " w=" + std::to_string(g.in_w) + " k=" + std::to_string(g.kernel_h) +
         " s=" + std::to_string(g.stride) + " p=" + std::to_string(g.pad) +
         " n=" + std::to_string(cc.n) + " grp=" + std::to_string(grp);
}

/// Channel-quad == two-pass on both backends, and backend == scalar twin
/// for the intermediate bytes too.
void check_conv(const ConvCase& cc, std::int64_t grp = 0) {
  const Bytes ref = two_pass(cc, grp, /*use_scalar=*/false);
  const QuadPack got = channel_quad(cc, grp, /*use_scalar=*/false);
  const QuadPack twin = channel_quad(cc, grp, /*use_scalar=*/true);
  const std::string what = describe(cc, grp);
  ASSERT_EQ(ref, two_pass(cc, grp, /*use_scalar=*/true)) << what;
  ASSERT_EQ(got.act, twin.act) << "quantized bytes, backend vs twin " << what;
  ASSERT_EQ(got.pad, twin.pad) << "pad bytes, backend vs twin " << what;
  ASSERT_EQ(got.bp, ref) << "backend vs two-pass " << what;
  ASSERT_EQ(twin.bp, ref) << "scalar twin vs two-pass " << what;
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

TEST(Int8ConvPack, ChannelCountsPadTheLastQuad) {
  // Counts below, at and past one quad: the pad channels of the last quad
  // must hold each image's pad byte.
  Rng rng(45);
  for (std::int64_t c : {1, 2, 3, 4, 5, 6, 8})
    for (std::int64_t stride : {1, 2})
      for (std::int64_t n : {1, 3, 17}) {
        check_conv(make_conv_case(c, 7, 6, 3, stride, 1, n, rng));
        check_conv(make_conv_case(c, 5, 9, 1, stride, 0, n, rng));
        if (HasFatalFailure()) return;
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
  // NaN and +-Inf inputs, and images with an Inf or zero inverse scale:
  // an Inf image's pad byte is quantize(0 * Inf = NaN) = -127, exactly what
  // im2col's zero fill becomes, and a zero-scale image collapses to q = 0.
  Rng rng(43);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (std::int64_t stride : {1, 2}) {
    for (std::int64_t n : {1, 3, 5}) {
      ConvCase cc = make_conv_case(2, 5, 6, 3, stride, 1, n, rng);
      for (std::size_t i = 0; i < cc.images.size(); i += 7)
        cc.images[i] = (i % 3 == 0) ? nan : (i % 3 == 1 ? inf : -inf);
      for (std::size_t img = 0; img < cc.img_inv.size(); ++img)
        if (img % 3 != 2) cc.img_inv[img] = (img % 3 == 0) ? inf : 0.0f;
      check_conv(cc);
    }
  }
}

TEST(Int8ConvPack, BitwiseInvariantToPoolSize) {
  // Shapes past the pack split bar (k * ncols >= 64K); slivers are the
  // unit of work, so any partition writes the same bytes. The last case is
  // also past the quantize split bar (n * channels * hw >= 64K), which
  // splits by image.
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t old_size = pool.size();
  Rng rng(44);
  const std::vector<ConvCase> cases = {
      make_conv_case(16, 8, 8, 3, 1, 1, 32, rng),    // contiguous slivers
      make_conv_case(16, 9, 7, 3, 2, 1, 29, rng),    // gathered slivers
      make_conv_case(16, 13, 11, 3, 1, 1, 29, rng),  // split quantize
  };
  auto same = [](const QuadPack& a, const QuadPack& b) {
    return a.act == b.act && a.pad == b.pad && a.bp == b.bp;
  };
  for (const ConvCase& cc : cases) {
    pool.set_size(1);
    const QuadPack serial = channel_quad(cc, 0, false);
    const QuadPack serial_twin = channel_quad(cc, 0, true);
    for (std::size_t threads : {2u, 3u, 8u}) {
      pool.set_size(threads);
      ASSERT_TRUE(same(channel_quad(cc, 0, false), serial))
          << "threads=" << threads << " " << describe(cc, 0);
      ASSERT_TRUE(same(channel_quad(cc, 0, true), serial_twin))
          << "threads=" << threads << " " << describe(cc, 0);
    }
    pool.set_size(old_size);
    ASSERT_TRUE(same(serial, serial_twin));
    check_conv(cc);
  }
}

TEST(Int8ConvPack, GemmMatchesTwoPassGemmBitwise) {
  // End to end through igemm::gemm: the weights permuted to (t, cq, ci) with
  // zero pad-channel columns (igemm::reorder_conv_weights, checked against
  // a plain loop here) against the channel-quad B must give the float
  // outputs of the original weights against the unpadded two-pass B, on
  // both backends — integer sums are exact in any order, and the extra
  // terms have zero weights.
  Rng rng(46);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  struct ConvShape {
    std::int64_t c, h, w, kernel, stride, pad, n, groups, grp;
  };
  const std::vector<ConvShape> shapes = {
      {3, 12, 12, 3, 1, 1, 3, 1, 0},  // the stem: k 27 -> 36
      {5, 7, 6, 3, 2, 1, 5, 1, 0},    // strided, one spare channel quad lane
      {8, 6, 6, 1, 2, 0, 4, 1, 0},    // strided 1x1 shortcut
      {1, 6, 5, 3, 1, 1, 17, 4, 3},   // depthwise group, k 9 -> 36
      {6, 5, 9, 5, 1, 2, 2, 2, 1},    // 5x5 grouped conv
  };
  for (const ConvShape& sh : shapes) {
    ConvCase cc = make_conv_case(sh.c, sh.h, sh.w, sh.kernel, sh.stride,
                                 sh.pad, sh.n, rng, sh.groups);
    if (sh.n > 4) {  // non-finite inputs and scales on the wider batches
      for (std::size_t i = 0; i < cc.images.size(); i += 11)
        cc.images[i] = (i % 2 == 0) ? nan : inf;
      cc.img_inv[1] = inf;
      cc.img_inv[2] = 0.0f;
    }
    const std::string what = describe(cc, sh.grp);
    const std::int64_t m = 13, taps = cc.taps(), c4 = cc.c4();
    const std::int64_t k = sh.c * taps, kq = igemm::conv_k(cc.g);
    const std::int64_t ncols = cc.ncols();
    ASSERT_EQ(kq, taps * c4) << what;
    std::vector<std::int8_t> a(static_cast<std::size_t>(m * k));
    for (auto& v : a) v = static_cast<std::int8_t>(rng.uniform_int(-127, 127));
    std::vector<std::int8_t> aq(static_cast<std::size_t>(m * kq), 0);
    for (std::int64_t i = 0; i < m; ++i)
      for (std::int64_t ch = 0; ch < sh.c; ++ch)
        for (std::int64_t t = 0; t < taps; ++t)
          aq[static_cast<std::size_t>(i * kq + t * c4 + ch)] =
              a[static_cast<std::size_t>(i * k + ch * taps + t)];
    std::vector<std::int8_t> reordered(aq.size(), 99);
    igemm::reorder_conv_weights(a.data(), m, cc.g, reordered.data());
    ASSERT_EQ(reordered, aq) << what;
    std::vector<float> row_scale(static_cast<std::size_t>(m)),
        bias(static_cast<std::size_t>(m));
    for (auto& v : row_scale) v = static_cast<float>(rng.uniform(0.001, 0.1));
    for (auto& v : bias) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> col_scale = cc.col_inv();
    for (auto& v : col_scale) v = 1.0f / v;
    igemm::Epilogue ep;
    ep.row_scale = row_scale.data();
    ep.col_scale = col_scale.data();
    ep.bias = bias.data();

    auto run = [&](const std::vector<std::int8_t>& w, std::int64_t kk,
                   const Bytes& bp, bool use_scalar) {
      std::vector<std::int8_t> ap(
          static_cast<std::size_t>(igemm::packed_a_bytes(m, kk)));
      std::vector<std::int32_t> rowsum(static_cast<std::size_t>(m));
      igemm::pack_a_s8(w.data(), m, kk, ap.data(), rowsum.data());
      std::vector<float> c(static_cast<std::size_t>(m * ncols), -999.0f);
      if (use_scalar)
        igemm::scalar::gemm(m, ncols, kk, ap.data(), rowsum.data(), bp.data(),
                            c.data(), ncols, ep);
      else
        igemm::gemm(m, ncols, kk, ap.data(), rowsum.data(), bp.data(),
                    c.data(), ncols, ep);
      return c;
    };
    const std::vector<float> cols = im2col_rows(cc, sh.grp, /*padded=*/false);
    const std::vector<float> col_inv = cc.col_inv();
    for (bool use_scalar : {false, true}) {
      Bytes old_bp(static_cast<std::size_t>(igemm::packed_b_bytes(k, ncols)));
      if (use_scalar)
        igemm::scalar::pack_b_quantized(cols.data(), ncols, 1, k, ncols,
                                        col_inv.data(), old_bp.data());
      else
        igemm::pack_b_quantized(cols.data(), ncols, 1, k, ncols,
                                col_inv.data(), old_bp.data());
      const std::vector<float> want = run(a, k, old_bp, use_scalar);
      const std::vector<float> got =
          run(aq, kq, channel_quad(cc, sh.grp, use_scalar).bp, use_scalar);
      for (std::size_t i = 0; i < want.size(); ++i) {
        // Bitwise, NaN outputs included.
        std::uint32_t wb, gb;
        std::memcpy(&wb, &want[i], sizeof(wb));
        std::memcpy(&gb, &got[i], sizeof(gb));
        ASSERT_EQ(gb, wb) << (use_scalar ? "scalar " : "backend ") << what
                          << " at " << i;
      }
    }
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

// ---- Fused conv epilogue: NCHW write-back, residual, activation, abs-max --
//
// The oracle composes the unfused int8 chain from its public pieces: the
// int32 sums of reference(), detail::epilogue_value, a float add in the
// residual's operand order, then kernels::relu / relu_cap, stored at the
// NCHW address and reduced per image with a plain max loop. Both backends
// must match it bitwise at every pool size — outputs, untouched channels
// (the sentinel) and the published maxima.

struct EpilogueCase {
  std::int64_t pixels = 0, images = 0;
  std::int64_t channels = 0, group_off = 0;  // output planes, this group's
  Problem p;                                 // m = group's channels
  std::vector<std::int32_t> eff;             // [m, n] oracle int32 sums
  std::vector<float> residual;               // [images, channels, pixels]
  std::int64_t at(std::int64_t i, std::int64_t j) const {
    return (j / pixels) * channels * pixels + (group_off + i) * pixels +
           j % pixels;
  }
};

EpilogueCase make_epilogue_case(std::int64_t pixels, Rng& rng) {
  EpilogueCase ec;
  ec.pixels = pixels;
  // >= 810 columns: past gemm's 2 MFLOP fan-out bar with m = 21, k = 64
  // (so pool sizes 2 and 3 split the tile grid), and a short last sliver
  // for most pixel counts.
  ec.images = (810 + pixels - 1) / pixels;
  ec.channels = 29;
  ec.group_off = 5;
  ec.p = make_problem(21, ec.images * pixels, 64, rng);
  for (std::int64_t j = 0; j < ec.p.n; ++j) {  // one scale per image
    const auto first = static_cast<std::size_t>(j - j % pixels);
    ec.p.col_scale[static_cast<std::size_t>(j)] = ec.p.col_scale[first];
    ec.p.col_inv[static_cast<std::size_t>(j)] = ec.p.col_inv[first];
  }
  const Problem& p = ec.p;
  ec.eff.resize(static_cast<std::size_t>(p.m * p.n));
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t kk = 0; kk < p.k; ++kk)
        acc += static_cast<std::int32_t>(
                   p.a[static_cast<std::size_t>(i * p.k + kk)]) *
               igemm::detail::quantize_value(
                   p.b[static_cast<std::size_t>(kk * p.rs + j)],
                   p.col_inv[static_cast<std::size_t>(j)]);
      ec.eff[static_cast<std::size_t>(i * p.n + j)] = acc;
    }
  ec.residual.resize(
      static_cast<std::size_t>(ec.images * ec.channels * pixels));
  for (auto& v : ec.residual) v = static_cast<float>(rng.uniform(-3.0, 3.0));
  return ec;
}

constexpr float kSentinel = -999.0f;

// The float add of an x86 Add node with `a` as the first source: a NaN `a`
// wins, quieted. Written out because the compiler may swap the operands of
// a plain `a + b`.
float add_first(float a, float b) {
  if (std::isnan(a))
    return std::bit_cast<float>(std::bit_cast<std::uint32_t>(a) | 0x400000u);
  return a + b;
}

struct EpilogueOut {
  std::vector<float> c;       // [images, channels, pixels]
  std::vector<float> absmax;  // [images]
};

EpilogueOut oracle_epilogue(const EpilogueCase& ec, const igemm::Epilogue& ep) {
  const Problem& p = ec.p;
  EpilogueOut out{std::vector<float>(ec.residual.size(), kSentinel),
                  std::vector<float>(static_cast<std::size_t>(ec.images),
                                     0.0f)};
  for (std::int64_t i = 0; i < p.m; ++i)
    for (std::int64_t j = 0; j < p.n; ++j) {
      const auto at = static_cast<std::size_t>(ec.at(i, j));
      float v = igemm::detail::epilogue_value(
          ec.eff[static_cast<std::size_t>(i * p.n + j)],
          p.row_scale[static_cast<std::size_t>(i)],
          p.col_scale[static_cast<std::size_t>(j)],
          p.bias[static_cast<std::size_t>(i)]);
      if (ep.residual != nullptr) {
        const float r = ec.residual[at];
        v = ep.residual_first ? add_first(r, v) : add_first(v, r);
      }
      if (ep.act == igemm::Act::kRelu) kernels::relu(&v, &v, 1);
      if (ep.act == igemm::Act::kReluCap) kernels::relu_cap(&v, &v, 1, ep.cap);
      out.c[at] = v;
      float& mx = out.absmax[static_cast<std::size_t>(j / ec.pixels)];
      if (v > mx) mx = v;
    }
  return out;
}

EpilogueOut run_epilogue(const EpilogueCase& ec, igemm::Epilogue ep,
                         bool use_scalar) {
  const Problem& p = ec.p;
  std::vector<std::int8_t> ap(
      static_cast<std::size_t>(igemm::packed_a_bytes(p.m, p.k)));
  std::vector<std::int32_t> rowsum(static_cast<std::size_t>(p.m));
  igemm::pack_a_s8(p.a.data(), p.m, p.k, ap.data(), rowsum.data());
  std::vector<std::uint8_t> bp(
      static_cast<std::size_t>(igemm::packed_b_bytes(p.k, p.n)));
  igemm::pack_b_quantized(p.b.data(), p.rs, p.cs, p.k, p.n, p.col_inv.data(),
                          bp.data());
  EpilogueOut out{std::vector<float>(ec.residual.size(), kSentinel),
                  std::vector<float>(static_cast<std::size_t>(ec.images),
                                     0.0f)};
  const std::int64_t off = ec.group_off * ec.pixels;
  ep.row_scale = p.row_scale.data();
  ep.col_scale = p.col_scale.data();
  ep.bias = p.bias.data();
  ep.pixels = ec.pixels;
  ep.image_stride = ec.channels * ec.pixels;
  if (ep.residual != nullptr) ep.residual = ec.residual.data() + off;
  if (ep.act != igemm::Act::kNone) ep.absmax = out.absmax.data();
  auto* gemm = use_scalar ? &igemm::scalar::gemm : &igemm::gemm;
  gemm(p.m, p.n, p.k, ap.data(), rowsum.data(), bp.data(), out.c.data() + off,
       /*ldc=*/ec.pixels, ep);
  return out;
}

void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << " at " << i << ": got " << got[i] << ", want " << want[i];
}

// Every (residual order, activation) pairing on one case, both backends.
void check_epilogue(const EpilogueCase& ec, const std::string& what) {
  for (int res = 0; res < 3; ++res)
    for (const igemm::Act act :
         {igemm::Act::kNone, igemm::Act::kRelu, igemm::Act::kReluCap}) {
      igemm::Epilogue ep;  // run_epilogue rebases the residual pointer
      ep.residual = res > 0 ? ec.residual.data() : nullptr;
      ep.residual_first = res == 2;
      ep.act = act;
      ep.cap = 6.0f;
      const std::string w = what + " res=" + std::to_string(res) +
                            " act=" + std::to_string(static_cast<int>(act));
      const EpilogueOut want = oracle_epilogue(ec, ep);
      for (bool use_scalar : {false, true}) {
        const EpilogueOut got = run_epilogue(ec, ep, use_scalar);
        const std::string ww = w + (use_scalar ? " scalar" : " backend");
        expect_same_bits(got.c, want.c, ww + " output");
        if (act != igemm::Act::kNone)
          expect_same_bits(got.absmax, want.absmax, ww + " absmax");
        if (testing::Test::HasFatalFailure()) return;
      }
    }
}

TEST(Int8Epilogue, NchwResidualActivationAndAbsMaxMatchOracle) {
  // Pixels per image from 1 (every lane its own image) through 2x2, 3x3,
  // 4x4 and 6x6 (slivers cross images) to 12x12 (many slivers per image),
  // at pool sizes 1-3: the tile grid splits differently, the bytes and the
  // maxima must not move.
  core::ThreadPool& pool = core::ThreadPool::instance();
  const std::size_t old_size = pool.size();
  Rng rng(50);
  for (std::int64_t pixels : {1, 4, 9, 16, 36, 144}) {
    const EpilogueCase ec = make_epilogue_case(pixels, rng);
    for (std::size_t threads : {1u, 2u, 3u}) {
      pool.set_size(threads);
      check_epilogue(ec, "pixels=" + std::to_string(pixels) +
                             " threads=" + std::to_string(threads));
      if (HasFatalFailure()) break;
    }
    if (HasFatalFailure()) break;
  }
  pool.set_size(old_size);
}

TEST(Int8Epilogue, ResidualOperandOrderKeepsNaNPayload) {
  // Column NaN scales carry payload A into v; residual NaNs carry payload B.
  // x86 adds return the FIRST operand's NaN, so r + v and v + r differ in
  // bits — the epilogue must keep the Add node's order.
  const float nan_a = std::bit_cast<float>(0x7fc0000au);
  const float nan_b = std::bit_cast<float>(0x7fc0000bu);
  Rng rng(51);
  for (std::int64_t pixels : {4, 36}) {
    EpilogueCase ec = make_epilogue_case(pixels, rng);
    for (std::int64_t j = 0; j < ec.p.n; j += 3)
      ec.p.col_scale[static_cast<std::size_t>(j)] = nan_a;
    for (std::size_t i = 0; i < ec.residual.size(); i += 2)
      ec.residual[i] = nan_b;
    igemm::Epilogue ep;
    ep.residual = ec.residual.data();
    ep.residual_first = true;
    const EpilogueOut first = oracle_epilogue(ec, ep);
    ep.residual_first = false;
    const EpilogueOut second = oracle_epilogue(ec, ep);
    // The case discriminates: swapping the order changes some bits.
    std::int64_t differ = 0;
    for (std::size_t i = 0; i < first.c.size(); ++i)
      differ += std::bit_cast<std::uint32_t>(first.c[i]) !=
                std::bit_cast<std::uint32_t>(second.c[i]);
    ASSERT_GT(differ, 0) << "pixels=" << pixels;
    check_epilogue(ec, "nan pixels=" + std::to_string(pixels));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cq
