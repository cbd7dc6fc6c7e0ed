#include "tensor/kernels/hamming.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "tensor/kernels/simd.hpp"

// hamming_below's AVX-512 backend, chosen at build time like igemm's VNNI
// path: the build machine must have VPOPCNTDQ (per-u64-lane popcount).
#if !defined(CQ_FORCE_SCALAR) && defined(__AVX512F__) && \
    defined(__AVX512VPOPCNTDQ__)
#include <immintrin.h>
#define HAMMING_VPOPCNT 1
#else
#define HAMMING_VPOPCNT 0
#endif

namespace cq::kernels {

namespace {

// ---- portable core ---------------------------------------------------------
// Every kernel is integer arithmetic (popcounts, shifts, ordered float
// compares), so the portable core and the AVX2 and AVX-512 paths below agree
// bit-for-bit; the vector code only changes HOW MANY rows/words one step
// covers.

std::uint32_t hamming_distance_portable(const std::uint32_t* a,
                                        const std::uint32_t* b,
                                        std::int64_t words) {
  std::uint32_t d = 0;
  for (std::int64_t w = 0; w < words; ++w)
    d += static_cast<std::uint32_t>(std::popcount(a[w] ^ b[w]));
  return d;
}

/// hamming_below over rows [r, rows), appending after the first n outputs;
/// returns the new count. The portable kernel, and the row tail of the
/// vector paths.
std::int64_t hamming_below_rows(const std::uint32_t* query,
                                const std::uint32_t* base, std::int64_t r,
                                std::int64_t rows, std::int64_t words,
                                std::uint32_t limit, std::int64_t* rows_out,
                                std::uint32_t* dist_out, std::int64_t n) {
  for (; r < rows; ++r) {
    const std::uint32_t d =
        hamming_distance_portable(base + r * words, query, words);
    if (d < limit) {
      rows_out[n] = r;
      dist_out[n] = d;
      ++n;
    }
  }
  return n;
}

/// Appends the survivors of one vector step: bit i of `mask` set means row
/// r + i passed, with its distance in lane i of `dist`. Lowest bit first, so
/// rows stay ascending.
template <class Lane>
inline std::int64_t emit_survivors(std::uint32_t mask, std::int64_t r,
                                   const Lane* dist, std::int64_t* rows_out,
                                   std::uint32_t* dist_out, std::int64_t n) {
  while (mask) {
    const int i = std::countr_zero(mask);
    mask &= mask - 1;
    rows_out[n] = r + i;
    dist_out[n] = static_cast<std::uint32_t>(dist[i]);
    ++n;
  }
  return n;
}

/// The u64 word at p: code words p[0] (low half) and p[1].
inline std::uint64_t load_u64(const std::uint32_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void binarize_1bit_portable(const float* x, std::int64_t rows,
                            std::int64_t cols, const float* thresholds,
                            std::int64_t words_per_row, std::uint32_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint32_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 4);
    for (std::int64_t j = 0; j < cols; ++j)
      code[j >> 5] |= static_cast<std::uint32_t>(row[j] > thresholds[j])
                      << (j & 31);
  }
}

void binarize_2bit_portable(const float* x, std::int64_t rows,
                            std::int64_t cols, const float* lo,
                            const float* hi, std::int64_t words_per_row,
                            std::uint32_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint32_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 4);
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int64_t b = 2 * j;
      code[b >> 5] |= static_cast<std::uint32_t>(row[j] > lo[j]) << (b & 31);
      code[b >> 5] |= static_cast<std::uint32_t>(row[j] > hi[j])
                      << ((b + 1) & 31);
    }
  }
}

// dot_scan is the one float kernel here; written once over the Vec type so
// backend and portable twin run the identical 8-lane algorithm (two
// accumulators over 16-float steps, one over the last 8-float step, scalar
// mul/add tail) — bit-identical per the simd.hpp determinism contract.
template <class Vec>
void dot_scan_impl(const float* query, const float* base, std::int64_t rows,
                   std::int64_t dim, float* out) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = base + r * dim;
    Vec acc0 = Vec::zero();
    Vec acc1 = Vec::zero();
    std::int64_t i = 0;
    for (; i + 16 <= dim; i += 16) {
      acc0 = Vec::fma(Vec::load(query + i), Vec::load(row + i), acc0);
      acc1 = Vec::fma(Vec::load(query + i + 8), Vec::load(row + i + 8), acc1);
    }
    if (i + 8 <= dim) {
      acc0 = Vec::fma(Vec::load(query + i), Vec::load(row + i), acc0);
      i += 8;
    }
    float s = (acc0 + acc1).hsum();
    for (; i < dim; ++i) s += query[i] * row[i];
    out[r] = s;
  }
}

// ---- AVX2 paths ------------------------------------------------------------

#ifdef CQ_SIMD_AVX2

#if !HAMMING_VPOPCNT
/// Per-byte popcount of a 256-bit vector: nibble LUT (pshufb) on each half
/// byte. The standard Mula kernel — ~3x a dependent chain of scalar popcnt
/// at scan footprints.
inline __m256i popcount_bytes256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Per-64-bit-lane popcount: psadbw against zero sums the byte counts into
/// the four u64 lanes.
inline __m256i popcount256(__m256i v) {
  return _mm256_sad_epu8(popcount_bytes256(v), _mm256_setzero_si256());
}

/// Per-32-bit-lane popcount: two multiply-adds against ones sum the byte
/// counts pairwise, then the pairs, into the eight u32 lanes.
inline __m256i popcount256_epi32(__m256i v) {
  return _mm256_madd_epi16(
      _mm256_maddubs_epi16(popcount_bytes256(v), _mm256_set1_epi8(1)),
      _mm256_set1_epi16(1));
}

/// Sum of the four u64 lanes.
inline std::uint64_t hsum4_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))));
}

std::uint32_t hamming_distance_avx2(const std::uint32_t* a,
                                    const std::uint32_t* b,
                                    std::int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 8 <= words; w += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t d = hsum4_epi64(acc);
  for (; w < words; ++w)
    d += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  return static_cast<std::uint32_t>(d);
}

std::int64_t hamming_below_avx2(const std::uint32_t* query,
                                const std::uint32_t* base, std::int64_t rows,
                                std::int64_t words, std::uint32_t limit,
                                std::int64_t* rows_out,
                                std::uint32_t* dist_out) {
  // AVX2 has no unsigned compare, but distances are at most 32*words, so a
  // limit capped at 32*words + 1 fits a signed lane compare.
  const std::uint64_t all = 32 * static_cast<std::uint64_t>(words) + 1;
  const long long cap =
      static_cast<long long>(std::min<std::uint64_t>(limit, all));
  alignas(32) std::uint64_t lanes[16];
  std::int64_t n = 0;
  std::int64_t r = 0;
  if (words == 1) {
    // Eight rows per vector, sixteen per step; one branch per step.
    const __m256i q = _mm256_set1_epi32(static_cast<int>(query[0]));
    const __m256i lim = _mm256_set1_epi32(static_cast<int>(cap));
    alignas(32) std::uint32_t lanes32[16];
    for (; r + 16 <= rows; r += 16) {
      __m256i d[2];
      unsigned mask = 0;
      for (int j = 0; j < 2; ++j) {
        d[j] = popcount256_epi32(_mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(base + r + 8 * j)),
            q));
        mask |= static_cast<unsigned>(_mm256_movemask_ps(
                    _mm256_castsi256_ps(_mm256_cmpgt_epi32(lim, d[j]))))
                << (8 * j);
      }
      if (mask == 0) continue;
      for (int j = 0; j < 2; ++j)
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes32 + 8 * j), d[j]);
      n = emit_survivors(mask, r, lanes32, rows_out, dist_out, n);
    }
  } else if (words == 2) {
    // One u64 per row: four rows per vector, sixteen per step.
    const __m256i q =
        _mm256_set1_epi64x(static_cast<long long>(load_u64(query)));
    const __m256i lim = _mm256_set1_epi64x(cap);
    for (; r + 16 <= rows; r += 16) {
      __m256i d[4];
      unsigned mask = 0;
      for (int j = 0; j < 4; ++j) {
        d[j] = popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(base + 2 * (r + 4 * j))),
            q));
        mask |= static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_castsi256_pd(_mm256_cmpgt_epi64(lim, d[j]))))
                << (4 * j);
      }
      if (mask == 0) continue;
      for (int j = 0; j < 4; ++j)
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * j), d[j]);
      n = emit_survivors(mask, r, lanes, rows_out, dist_out, n);
    }
  } else if (words == 4) {
    // Two u64 per row, two rows per vector. Fold each row's two word counts
    // with an unpack pair, then restore row order across the two 128-bit
    // halves.
    const auto q0 = static_cast<long long>(load_u64(query));
    const auto q1 = static_cast<long long>(load_u64(query + 2));
    const __m256i q = _mm256_setr_epi64x(q0, q1, q0, q1);
    const __m256i lim = _mm256_set1_epi64x(cap);
    for (; r + 8 <= rows; r += 8) {
      __m256i d[2];
      unsigned mask = 0;
      for (int j = 0; j < 2; ++j) {
        const std::uint32_t* p = base + 4 * (r + 4 * j);
        const __m256i a = popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), q));
        const __m256i b = popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8)), q));
        // [r, r+2 | r+1, r+3] -> [r, r+1, r+2, r+3]
        const __m256i s = _mm256_add_epi64(_mm256_unpacklo_epi64(a, b),
                                           _mm256_unpackhi_epi64(a, b));
        d[j] = _mm256_permute4x64_epi64(s, _MM_SHUFFLE(3, 1, 2, 0));
        mask |= static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_castsi256_pd(_mm256_cmpgt_epi64(lim, d[j]))))
                << (4 * j);
      }
      if (mask == 0) continue;
      for (int j = 0; j < 2; ++j)
        _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 4 * j), d[j]);
      n = emit_survivors(mask, r, lanes, rows_out, dist_out, n);
    }
  } else {
    // Eight words per popcount step within each row.
    for (; r < rows; ++r) {
      const std::uint32_t d =
          hamming_distance_avx2(base + r * words, query, words);
      if (d < limit) {
        rows_out[n] = r;
        dist_out[n] = d;
        ++n;
      }
    }
  }
  return hamming_below_rows(query, base, r, rows, words, limit, rows_out,
                            dist_out, n);
}
#endif  // !HAMMING_VPOPCNT

void binarize_1bit_avx2(const float* x, std::int64_t rows, std::int64_t cols,
                        const float* thresholds, std::int64_t words_per_row,
                        std::uint32_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint32_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 4);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      // _CMP_GT_OQ matches the portable `>` exactly (NaN -> false).
      const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(row + j),
                        _mm256_loadu_ps(thresholds + j), _CMP_GT_OQ)));
      code[j >> 5] |= mask << (j & 31);  // j % 8 == 0: one word holds all 8
    }
    for (; j < cols; ++j)
      code[j >> 5] |= static_cast<std::uint32_t>(row[j] > thresholds[j])
                      << (j & 31);
  }
}

/// Spread the low 8 bits of m so bit i lands at bit 2i (for interleaving the
/// lo/hi thermometer masks of 8 dimensions into 16 adjacent code bits).
inline std::uint32_t spread8(unsigned m) {
  std::uint32_t v = m;
  v = (v | (v << 4)) & 0x0F0Fu;
  v = (v | (v << 2)) & 0x3333u;
  v = (v | (v << 1)) & 0x5555u;
  return v;
}

void binarize_2bit_avx2(const float* x, std::int64_t rows, std::int64_t cols,
                        const float* lo, const float* hi,
                        std::int64_t words_per_row, std::uint32_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint32_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 4);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      const unsigned mlo = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(v, _mm256_loadu_ps(lo + j), _CMP_GT_OQ)));
      const unsigned mhi = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(v, _mm256_loadu_ps(hi + j), _CMP_GT_OQ)));
      const std::int64_t b = 2 * j;  // multiple of 16: the pair fits one word
      code[b >> 5] |= (spread8(mlo) | (spread8(mhi) << 1)) << (b & 31);
    }
    for (; j < cols; ++j) {
      const std::int64_t b = 2 * j;
      code[b >> 5] |= static_cast<std::uint32_t>(row[j] > lo[j]) << (b & 31);
      code[b >> 5] |= static_cast<std::uint32_t>(row[j] > hi[j])
                      << ((b + 1) & 31);
    }
  }
}

#endif  // CQ_SIMD_AVX2

// ---- AVX-512 VPOPCNTDQ path ------------------------------------------------
// hamming_below only: one vpopcntd/vpopcntq counts sixteen or eight whole
// words, and the limit compare lands in a mask register, so a step that
// keeps no row costs a load, an xor, a popcount and a compare per vector.

#if HAMMING_VPOPCNT

/// Permute indices over two vectors a, b that gather their even (first)
/// or odd (second) u64 lanes in lane order: a's into result lanes 0-3, b's
/// into lanes 4-7.
inline __m512i even_lanes() {
  return _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
}
inline __m512i odd_lanes() {
  return _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
}

/// Lane i of the result = sum of the eight u64 lanes of v[i] (v is
/// clobbered). Each level adds the even and odd lanes of vector pairs, which
/// halves the partial sums per vector and keeps them in vector order.
inline __m512i hsum8_epi64(__m512i* v) {
  const __m512i even = even_lanes(), odd = odd_lanes();
  for (int width = 8; width > 1; width /= 2)
    for (int i = 0; i < width / 2; ++i)
      v[i] = _mm512_add_epi64(
          _mm512_permutex2var_epi64(v[2 * i], even, v[2 * i + 1]),
          _mm512_permutex2var_epi64(v[2 * i], odd, v[2 * i + 1]));
  return v[0];
}

std::int64_t hamming_below_vpopcnt(const std::uint32_t* query,
                                   const std::uint32_t* base,
                                   std::int64_t rows, std::int64_t words,
                                   std::uint32_t limit,
                                   std::int64_t* rows_out,
                                   std::uint32_t* dist_out) {
  const __m512i lim = _mm512_set1_epi64(static_cast<long long>(limit));
  alignas(64) std::uint64_t lanes[32];
  std::int64_t n = 0;
  std::int64_t r = 0;
  if (words == 1) {
    // Sixteen rows per vector, two vectors and one branch per step: almost
    // every step keeps no row. A step that does writes its survivors with
    // no per-survivor loop: vpcompressd packs their distances and lane
    // numbers to the front, and masked stores write exactly the c of them
    // after the n already out (n <= r, so the stores stay inside the
    // outputs' `rows` entries).
    const __m512i q = _mm512_set1_epi32(static_cast<int>(query[0]));
    const __m512i lim32 = _mm512_set1_epi32(static_cast<int>(limit));
    const __m512i lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12, 13, 14, 15);
    const auto dist16 = [&](std::int64_t at) {
      return _mm512_popcnt_epi32(
          _mm512_xor_si512(_mm512_loadu_si512(base + at), q));
    };
    const auto emit16 = [&](__mmask16 keep, __m512i d, std::int64_t at) {
      const int c = std::popcount(static_cast<unsigned>(keep));
      const auto head = static_cast<__mmask16>((1u << c) - 1u);
      _mm512_mask_storeu_epi32(dist_out + n, head,
                               _mm512_maskz_compress_epi32(keep, d));
      const __m512i idx = _mm512_maskz_compress_epi32(keep, lane);
      const __m512i r0 = _mm512_set1_epi64(static_cast<long long>(at));
      _mm512_mask_storeu_epi64(
          rows_out + n, static_cast<__mmask8>(head),
          _mm512_add_epi64(_mm512_cvtepi32_epi64(_mm512_castsi512_si256(idx)),
                           r0));
      _mm512_mask_storeu_epi64(
          rows_out + n + 8, static_cast<__mmask8>(head >> 8),
          _mm512_add_epi64(
              _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(idx, 1)), r0));
      n += c;
    };
    for (; r + 32 <= rows; r += 32) {
      const __m512i d0 = dist16(r), d1 = dist16(r + 16);
      const __mmask16 k0 = _mm512_cmplt_epu32_mask(d0, lim32);
      const __mmask16 k1 = _mm512_cmplt_epu32_mask(d1, lim32);
      if ((k0 | k1) == 0) continue;
      emit16(k0, d0, r);
      emit16(k1, d1, r + 16);
    }
    for (; r + 16 <= rows; r += 16) {
      const __m512i d = dist16(r);
      emit16(_mm512_cmplt_epu32_mask(d, lim32), d, r);
    }
  } else if (words == 2) {
    // One u64 per row: eight rows per vector, 32 per step.
    const __m512i q =
        _mm512_set1_epi64(static_cast<long long>(load_u64(query)));
    for (; r + 32 <= rows; r += 32) {
      __m512i d[4];
      std::uint32_t mask = 0;
      for (int j = 0; j < 4; ++j) {
        d[j] = _mm512_popcnt_epi64(_mm512_xor_si512(
            _mm512_loadu_si512(base + 2 * (r + 8 * j)), q));
        mask |= static_cast<std::uint32_t>(_mm512_cmplt_epu64_mask(d[j], lim))
                << (8 * j);
      }
      if (mask == 0) continue;
      for (int j = 0; j < 4; ++j) _mm512_store_si512(lanes + 8 * j, d[j]);
      n = emit_survivors(mask, r, lanes, rows_out, dist_out, n);
    }
  } else if (words == 4) {
    // Two u64 per row, four rows per vector; a two-source permute gathers
    // the first and the second word counts of eight rows, in row order, for
    // one add.
    const auto q0 = static_cast<long long>(load_u64(query));
    const auto q1 = static_cast<long long>(load_u64(query + 2));
    const __m512i q = _mm512_set_epi64(q1, q0, q1, q0, q1, q0, q1, q0);
    const __m512i first = even_lanes(), second = odd_lanes();
    for (; r + 16 <= rows; r += 16) {
      __m512i d[2];
      std::uint32_t mask = 0;
      for (int j = 0; j < 2; ++j) {
        const std::uint32_t* p = base + 4 * (r + 8 * j);
        const __m512i a = _mm512_popcnt_epi64(
            _mm512_xor_si512(_mm512_loadu_si512(p), q));
        const __m512i b = _mm512_popcnt_epi64(
            _mm512_xor_si512(_mm512_loadu_si512(p + 16), q));
        d[j] = _mm512_add_epi64(_mm512_permutex2var_epi64(a, first, b),
                                _mm512_permutex2var_epi64(a, second, b));
        mask |= static_cast<std::uint32_t>(_mm512_cmplt_epu64_mask(d[j], lim))
                << (8 * j);
      }
      if (mask == 0) continue;
      for (int j = 0; j < 2; ++j) _mm512_store_si512(lanes + 8 * j, d[j]);
      n = emit_survivors(mask, r, lanes, rows_out, dist_out, n);
    }
  } else {
    // Eight rows per step, up to sixteen words per row per masked load;
    // each row's u32 lane counts fold to u64 lane pairs, and one
    // transposing reduction turns the eight rows' counts into eight
    // distances.
    const __m512i low32 = _mm512_set1_epi64(0xFFFFFFFFll);
    for (; r + 8 <= rows; r += 8) {
      __m512i acc[8];
      for (auto& a : acc) a = _mm512_setzero_si512();
      for (std::int64_t w = 0; w < words; w += 16) {
        const auto km = static_cast<__mmask16>(
            w + 16 <= words ? 0xFFFFu : (1u << (words - w)) - 1u);
        const __m512i qv = _mm512_maskz_loadu_epi32(km, query + w);
        for (int i = 0; i < 8; ++i) {
          const std::uint32_t* p = base + (r + i) * words + w;
          acc[i] = _mm512_add_epi32(
              acc[i], _mm512_popcnt_epi32(_mm512_xor_si512(
                          _mm512_maskz_loadu_epi32(km, p), qv)));
        }
      }
      for (auto& a : acc)
        a = _mm512_add_epi64(_mm512_and_si512(a, low32),
                             _mm512_srli_epi64(a, 32));
      const __m512i d = hsum8_epi64(acc);
      const std::uint32_t mask = _mm512_cmplt_epu64_mask(d, lim);
      if (mask == 0) continue;
      _mm512_store_si512(lanes, d);
      n = emit_survivors(mask, r, lanes, rows_out, dist_out, n);
    }
  }
  return hamming_below_rows(query, base, r, rows, words, limit, rows_out,
                            dist_out, n);
}

#endif  // HAMMING_VPOPCNT

}  // namespace

// ---- public dispatch -------------------------------------------------------

#ifdef CQ_SIMD_AVX2

void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint32_t* codes) {
  binarize_1bit_avx2(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint32_t* codes) {
  binarize_2bit_avx2(x, rows, cols, lo, hi, words_per_row, codes);
}

#else

void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint32_t* codes) {
  binarize_1bit_portable(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint32_t* codes) {
  binarize_2bit_portable(x, rows, cols, lo, hi, words_per_row, codes);
}

#endif

std::int64_t hamming_below(const std::uint32_t* query,
                           const std::uint32_t* base, std::int64_t rows,
                           std::int64_t words_per_row, std::uint32_t limit,
                           std::int64_t* rows_out, std::uint32_t* dist_out) {
#if HAMMING_VPOPCNT
  return hamming_below_vpopcnt(query, base, rows, words_per_row, limit,
                               rows_out, dist_out);
#elif defined(CQ_SIMD_AVX2)
  return hamming_below_avx2(query, base, rows, words_per_row, limit,
                            rows_out, dist_out);
#else
  return hamming_below_rows(query, base, 0, rows, words_per_row, limit,
                            rows_out, dist_out, 0);
#endif
}

const char* hamming_below_backend() {
#if HAMMING_VPOPCNT
  return "avx512_vpopcntdq";
#elif defined(CQ_SIMD_AVX2)
  return "avx2";
#else
  return "portable";
#endif
}

void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out) {
  dot_scan_impl<simd::VecF>(query, base, rows, dim, out);
}

namespace scalar {

std::uint32_t hamming_distance(const std::uint32_t* a, const std::uint32_t* b,
                               std::int64_t words) {
  return hamming_distance_portable(a, b, words);
}
std::int64_t hamming_below(const std::uint32_t* query,
                           const std::uint32_t* base, std::int64_t rows,
                           std::int64_t words_per_row, std::uint32_t limit,
                           std::int64_t* rows_out, std::uint32_t* dist_out) {
  return hamming_below_rows(query, base, 0, rows, words_per_row, limit,
                            rows_out, dist_out, 0);
}
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint32_t* codes) {
  binarize_1bit_portable(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint32_t* codes) {
  binarize_2bit_portable(x, rows, cols, lo, hi, words_per_row, codes);
}
void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out) {
  dot_scan_impl<simd::VecPortable>(query, base, rows, dim, out);
}

}  // namespace scalar

}  // namespace cq::kernels
