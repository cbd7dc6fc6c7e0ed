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

inline std::uint64_t pc64(std::uint64_t v) {
  return static_cast<std::uint64_t>(std::popcount(v));
}

std::uint32_t hamming_distance_portable(const std::uint64_t* a,
                                        const std::uint64_t* b,
                                        std::int64_t words) {
  std::uint64_t d = 0;
  for (std::int64_t w = 0; w < words; ++w) d += pc64(a[w] ^ b[w]);
  return static_cast<std::uint32_t>(d);
}

/// hamming_below over rows [r, rows), appending after the first n outputs;
/// returns the new count. The portable kernel, and the row tail of the
/// vector paths.
std::int64_t hamming_below_rows(const std::uint64_t* query,
                                const std::uint64_t* base, std::int64_t r,
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
inline std::int64_t emit_survivors(std::uint32_t mask, std::int64_t r,
                                   const std::uint64_t* dist,
                                   std::int64_t* rows_out,
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

void binarize_1bit_portable(const float* x, std::int64_t rows,
                            std::int64_t cols, const float* thresholds,
                            std::int64_t words_per_row, std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    for (std::int64_t j = 0; j < cols; ++j)
      code[j >> 6] |= static_cast<std::uint64_t>(row[j] > thresholds[j])
                      << (j & 63);
  }
}

void binarize_2bit_portable(const float* x, std::int64_t rows,
                            std::int64_t cols, const float* lo,
                            const float* hi, std::int64_t words_per_row,
                            std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int64_t b = 2 * j;
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > lo[j]) << (b & 63);
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > hi[j])
                      << ((b + 1) & 63);
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

/// Per-64-bit-lane popcount of a 256-bit vector: nibble LUT (pshufb) for
/// per-byte counts, then psadbw against zero to sum bytes into the four u64
/// lanes. The standard Mula kernel — ~3x a dependent chain of scalar popcnt
/// at scan footprints.
inline __m256i popcount256(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

#if !HAMMING_VPOPCNT
/// Sum of the four u64 lanes.
inline std::uint64_t hsum4_epi64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return static_cast<std::uint64_t>(
      _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s))));
}

std::uint32_t hamming_distance_avx2(const std::uint64_t* a,
                                    const std::uint64_t* b,
                                    std::int64_t words) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t d = hsum4_epi64(acc);
  for (; w < words; ++w) d += pc64(a[w] ^ b[w]);
  return static_cast<std::uint32_t>(d);
}

std::int64_t hamming_below_avx2(const std::uint64_t* query,
                                const std::uint64_t* base, std::int64_t rows,
                                std::int64_t words, std::uint32_t limit,
                                std::int64_t* rows_out,
                                std::uint32_t* dist_out) {
  // AVX2 has no unsigned compare, but distances are at most 64*words, so a
  // limit capped at 64*words + 1 fits a signed 64-bit lane compare.
  const std::uint64_t all = 64 * static_cast<std::uint64_t>(words) + 1;
  const long long cap =
      static_cast<long long>(std::min<std::uint64_t>(limit, all));
  const __m256i lim = _mm256_set1_epi64x(cap);
  alignas(32) std::uint64_t lanes[16];
  std::int64_t n = 0;
  std::int64_t r = 0;
  if (words == 1) {
    // Four rows per vector, sixteen per step; one branch per step.
    const __m256i q = _mm256_set1_epi64x(static_cast<long long>(query[0]));
    for (; r + 16 <= rows; r += 16) {
      __m256i d[4];
      unsigned mask = 0;
      for (int j = 0; j < 4; ++j) {
        d[j] = popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(base + r + 4 * j)),
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
  } else if (words == 2) {
    // Two rows per vector. Fold each row's two word counts with an
    // unpack pair, then restore row order across the two 128-bit halves.
    const __m256i q = _mm256_setr_epi64x(static_cast<long long>(query[0]),
                                         static_cast<long long>(query[1]),
                                         static_cast<long long>(query[0]),
                                         static_cast<long long>(query[1]));
    for (; r + 8 <= rows; r += 8) {
      __m256i d[2];
      unsigned mask = 0;
      for (int j = 0; j < 2; ++j) {
        const std::uint64_t* p = base + 2 * (r + 4 * j);
        const __m256i a = popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)), q));
        const __m256i b = popcount256(_mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 4)), q));
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
    // Four words per popcount step within each row.
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
                        std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      // _CMP_GT_OQ matches the portable `>` exactly (NaN -> false).
      const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(_mm256_loadu_ps(row + j),
                        _mm256_loadu_ps(thresholds + j), _CMP_GT_OQ)));
      code[j >> 6] |= static_cast<std::uint64_t>(mask) << (j & 63);
    }
    for (; j < cols; ++j)
      code[j >> 6] |= static_cast<std::uint64_t>(row[j] > thresholds[j])
                      << (j & 63);
  }
}

/// Spread the low 8 bits of m so bit i lands at bit 2i (for interleaving the
/// lo/hi thermometer masks of 8 dimensions into 16 adjacent code bits).
inline std::uint64_t spread8(unsigned m) {
  std::uint64_t v = m;
  v = (v | (v << 4)) & 0x0F0Fu;
  v = (v | (v << 2)) & 0x3333u;
  v = (v | (v << 1)) & 0x5555u;
  return v;
}

void binarize_2bit_avx2(const float* x, std::int64_t rows, std::int64_t cols,
                        const float* lo, const float* hi,
                        std::int64_t words_per_row, std::uint64_t* codes) {
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = x + r * cols;
    std::uint64_t* code = codes + r * words_per_row;
    std::memset(code, 0, static_cast<std::size_t>(words_per_row) * 8);
    std::int64_t j = 0;
    for (; j + 8 <= cols; j += 8) {
      const __m256 v = _mm256_loadu_ps(row + j);
      const unsigned mlo = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(v, _mm256_loadu_ps(lo + j), _CMP_GT_OQ)));
      const unsigned mhi = static_cast<unsigned>(_mm256_movemask_ps(
          _mm256_cmp_ps(v, _mm256_loadu_ps(hi + j), _CMP_GT_OQ)));
      const std::int64_t b = 2 * j;  // multiple of 16: the pair fits one word
      code[b >> 6] |= (spread8(mlo) | (spread8(mhi) << 1)) << (b & 63);
    }
    for (; j < cols; ++j) {
      const std::int64_t b = 2 * j;
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > lo[j]) << (b & 63);
      code[b >> 6] |= static_cast<std::uint64_t>(row[j] > hi[j])
                      << ((b + 1) & 63);
    }
  }
}

#endif  // CQ_SIMD_AVX2

// ---- AVX-512 VPOPCNTDQ path ------------------------------------------------
// hamming_below only: one vpopcntq counts eight whole words, and the limit
// compare lands in a mask register, so a step that keeps no row costs a
// load, an xor, a popcount and a compare per vector plus one branch.

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

std::int64_t hamming_below_vpopcnt(const std::uint64_t* query,
                                   const std::uint64_t* base,
                                   std::int64_t rows, std::int64_t words,
                                   std::uint32_t limit,
                                   std::int64_t* rows_out,
                                   std::uint32_t* dist_out) {
  const __m512i lim = _mm512_set1_epi64(static_cast<long long>(limit));
  alignas(64) std::uint64_t lanes[32];
  std::int64_t n = 0;
  std::int64_t r = 0;
  if (words == 1) {
    // Eight rows per vector, 32 per step.
    const __m512i q = _mm512_set1_epi64(static_cast<long long>(query[0]));
    for (; r + 32 <= rows; r += 32) {
      __m512i d[4];
      std::uint32_t mask = 0;
      for (int j = 0; j < 4; ++j) {
        d[j] = _mm512_popcnt_epi64(
            _mm512_xor_si512(_mm512_loadu_si512(base + r + 8 * j), q));
        mask |= static_cast<std::uint32_t>(_mm512_cmplt_epu64_mask(d[j], lim))
                << (8 * j);
      }
      if (mask == 0) continue;
      for (int j = 0; j < 4; ++j) _mm512_store_si512(lanes + 8 * j, d[j]);
      n = emit_survivors(mask, r, lanes, rows_out, dist_out, n);
    }
  } else if (words == 2) {
    // Four rows per vector; a two-source permute gathers the first and the
    // second word counts of eight rows, in row order, for one add.
    const __m512i q = _mm512_set_epi64(
        static_cast<long long>(query[1]), static_cast<long long>(query[0]),
        static_cast<long long>(query[1]), static_cast<long long>(query[0]),
        static_cast<long long>(query[1]), static_cast<long long>(query[0]),
        static_cast<long long>(query[1]), static_cast<long long>(query[0]));
    const __m512i first = even_lanes(), second = odd_lanes();
    for (; r + 16 <= rows; r += 16) {
      __m512i d[2];
      std::uint32_t mask = 0;
      for (int j = 0; j < 2; ++j) {
        const std::uint64_t* p = base + 2 * (r + 8 * j);
        const __m512i a = _mm512_popcnt_epi64(
            _mm512_xor_si512(_mm512_loadu_si512(p), q));
        const __m512i b = _mm512_popcnt_epi64(
            _mm512_xor_si512(_mm512_loadu_si512(p + 8), q));
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
    // Eight rows per step, up to eight words per row per masked load; one
    // transposing reduction turns the eight rows' word counts into eight
    // distances.
    for (; r + 8 <= rows; r += 8) {
      __m512i acc[8];
      for (auto& a : acc) a = _mm512_setzero_si512();
      for (std::int64_t w = 0; w < words; w += 8) {
        const __mmask8 km = static_cast<__mmask8>(
            w + 8 <= words ? 0xFF : (1u << (words - w)) - 1);
        const __m512i qv = _mm512_maskz_loadu_epi64(km, query + w);
        for (int i = 0; i < 8; ++i) {
          const std::uint64_t* p = base + (r + i) * words + w;
          acc[i] = _mm512_add_epi64(
              acc[i], _mm512_popcnt_epi64(_mm512_xor_si512(
                          _mm512_maskz_loadu_epi64(km, p), qv)));
        }
      }
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
                   std::uint64_t* codes) {
  binarize_1bit_avx2(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes) {
  binarize_2bit_avx2(x, rows, cols, lo, hi, words_per_row, codes);
}

#else

void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes) {
  binarize_1bit_portable(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes) {
  binarize_2bit_portable(x, rows, cols, lo, hi, words_per_row, codes);
}

#endif

std::int64_t hamming_below(const std::uint64_t* query,
                           const std::uint64_t* base, std::int64_t rows,
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

std::uint32_t hamming_distance(const std::uint64_t* a, const std::uint64_t* b,
                               std::int64_t words) {
  return hamming_distance_portable(a, b, words);
}
std::int64_t hamming_below(const std::uint64_t* query,
                           const std::uint64_t* base, std::int64_t rows,
                           std::int64_t words_per_row, std::uint32_t limit,
                           std::int64_t* rows_out, std::uint32_t* dist_out) {
  return hamming_below_rows(query, base, 0, rows, words_per_row, limit,
                            rows_out, dist_out, 0);
}
void binarize_1bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* thresholds, std::int64_t words_per_row,
                   std::uint64_t* codes) {
  binarize_1bit_portable(x, rows, cols, thresholds, words_per_row, codes);
}
void binarize_2bit(const float* x, std::int64_t rows, std::int64_t cols,
                   const float* lo, const float* hi,
                   std::int64_t words_per_row, std::uint64_t* codes) {
  binarize_2bit_portable(x, rows, cols, lo, hi, words_per_row, codes);
}
void dot_scan(const float* query, const float* base, std::int64_t rows,
              std::int64_t dim, float* out) {
  dot_scan_impl<simd::VecPortable>(query, base, rows, dim, out);
}

}  // namespace scalar

}  // namespace cq::kernels
