// Blocked GEMM implementation (BLIS-style). This translation unit is compiled
// with -march=native (see src/CMakeLists.txt) so the micro-kernel vectorizes
// to the widest SIMD the build machine has; the rest of the library keeps the
// portable baseline flags.
//
// Fusion hooks (DESIGN.md §9):
//  * quantize-on-pack — pack_a/pack_b optionally run each gathered element
//    through gemm::quantize_value, so a fake-quantized operand is only ever
//    materialized sliver-by-sliver inside the packing scratch.
//  * epilogue — bias add + activation applied to the register tile during
//    write-back of the LAST k-panel, after the accumulated sum (and any
//    partial C from earlier panels / accumulate mode) is complete. The
//    per-element operation sequence equals the unfused
//    gemm-then-bias-then-act pipeline, so results are bit-identical.
#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/trace.hpp"
#include "util/check.hpp"

namespace cq::gemm {
namespace {

constexpr std::int64_t MR = kMR;
constexpr std::int64_t NR = kNR;
constexpr std::int64_t MC = kMC;
constexpr std::int64_t KC = kKC;
constexpr std::int64_t NC = kNC;

static_assert(MC % MR == 0 && NC % NR == 0, "cache blocks must tile evenly");

// Element accessors for the logical operands: op(A)(i,p) = a[i*rs + p*cs]
// and op(B)(p,j) = b[p*rs + j*cs]. The transpose variants differ only here.
struct Strides {
  std::int64_t rs, cs;
};

Strides a_strides(Trans t, std::int64_t m, std::int64_t k) {
  // kNN/kNT store A as [M,K]; kTN stores A as [K,M] and reads it transposed.
  return t == Trans::kTN ? Strides{1, m} : Strides{k, 1};
}

Strides b_strides(Trans t, std::int64_t k, std::int64_t n) {
  // kNN/kTN store B as [K,N]; kNT stores B as [N,K] and reads it transposed.
  return t == Trans::kNT ? Strides{1, k} : Strides{n, 1};
}

// Pack an mc x kc block of op(A) into MR-row slivers: sliver s holds rows
// [s*MR, s*MR+MR) laid out p-major so the micro-kernel reads MR contiguous
// floats per k-step. Short edge slivers are zero-padded to full MR. The
// quantized variant folds Eq. 10 into the gather (quantize-on-pack).
template <bool Q>
void pack_a_impl(const float* a, Strides s, std::int64_t mc, std::int64_t kc,
                 float* ap, const QuantSpec& q) {
  float* dst = ap;
  for (std::int64_t ir = 0; ir < mc; ir += MR) {
    const std::int64_t mr = std::min(MR, mc - ir);
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t i = 0; i < mr; ++i) {
        const float v = a[(ir + i) * s.rs + p * s.cs];
        *dst++ = Q ? quantize_value(v, q) : v;
      }
      for (std::int64_t i = mr; i < MR; ++i) *dst++ = 0.0f;
    }
  }
}

void pack_a(const float* a, Strides s, std::int64_t mc, std::int64_t kc,
            float* ap, const QuantSpec* q) {
  CQ_TRACE_SCOPE_HOT_BYTES("gemm.pack_a", mc * kc * sizeof(float));
  if (q != nullptr)
    pack_a_impl<true>(a, s, mc, kc, ap, *q);
  else
    pack_a_impl<false>(a, s, mc, kc, ap, QuantSpec{});
}

// Pack a kc x nc block of op(B) into NR-column slivers, zero-padded likewise.
template <bool Q>
void pack_b_impl(const float* b, Strides s, std::int64_t kc, std::int64_t nc,
                 float* bp, const QuantSpec& q) {
  if (s.cs != 1) {
    // Column-strided source (kNT: op(B) columns are contiguous rows of the
    // stored [N, K] matrix). The generic k-outer order below would read
    // with stride K on every element; walk source rows instead — contiguous
    // reads, sliver-strided writes into the (L1-resident) packed buffer.
    // Same values into the same slots, so results stay bit-identical.
    for (std::int64_t jr = 0; jr < nc; jr += NR) {
      const std::int64_t nr = std::min(NR, nc - jr);
      float* sliver = bp + (jr / NR) * (kc * NR);
      for (std::int64_t j = 0; j < NR; ++j) {
        if (j < nr) {
          const float* src = b + (jr + j) * s.cs;
          for (std::int64_t p = 0; p < kc; ++p) {
            const float v = src[p * s.rs];
            sliver[p * NR + j] = Q ? quantize_value(v, q) : v;
          }
        } else {
          for (std::int64_t p = 0; p < kc; ++p) sliver[p * NR + j] = 0.0f;
        }
      }
    }
    return;
  }
  float* dst = bp;
  for (std::int64_t jr = 0; jr < nc; jr += NR) {
    const std::int64_t nr = std::min(NR, nc - jr);
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t j = 0; j < nr; ++j) {
        const float v = b[p * s.rs + (jr + j) * s.cs];
        *dst++ = Q ? quantize_value(v, q) : v;
      }
      for (std::int64_t j = nr; j < NR; ++j) *dst++ = 0.0f;
    }
  }
}

void pack_b(const float* b, Strides s, std::int64_t kc, std::int64_t nc,
            float* bp, const QuantSpec* q) {
  CQ_TRACE_SCOPE_HOT_BYTES("gemm.pack_b", kc * nc * sizeof(float));
  if (q != nullptr)
    pack_b_impl<true>(b, s, kc, nc, bp, *q);
  else
    pack_b_impl<false>(b, s, kc, nc, bp, QuantSpec{});
}

// Epilogue applied to one C element: c = act(c + bias). The same formula is
// used by the register write-back below and the k == 0 fallback, and matches
// the historical separate bias/activation passes element-for-element.
inline float epilogue_elem(float c, float bias, const Epilogue& ep) {
  c += bias;
  switch (ep.act) {
    case Epilogue::Act::kNone:
      break;
    case Epilogue::Act::kRelu:
      c = c > 0.0f ? c : 0.0f;
      break;
    case Epilogue::Act::kReluCap:
      c = c < 0.0f ? 0.0f : (c > ep.cap ? ep.cap : c);
      break;
  }
  return c;
}

// MR x NR register tile over a kc-long packed panel pair. The NR lanes live
// in one GCC vector-extension value per row: this pins the vectorization
// axis to the contiguous B sliver (broadcast-A times vector-B), which GCC's
// loop vectorizer does not reliably pick on its own for the equivalent
// scalar loops. Edge tiles only clip the write-back.
//
// `ep` is non-null only on the final k-panel; `brow`/`bcol` are the bias
// pointers pre-offset to this tile's first row / column.
#if defined(__GNUC__) || defined(__clang__)
typedef float VecNR __attribute__((vector_size(sizeof(float) * NR)));

void micro_kernel(std::int64_t kc, const float* __restrict__ ap,
                  const float* __restrict__ bp, float* __restrict__ c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  bool overwrite, const Epilogue* ep, const float* brow,
                  const float* bcol) {
  VecNR acc[MR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    VecNR bv;  // unaligned NR-wide load of the packed B sliver
    __builtin_memcpy(&bv, bp + p * NR, sizeof(bv));
    for (std::int64_t i = 0; i < MR; ++i) acc[i] += a[i] * bv;
  }
  if (mr == MR && nr == NR) {
    VecNR biasv = {};
    if (ep != nullptr && bcol != nullptr)
      __builtin_memcpy(&biasv, bcol, sizeof(biasv));
    for (std::int64_t i = 0; i < MR; ++i) {
      float* crow = c + i * ldc;
      if (!overwrite) {
        VecNR cv;
        __builtin_memcpy(&cv, crow, sizeof(cv));
        acc[i] += cv;
      }
      if (ep != nullptr) {
        if (brow != nullptr)
          acc[i] += brow[i];  // scalar broadcasts across the lanes
        else
          acc[i] += biasv;
        if (ep->act == Epilogue::Act::kRelu) {
          float* lanes = reinterpret_cast<float*>(&acc[i]);
          for (std::int64_t j = 0; j < NR; ++j)
            lanes[j] = lanes[j] > 0.0f ? lanes[j] : 0.0f;
        } else if (ep->act == Epilogue::Act::kReluCap) {
          float* lanes = reinterpret_cast<float*>(&acc[i]);
          for (std::int64_t j = 0; j < NR; ++j)
            lanes[j] = lanes[j] < 0.0f ? 0.0f
                                       : (lanes[j] > ep->cap ? ep->cap
                                                             : lanes[j]);
        }
      }
      __builtin_memcpy(crow, &acc[i], sizeof(acc[i]));
    }
  } else {
    for (std::int64_t i = 0; i < mr; ++i) {
      float* crow = c + i * ldc;
      const float* lanes = reinterpret_cast<const float*>(&acc[i]);
      for (std::int64_t j = 0; j < nr; ++j) {
        float v = overwrite ? lanes[j] : crow[j] + lanes[j];
        if (ep != nullptr)
          v = epilogue_elem(
              v, brow != nullptr ? brow[i] : (bcol != nullptr ? bcol[j] : 0.0f),
              *ep);
        crow[j] = v;
      }
    }
  }
}
#else
void micro_kernel(std::int64_t kc, const float* __restrict__ ap,
                  const float* __restrict__ bp, float* __restrict__ c,
                  std::int64_t ldc, std::int64_t mr, std::int64_t nr,
                  bool overwrite, const Epilogue* ep, const float* brow,
                  const float* bcol) {
  float acc[MR][NR] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    for (std::int64_t i = 0; i < MR; ++i)
      for (std::int64_t j = 0; j < NR; ++j) acc[i][j] += a[i] * b[j];
  }
  for (std::int64_t i = 0; i < mr; ++i) {
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      float v = overwrite ? acc[i][j] : crow[j] + acc[i][j];
      if (ep != nullptr)
        v = epilogue_elem(
            v, brow != nullptr ? brow[i] : (bcol != nullptr ? bcol[j] : 0.0f),
            *ep);
      crow[j] = v;
    }
  }
}
#endif

// Packing scratch, reused across calls so small GEMMs don't pay an
// allocation each time. thread_local: each thread (main, serve workers) owns
// one buffer.
std::vector<float>& scratch(std::size_t need) {
  static thread_local std::vector<float> buf;
  if (buf.size() < need) buf.resize(need);
  return buf;
}

// k == 0 / empty-sum path: C is already zeroed (or holds the accumulate-mode
// values); run the epilogue as a standalone pass with the same formula.
void apply_epilogue_plain(float* c, std::int64_t m, std::int64_t n,
                          const Epilogue& ep) {
  CQ_TRACE_SCOPE_HOT_BYTES("gemm.epilogue", m * n * sizeof(float));
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    const float rbias =
        ep.bias_kind == Epilogue::Bias::kPerRow && ep.bias ? ep.bias[i] : 0.0f;
    for (std::int64_t j = 0; j < n; ++j) {
      const float bias = ep.bias_kind == Epilogue::Bias::kPerCol && ep.bias
                             ? ep.bias[j]
                             : rbias;
      crow[j] = epilogue_elem(crow[j], bias, ep);
    }
  }
}

}  // namespace

void gemm(Trans trans, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate,
          const Epilogue& epilogue, const QuantSpec* qa, const QuantSpec* qb) {
  if (m <= 0 || n <= 0) return;
  CQ_TRACE_SCOPE_BYTES("gemm", (m * k + k * n + m * n) * sizeof(float));
  // Identity specs (full precision / zero range) pack raw values.
  if (qa != nullptr && qa->identity) qa = nullptr;
  if (qb != nullptr && qb->identity) qb = nullptr;
  const Epilogue* ep = epilogue.empty() ? nullptr : &epilogue;
  const float* bias_rows =
      ep != nullptr && ep->bias_kind == Epilogue::Bias::kPerRow ? ep->bias
                                                                : nullptr;
  const float* bias_cols =
      ep != nullptr && ep->bias_kind == Epilogue::Bias::kPerCol ? ep->bias
                                                                : nullptr;

  if (k <= 0) {
    if (!accumulate)
      for (std::int64_t i = 0; i < m * n; ++i) c[i] = 0.0f;
    if (ep != nullptr) apply_epilogue_plain(c, m, n, *ep);
    return;
  }
  const Strides as = a_strides(trans, m, k);
  const Strides bs = b_strides(trans, k, n);

  const std::size_t a_cap = static_cast<std::size_t>(MC * KC);
  const std::size_t b_cap = static_cast<std::size_t>(KC * NC);
  std::vector<float>& buf = scratch(a_cap + b_cap);
  float* ap = buf.data();
  float* bp = buf.data() + a_cap;

  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += KC) {
      const std::int64_t kc = std::min(KC, k - pc);
      // The first k-panel either overwrites C or adds into the caller's
      // values; every later panel accumulates on top. The epilogue fires
      // only while writing back the final panel, when the sum is complete.
      const bool overwrite = pc == 0 && !accumulate;
      const Epilogue* panel_ep = pc + kc == k ? ep : nullptr;
      const float* bsrc = b + pc * bs.rs + jc * bs.cs;
      pack_b(bsrc, bs, kc, nc, bp, qb);
      for (std::int64_t ic = 0; ic < m; ic += MC) {
        const std::int64_t mc = std::min(MC, m - ic);
        const float* asrc = a + ic * as.rs + pc * as.cs;
        pack_a(asrc, as, mc, kc, ap, qa);
        CQ_TRACE_SCOPE_HOT("gemm.kernel");
        // Tile (jr, ir) covers C rows [ic+ir, ic+ir+mr) and columns
        // [jc+jr, jc+jr+nr); its whole kc-long sum runs in one micro_kernel.
        for (std::int64_t jr = 0; jr < nc; jr += NR) {
          const std::int64_t nr = std::min(NR, nc - jr);
          const float* bpp = bp + (jr / NR) * (kc * NR);
          for (std::int64_t ir = 0; ir < mc; ir += MR) {
            const std::int64_t mr = std::min(MR, mc - ir);
            const float* app = ap + (ir / MR) * (kc * MR);
            micro_kernel(
                kc, app, bpp, c + (ic + ir) * n + (jc + jr), n, mr, nr,
                overwrite, panel_ep,
                bias_rows != nullptr ? bias_rows + ic + ir : nullptr,
                bias_cols != nullptr ? bias_cols + jc + jr : nullptr);
          }
        }
      }
    }
  }
}

void gemm(Trans trans, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate) {
  gemm(trans, m, n, k, a, b, c, accumulate, Epilogue{}, nullptr, nullptr);
}

void gemm_prepacked_b(std::int64_t m, std::int64_t n, std::int64_t k,
                      const float* a, const float* packed_b, float* c,
                      bool accumulate, const Epilogue& epilogue,
                      const QuantSpec* qa) {
  if (m <= 0 || n <= 0) return;
  CQ_TRACE_SCOPE_BYTES("gemm.prepacked_b",
                       (m * k + k * n + m * n) * sizeof(float));
  CQ_CHECK(k > 0 && k <= KC);
  if (qa != nullptr && qa->identity) qa = nullptr;
  const Epilogue* ep = epilogue.empty() ? nullptr : &epilogue;
  const float* bias_rows =
      ep != nullptr && ep->bias_kind == Epilogue::Bias::kPerRow ? ep->bias
                                                                : nullptr;
  const float* bias_cols =
      ep != nullptr && ep->bias_kind == Epilogue::Bias::kPerCol ? ep->bias
                                                                : nullptr;
  const Strides as{k, 1};  // row-major A, kNN orientation
  // Same scratch request as gemm() so the two entry points share one
  // steady-state buffer instead of ping-ponging its capacity.
  std::vector<float>& buf =
      scratch(static_cast<std::size_t>(MC * KC + KC * NC));
  float* ap = buf.data();

  // Single k-panel: every write-back both completes the sum (epilogue
  // eligible) and owns the overwrite-vs-accumulate decision. The loop nest
  // and per-tile traversal mirror gemm() exactly, so element results are
  // bit-identical; only the source of the packed B slivers differs.
  for (std::int64_t jc = 0; jc < n; jc += NC) {
    const std::int64_t nc = std::min(NC, n - jc);
    for (std::int64_t ic = 0; ic < m; ic += MC) {
      const std::int64_t mc = std::min(MC, m - ic);
      pack_a(a + ic * k, as, mc, k, ap, qa);
      CQ_TRACE_SCOPE_HOT("gemm.kernel");
      for (std::int64_t jr = 0; jr < nc; jr += NR) {
        const std::int64_t nr = std::min(NR, nc - jr);
        const float* bpp = packed_b + ((jc + jr) / NR) * (k * NR);
        for (std::int64_t ir = 0; ir < mc; ir += MR) {
          const std::int64_t mr = std::min(MR, mc - ir);
          const float* app = ap + (ir / MR) * (k * MR);
          micro_kernel(k, app, bpp, c + (ic + ir) * n + (jc + jr), n, mr, nr,
                       !accumulate, ep,
                       bias_rows != nullptr ? bias_rows + ic + ir : nullptr,
                       bias_cols != nullptr ? bias_cols + jc + jr : nullptr);
        }
      }
    }
  }
}

namespace detail {

void pack_block_b(Trans trans, std::int64_t k, std::int64_t n, const float* b,
                  float* bp, const QuantSpec* q) {
  if (q != nullptr && q->identity) q = nullptr;
  const std::int64_t kc = std::min(k, KC);
  const std::int64_t nc = std::min(n, NC);
  pack_b(b, b_strides(trans, k, n), kc, nc, bp, q);
}

void pack_block_a(Trans trans, std::int64_t m, std::int64_t k, const float* a,
                  float* ap, const QuantSpec* q) {
  if (q != nullptr && q->identity) q = nullptr;
  const std::int64_t mc = std::min(m, MC);
  const std::int64_t kc = std::min(k, KC);
  pack_a(a, a_strides(trans, m, k), mc, kc, ap, q);
}

}  // namespace detail

namespace reference {

void gemm(Trans trans, std::int64_t m, std::int64_t n, std::int64_t k,
          const float* a, const float* b, float* c, bool accumulate) {
  if (m <= 0 || n <= 0) return;
  if (!accumulate && trans != Trans::kNT)
    for (std::int64_t i = 0; i < m * n; ++i) c[i] = 0.0f;
  switch (trans) {
    case Trans::kNN:
      // ikj loop order: unit-stride inner loop over both B and C rows.
      for (std::int64_t i = 0; i < m; ++i) {
        float* crow = c + i * n;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float aval = a[i * k + kk];
          const float* brow = b + kk * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
        }
      }
      break;
    case Trans::kTN:
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* arow = a + kk * m;
        const float* brow = b + kk * n;
        for (std::int64_t i = 0; i < m; ++i) {
          const float aval = arow[i];
          float* crow = c + i * n;
          for (std::int64_t j = 0; j < n; ++j) crow[j] += aval * brow[j];
        }
      }
      break;
    case Trans::kNT:
      // Dot-product form; accumulates in double (the golden behaviour the
      // blocked kernel's float32 tiles are tested against).
      for (std::int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::int64_t j = 0; j < n; ++j) {
          const float* brow = b + j * k;
          double s = accumulate ? static_cast<double>(crow[j]) : 0.0;
          for (std::int64_t kk = 0; kk < k; ++kk)
            s += static_cast<double>(arow[kk]) * brow[kk];
          crow[j] = static_cast<float>(s);
        }
      }
      break;
  }
}

}  // namespace reference
}  // namespace cq::gemm
