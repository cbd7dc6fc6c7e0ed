// Eager tensor operations. add, matmul, matmul_nt and transpose have a
// destination-passing `_into` variant that resizes `out` (reusing its pooled
// storage when possible) and writes the full result into it; the
// value-returning APIs are thin wrappers that allocate `out` from the pool.
// Shapes are validated with CQ_CHECK so misuse fails at the call site.
//
// _into aliasing contract: add_into may be called with `out` aliasing an
// input (same object or shared storage) — it reads inputs through their own
// handles, so copy-on-write keeps the result correct. The matmul/transpose
// `_into` ops require `out` to be distinct from both inputs (checked).
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace cq::ops {

// ---- elementwise -----------------------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor& add_into(const Tensor& a, const Tensor& b, Tensor& out);

// ---- reductions ------------------------------------------------------------

/// Argmax along dim 1 of an [N, D] tensor -> vector of indices.
std::vector<std::int64_t> row_argmax(const Tensor& a);

// ---- linear algebra --------------------------------------------------------
//
// All three matmul variants dispatch into the blocked kernels in
// tensor/gemm.hpp: float32 accumulation, no zero-skipping, so NaN/Inf
// propagate identically across variants.

/// C[M,N] = A[M,K] * B[K,N].
Tensor matmul(const Tensor& a, const Tensor& b);
/// C[M,N] = A[K,M]^T * B[K,N]. The library's backward passes call
/// gemm::gemm directly; tests use this as the weight-gradient reference.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C[M,N] = A[M,K] * B[N,K]^T.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// Transpose of a rank-2 tensor.
Tensor transpose(const Tensor& a);

/// Destination-passing matmuls: `out` is resized to [M,N] (storage reused
/// when possible) and fully overwritten. `out` must not alias `a` or `b`.
Tensor& matmul_into(const Tensor& a, const Tensor& b, Tensor& out);
Tensor& matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out);
Tensor& transpose_into(const Tensor& a, Tensor& out);

// ---- neural-net helpers ----------------------------------------------------

/// Row-wise softmax of an [N, D] tensor (numerically stabilized); the
/// reference log_softmax_rows is tested against.
Tensor softmax_rows(const Tensor& a);
/// Row-wise log-softmax of an [N, D] tensor.
Tensor log_softmax_rows(const Tensor& a);
/// L2-normalize each row of an [N, D] tensor; rows with norm < eps are left
/// unchanged. Returns the normalized tensor and writes per-row norms into
/// `norms_out` (size N) when non-null.
Tensor l2_normalize_rows(const Tensor& a, Tensor* norms_out = nullptr,
                         float eps = 1e-12f);

}  // namespace cq::ops
