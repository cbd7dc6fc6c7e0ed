#include "tensor/ops.hpp"

#include "tensor/gemm.hpp"
#include "tensor/kernels/kernels.hpp"

namespace cq::ops {

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  CQ_CHECK_MSG(a.same_shape(b), op << " shape mismatch: " << a.shape().str()
                                   << " vs " << b.shape().str());
}
}  // namespace

// ---- elementwise -----------------------------------------------------------

Tensor& add_into(const Tensor& a, const Tensor& b, Tensor& out) {
  check_same_shape(a, b, "add");
  out.resize_as(a);
  float* dst = out.data();
  const float* pa = a.data();
  const float* pb = b.data();
  const auto n = a.numel();
  for (std::int64_t i = 0; i < n; ++i) dst[i] = pa[i] + pb[i];
  return out;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a.like();
  return std::move(add_into(a, b, out));
}

// ---- reductions ------------------------------------------------------------

std::vector<std::int64_t> row_argmax(const Tensor& a) {
  CQ_CHECK(a.shape().rank() == 2);
  const auto n = a.dim(0), d = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < d; ++c)
      if (a.at(r, c) > a.at(r, best)) best = c;
    out[static_cast<std::size_t>(r)] = best;
  }
  return out;
}

// ---- linear algebra --------------------------------------------------------

namespace {
void check_no_alias(const Tensor& a, const Tensor& b, const Tensor& out,
                    const char* op) {
  CQ_CHECK_MSG(out.data() != a.data() && out.data() != b.data(),
               op << "_into: out must not alias an input");
}
}  // namespace

Tensor& matmul_into(const Tensor& a, const Tensor& b, Tensor& out) {
  CQ_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2);
  const auto m = a.dim(0), k = a.dim(1), n = b.dim(1);
  CQ_CHECK_MSG(b.dim(0) == k, "matmul inner dims: " << a.shape().str() << " * "
                                                    << b.shape().str());
  out.resize(Shape{m, n});
  check_no_alias(a, b, out, "matmul");
  gemm::gemm(gemm::Trans::kNN, m, n, k, a.data(), b.data(), out.data());
  return out;
}

Tensor& matmul_nt_into(const Tensor& a, const Tensor& b, Tensor& out) {
  CQ_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2);
  const auto m = a.dim(0), k = a.dim(1), n = b.dim(0);
  CQ_CHECK_MSG(b.dim(1) == k, "matmul_nt inner dims: " << a.shape().str()
                                                       << " * "
                                                       << b.shape().str()
                                                       << "^T");
  out.resize(Shape{m, n});
  check_no_alias(a, b, out, "matmul_nt");
  gemm::gemm(gemm::Trans::kNT, m, n, k, a.data(), b.data(), out.data());
  return out;
}

Tensor& transpose_into(const Tensor& a, Tensor& out) {
  CQ_CHECK(a.shape().rank() == 2);
  const auto m = a.dim(0), n = a.dim(1);
  out.resize(Shape{n, m});
  CQ_CHECK_MSG(out.data() != a.data(), "transpose_into: out must not alias a");
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  Tensor c;
  return std::move(matmul_into(a, b, c));
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CQ_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2);
  const auto k = a.dim(0), m = a.dim(1), n = b.dim(1);
  CQ_CHECK_MSG(b.dim(0) == k, "matmul_tn inner dims: " << a.shape().str()
                                                       << "^T * "
                                                       << b.shape().str());
  Tensor c = Tensor::empty(Shape{m, n});
  gemm::gemm(gemm::Trans::kTN, m, n, k, a.data(), b.data(), c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  Tensor c;
  return std::move(matmul_nt_into(a, b, c));
}

Tensor transpose(const Tensor& a) {
  Tensor out;
  return std::move(transpose_into(a, out));
}

// ---- neural-net helpers ----------------------------------------------------

Tensor softmax_rows(const Tensor& a) {
  CQ_CHECK(a.shape().rank() == 2);
  const auto n = a.dim(0), d = a.dim(1);
  Tensor out = a;
  kernels::softmax_rows(out.data(), n, d);
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  CQ_CHECK(a.shape().rank() == 2);
  const auto n = a.dim(0), d = a.dim(1);
  Tensor out = a;
  kernels::log_softmax_rows(out.data(), n, d);
  return out;
}

Tensor l2_normalize_rows(const Tensor& a, Tensor* norms_out, float eps) {
  CQ_CHECK(a.shape().rank() == 2);
  const auto n = a.dim(0), d = a.dim(1);
  Tensor out = a;
  if (norms_out == nullptr) {
    kernels::l2_normalize_rows(out.data(), n, d, nullptr, eps);
  } else {
    Tensor norms = Tensor::empty(Shape{n});
    kernels::l2_normalize_rows(out.data(), n, d, norms.data(), eps);
    *norms_out = std::move(norms);
  }
  return out;
}

}  // namespace cq::ops
