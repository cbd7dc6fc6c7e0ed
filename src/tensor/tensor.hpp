// Tensor: dense, contiguous, row-major float32 array with value semantics.
//
// Deliberately simple (Core Guidelines P.11): no strides, no views, no lazy
// evaluation. Value semantics are preserved via copy-on-write over a
// ref-counted, pool-backed Storage (storage.hpp): copies, reshapes, and
// cache pushes share the buffer; the first mutation through a non-const
// accessor detaches. Destroyed buffers park in a thread-local free-list
// pool, so steady-state training iterations recycle storage instead of
// re-allocating (see cq::tensor::alloc_stats()).
#pragma once

#include <span>
#include <vector>

#include "tensor/shape.hpp"
#include "tensor/storage.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace cq {

class Tensor {
 public:
  /// Empty tensor (rank 0, one element, value 0).
  Tensor();
  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  /// Tensor with explicit data; data.size() must equal shape.numel().
  Tensor(Shape shape, std::vector<float> data);

  static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  static Tensor full(Shape shape, float value);
  static Tensor ones(Shape shape) { return full(std::move(shape), 1.0f); }
  /// Pool-backed tensor with UNSPECIFIED contents — for destinations that
  /// are fully overwritten (gemm outputs, _into ops). Prefer zeros() when
  /// any element might be read before being written.
  static Tensor empty(Shape shape);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0f,
                        float hi = 1.0f);
  /// I.i.d. normal entries.
  static Tensor randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// 1-D tensor from values.
  static Tensor from(std::initializer_list<float> values);

  /// Same-shape tensor with unspecified contents (reuse constructor).
  Tensor like() const { return empty(shape_); }

  /// Re-dimension in place, reusing the current buffer when it is unshared
  /// and large enough (otherwise a pool acquire). Contents are UNSPECIFIED
  /// afterwards; this is the reuse path for per-iteration scratch tensors.
  Tensor& resize(const Shape& shape);
  Tensor& resize_as(const Tensor& other) { return resize(other.shape_); }

  const Shape& shape() const { return shape_; }
  std::int64_t numel() const { return numel_; }
  std::int64_t dim(std::int64_t i) const { return shape_.dim(i); }

  float* data() {
    ensure_unique();
    return storage_.data();
  }
  const float* data() const { return storage_.data(); }
  std::span<float> span() {
    return {data(), static_cast<std::size_t>(numel_)};
  }
  std::span<const float> span() const {
    return {storage_.data(), static_cast<std::size_t>(numel_)};
  }

  float& operator[](std::int64_t i) {
    CQ_DCHECK(i >= 0 && i < numel_);
    return data()[i];
  }
  float operator[](std::int64_t i) const {
    CQ_DCHECK(i >= 0 && i < numel_);
    return storage_.data()[i];
  }

  /// 2-D accessor; requires rank 2.
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;
  /// 3-D accessor (CHW images); requires rank 3.
  float& at(std::int64_t c, std::int64_t h, std::int64_t w);
  /// 4-D accessor (NCHW); requires rank 4.
  float& at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
  float at(std::int64_t n, std::int64_t c, std::int64_t h,
           std::int64_t w) const;

  /// Reinterpret as a new shape with the same element count. Shares storage
  /// with this tensor (zero-copy); copy-on-write keeps value semantics.
  Tensor reshape(Shape new_shape) const;

  /// Set all elements to `value`.
  void fill(float value);

  /// In-place elementwise updates (used by optimizers; avoid temporaries).
  Tensor& add_(const Tensor& other, float scale = 1.0f);
  Tensor& mul_(float scale);

  bool same_shape(const Tensor& other) const {
    return shape_ == other.shape_;
  }

  /// True when this tensor's buffer is shared with another handle
  /// (diagnostics/tests).
  bool shares_storage() const { return storage_.use_count() > 1; }

 private:
  struct Uninit {};  // tag: acquire storage, skip zero-fill
  Tensor(Shape shape, Uninit);

  void ensure_unique();

  Shape shape_;
  std::int64_t numel_ = 1;
  Storage storage_;
};

}  // namespace cq
