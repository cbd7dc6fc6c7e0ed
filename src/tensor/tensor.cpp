#include "tensor/tensor.hpp"

#include <algorithm>
#include <cstring>

namespace cq {

Tensor::Tensor() : shape_(), numel_(1), storage_(Storage::acquire(1)) {
  storage_.data()[0] = 0.0f;
}

Tensor::Tensor(Shape shape, Uninit)
    : shape_(std::move(shape)),
      numel_(shape_.numel()),
      storage_(Storage::acquire(numel_)) {}

Tensor::Tensor(Shape shape) : Tensor(std::move(shape), Uninit{}) {
  std::memset(storage_.data(), 0,
              static_cast<std::size_t>(numel_) * sizeof(float));
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : Tensor(std::move(shape), Uninit{}) {
  CQ_CHECK_MSG(static_cast<std::int64_t>(data.size()) == numel_,
               "data size " << data.size() << " != shape numel " << numel_);
  std::copy(data.begin(), data.end(), storage_.data());
}

Tensor Tensor::empty(Shape shape) { return Tensor(std::move(shape), Uninit{}); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape), Uninit{});
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape), Uninit{});
  float* d = t.storage_.data();
  for (std::int64_t i = 0; i < t.numel_; ++i)
    d[i] = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape), Uninit{});
  float* d = t.storage_.data();
  for (std::int64_t i = 0; i < t.numel_; ++i)
    d[i] = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor(Shape{static_cast<std::int64_t>(values.size())},
                std::vector<float>(values));
}

Tensor& Tensor::resize(const Shape& shape) {
  const auto new_numel = shape.numel();
  if (!storage_.unique() || storage_.capacity() < new_numel)
    storage_ = Storage::acquire(new_numel);
  shape_ = shape;
  numel_ = new_numel;
  return *this;
}

void Tensor::ensure_unique() {
  if (storage_.unique()) return;
  Storage fresh = Storage::acquire(numel_);
  std::memcpy(fresh.data(), storage_.data(),
              static_cast<std::size_t>(numel_) * sizeof(float));
  storage_ = std::move(fresh);
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  CQ_DCHECK(shape_.rank() == 2);
  return (*this)[r * shape_[1] + c];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  CQ_DCHECK(shape_.rank() == 2);
  return (*this)[r * shape_[1] + c];
}

float& Tensor::at(std::int64_t c, std::int64_t h, std::int64_t w) {
  CQ_DCHECK(shape_.rank() == 3);
  return (*this)[(c * shape_[1] + h) * shape_[2] + w];
}

float& Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w) {
  CQ_DCHECK(shape_.rank() == 4);
  return (*this)[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h,
                 std::int64_t w) const {
  CQ_DCHECK(shape_.rank() == 4);
  return (*this)[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

Tensor Tensor::reshape(Shape new_shape) const {
  CQ_CHECK_MSG(new_shape.numel() == numel_,
               "reshape " << shape_.str() << " -> " << new_shape.str()
                          << " changes element count");
  Tensor t = *this;  // shares storage; COW keeps value semantics
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::fill(float value) {
  // Full overwrite: no need to preserve shared contents, so detach without
  // copying when shared.
  if (!storage_.unique()) storage_ = Storage::acquire(numel_);
  float* d = storage_.data();
  for (std::int64_t i = 0; i < numel_; ++i) d[i] = value;
}

Tensor& Tensor::add_(const Tensor& other, float scale) {
  CQ_CHECK_MSG(same_shape(other), "add_ shape mismatch: " << shape_.str()
                                                          << " vs "
                                                          << other.shape_.str());
  const float* src = other.data();
  float* dst = data();
  for (std::int64_t i = 0; i < numel_; ++i) dst[i] += scale * src[i];
  return *this;
}

Tensor& Tensor::mul_(float scale) {
  float* d = data();
  for (std::int64_t i = 0; i < numel_; ++i) d[i] *= scale;
  return *this;
}

}  // namespace cq
