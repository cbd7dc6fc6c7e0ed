#include "nn/activations.hpp"

#include "tensor/kernels/kernels.hpp"

namespace cq::nn {

Tensor ReLU::forward(const Tensor& x) {
  // Write into fresh (pool-recycled) storage instead of copy-then-overwrite.
  Tensor y = x.like();
  const float* xd = x.data();
  if (cap_ > 0.0f)
    kernels::relu_cap(xd, y.data(), y.numel(), cap_);
  else
    kernels::relu(xd, y.data(), y.numel());
  if (mode_ == Mode::kTrain) cache_.push_back(x);
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  CQ_CHECK_MSG(!cache_.empty(), "relu backward without matching forward");
  Tensor x = std::move(cache_.back());
  cache_.pop_back();
  CQ_CHECK(grad_out.same_shape(x));
  Tensor g = grad_out.like();
  if (cap_ > 0.0f)
    kernels::relu_cap_grad(x.data(), grad_out.data(), g.data(), g.numel(),
                           cap_);
  else
    kernels::relu_grad(x.data(), grad_out.data(), g.data(), g.numel());
  return g;
}

Tensor GELU::forward(const Tensor& x) {
  Tensor y = x.like();
  kernels::gelu(x.data(), y.data(), y.numel());
  if (mode_ == Mode::kTrain) cache_.push_back(x);
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  CQ_CHECK_MSG(!cache_.empty(), "gelu backward without matching forward");
  Tensor x = std::move(cache_.back());
  cache_.pop_back();
  CQ_CHECK(grad_out.same_shape(x));
  Tensor g = grad_out.like();
  kernels::gelu_grad(x.data(), grad_out.data(), g.data(), g.numel());
  return g;
}

}  // namespace cq::nn
