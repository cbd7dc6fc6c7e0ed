#include "nn/pooling.hpp"

namespace cq::nn {

Tensor GlobalAvgPool::forward(const Tensor& x) {
  CQ_CHECK(x.shape().rank() == 4);
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto spatial = h * w;
  Tensor y = Tensor::empty(Shape{n, c});  // every element written
  const float inv = 1.0f / static_cast<float>(spatial);
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* plane = x.data() + (img * c + ch) * spatial;
      double s = 0.0;
      for (std::int64_t i = 0; i < spatial; ++i) s += plane[i];
      y.at(img, ch) = static_cast<float>(s) * inv;
    }
  if (mode_ == Mode::kTrain) shapes_.push_back(x.shape());
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  CQ_CHECK_MSG(!shapes_.empty(), "gap backward without matching forward");
  Shape in_shape = std::move(shapes_.back());
  shapes_.pop_back();
  const auto n = in_shape[0], c = in_shape[1], h = in_shape[2],
             w = in_shape[3];
  const auto spatial = h * w;
  CQ_CHECK(grad_out.shape().rank() == 2 && grad_out.dim(0) == n &&
           grad_out.dim(1) == c);
  Tensor grad_in = Tensor::empty(in_shape);  // every plane fully assigned
  const float inv = 1.0f / static_cast<float>(spatial);
  for (std::int64_t img = 0; img < n; ++img)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(img, ch) * inv;
      float* plane = grad_in.data() + (img * c + ch) * spatial;
      for (std::int64_t i = 0; i < spatial; ++i) plane[i] = g;
    }
  return grad_in;
}

}  // namespace cq::nn
