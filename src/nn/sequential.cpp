#include "nn/sequential.hpp"

#include "util/check.hpp"

namespace cq::nn {

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& child : children_) h = child->forward(h);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::visit_children(const std::function<void(Module&)>& fn) {
  for (auto& child : children_) fn(*child);
}

}  // namespace cq::nn
