// Sequential container: forward chains children; backward runs in reverse.
#pragma once

#include <memory>

#include "nn/module.hpp"

namespace cq::nn {

class Sequential : public Module {
 public:
  Sequential() = default;

  /// Append a child module; returns a reference for further configuration.
  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    m->set_mode(mode());
    children_.push_back(std::move(m));
    return ref;
  }

  const char* type_name() const override { return "Sequential"; }
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void visit_children(const std::function<void(Module&)>& fn) override;

  std::size_t size() const { return children_.size(); }
  Module& child(std::size_t i) { return *children_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace cq::nn
