#include "serve/model.hpp"

namespace cq::serve {

namespace {

// One class serves both precisions: the precision is a CompileOptions
// field, not a code path — the pass pipeline and executor handle the rest.
class GraphInstance : public ModelInstance {
 public:
  GraphInstance(nn::Sequential& backbone, const Shape& sample_shape,
                std::int64_t max_batch, graph::Precision precision)
      : model_(graph::compile(backbone, sample_shape,
                              graph::CompileOptions{max_batch, precision,
                                                    /*run_passes=*/true})) {}

  const Tensor& forward(const Tensor& batch) override {
    return model_.forward(batch);
  }
  std::int64_t arena_bytes() const override { return model_.arena_bytes(); }
  graph::CompiledModel* compiled() override { return &model_; }

 private:
  graph::CompiledModel model_;
};

}  // namespace

std::unique_ptr<ModelInstance> make_instance(InstanceKind kind,
                                             nn::Sequential& backbone,
                                             const Shape& sample_shape,
                                             std::int64_t max_batch) {
  const auto precision = kind == InstanceKind::kFp32
                             ? graph::Precision::kF32
                             : graph::Precision::kInt8;
  return std::make_unique<GraphInstance>(backbone, sample_shape, max_batch,
                                         precision);
}

}  // namespace cq::serve
