// Table 7: ablation of the CQ design pipelines (CQ-A vs CQ-B vs CQ-C,
// precision set 6-16) on the CIFAR stand-in — including the paper's CQ-B
// stability observation, which we report via max gradient norm.
#include "bench_common.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 7 — CQ variant ablation",
      "SimCLR baseline vs CQ-A / CQ-B / CQ-C (all 6-16) on ResNet-34/74 + "
      "MobileNetV2. The paper reports CQ-B is prone to gradient explosion; "
      "the last column shows our measured max grad-norm (and a DIVERGED "
      "flag when training blew up).");

  const auto bundle = core::make_bundle("synth-cifar");
  const char* archs[] = {"resnet34", "resnet74", "mobilenetv2"};
  // Paper Table 7: {fp10, fp1, q10, q1} per (arch, method).
  const float paper[3][4][4] = {
      {{63.05f, 45.11f, 61.44f, 43.63f},
       {63.63f, 45.60f, 61.77f, 43.56f},
       {63.57f, 45.26f, 61.76f, 43.60f},
       {63.58f, 48.05f, 61.47f, 45.75f}},
      {{51.93f, 30.40f, 50.37f, 28.56f},
       {51.89f, 29.95f, 51.45f, 28.99f},
       {52.36f, 30.48f, 51.20f, 29.28f},
       {52.52f, 31.39f, 51.12f, 29.70f}},
      {{49.73f, 24.18f, 46.47f, 18.98f},
       {49.93f, 24.57f, 46.01f, 19.38f},
       {51.78f, 25.21f, 47.81f, 20.81f},
       {51.59f, 26.12f, 49.82f, 20.82f}},
  };

  const struct {
    const char* name;
    core::CqVariant variant;
  } methods[] = {{"SimCLR", core::CqVariant::kVanilla},
                 {"CQ-A", core::CqVariant::kCqA},
                 {"CQ-B", core::CqVariant::kCqB},
                 {"CQ-C", core::CqVariant::kCqC}};

  TableWriter table({"Network", "Method", "FP 10%", "FP 1%", "4-bit 10%",
                     "4-bit 1%", "max |grad|"});
  for (int a = 0; a < 3; ++a) {
    for (int m = 0; m < 4; ++m) {
      auto cfg = bench::standard_pretrain(
          methods[m].variant,
          methods[m].variant == core::CqVariant::kVanilla
              ? quant::PrecisionSet()
              : quant::PrecisionSet::range(6, 16));
      core::PretrainStats stats;
      auto encoder = bench::pretrained_encoder(archs[a], bundle, cfg,
                                               "simclr", &stats);
      const auto cells = bench::finetune_four(encoder, bundle);
      std::string grad_note =
          stats.iterations > 0 ? TableWriter::num(stats.max_grad_norm, 1)
                               : "(cached)";
      if (stats.diverged) grad_note += " DIVERGED";
      table.add_row({archs[a], methods[m].name,
                     bench::cell(cells.fp10, paper[a][m][0]),
                     bench::cell(cells.fp1, paper[a][m][1]),
                     bench::cell(cells.q10, paper[a][m][2]),
                     bench::cell(cells.q1, paper[a][m][3]), grad_note});
    }
  }
  table.print();
  return 0;
}
