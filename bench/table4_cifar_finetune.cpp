// Table 4: SimCLR vs CQ-C (6-16) across six networks on the CIFAR-100
// stand-in, fine-tuned with 10%/1% labels at FP and 4-bit.
#include "bench_common.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 4 — CIFAR fine-tuning, six networks",
      "SimCLR vs CQ-C (precision set 6-16) on "
      "ResNet-18/34/74/110/152 + MobileNetV2.");

  const auto bundle = core::make_bundle("synth-cifar");
  const char* archs[] = {"resnet18", "resnet34",  "resnet74",
                         "resnet110", "resnet152", "mobilenetv2"};
  // Paper Table 4 (fp10, fp1, q10, q1) per (arch, method=SimCLR|CQ-C).
  const float paper[6][2][4] = {
      {{61.51f, 42.51f, 59.78f, 40.73f}, {61.75f, 43.80f, 60.12f, 42.59f}},
      {{63.05f, 45.11f, 61.44f, 43.63f}, {63.58f, 48.05f, 61.47f, 45.75f}},
      {{51.93f, 30.40f, 50.37f, 28.56f}, {52.52f, 31.39f, 51.12f, 29.70f}},
      {{52.78f, 31.16f, 51.69f, 30.11f}, {54.47f, 33.17f, 52.28f, 32.66f}},
      {{53.57f, 32.93f, 52.14f, 31.06f}, {55.44f, 34.98f, 53.04f, 33.54f}},
      {{49.73f, 24.18f, 46.47f, 18.98f}, {51.59f, 26.12f, 49.82f, 20.82f}},
  };

  TableWriter table({"Network", "Method", "FP 10%", "FP 1%", "4-bit 10%",
                     "4-bit 1%"});
  for (int a = 0; a < 6; ++a) {
    for (int m = 0; m < 2; ++m) {
      const bool is_cq = m == 1;
      auto cfg = bench::standard_pretrain(
          is_cq ? core::CqVariant::kCqC : core::CqVariant::kVanilla,
          is_cq ? quant::PrecisionSet::range(6, 16) : quant::PrecisionSet());
      auto encoder = bench::pretrained_encoder(archs[a], bundle, cfg);
      const auto cells = bench::finetune_four(encoder, bundle);
      table.add_row({archs[a], is_cq ? "CQ-C" : "SimCLR",
                     bench::cell(cells.fp10, paper[a][m][0]),
                     bench::cell(cells.fp1, paper[a][m][1]),
                     bench::cell(cells.q10, paper[a][m][2]),
                     bench::cell(cells.q1, paper[a][m][3])});
    }
  }
  table.print();
  return 0;
}
