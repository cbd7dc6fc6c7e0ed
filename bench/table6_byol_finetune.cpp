// Table 6: BYOL vs CQ-C-on-BYOL (precision set 6-16) on the CIFAR stand-in,
// fine-tuned with 10%/1% labels at FP and 4-bit, three networks.
#include "bench_common.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 6 — BYOL fine-tuning",
      "Vanilla BYOL vs Contrastive Quant (CQ-C, 6-16) applied on BYOL; "
      "ResNet-18/34 + MobileNetV2.");

  const auto bundle = core::make_bundle("synth-cifar");
  const char* archs[] = {"resnet18", "resnet34", "mobilenetv2"};
  // Paper Table 6 (the paper leaves BYOL's FP cells blank; we measure all
  // four cells for both methods). Reference cells: {fp10, fp1, q10, q1};
  // -1 marks cells the paper does not report.
  const float paper[3][2][4] = {
      {{-1, -1, 55.26f, 34.22f}, {58.84f, 39.21f, 56.74f, 37.54f}},
      {{-1, -1, 65.83f, 50.95f}, {66.77f, 51.91f, 65.21f, 50.55f}},
      {{-1, -1, 49.85f, 23.32f}, {54.59f, 31.96f, 50.97f, 26.60f}},
  };

  TableWriter table({"Network", "Method", "FP 10%", "FP 1%", "4-bit 10%",
                     "4-bit 1%"});
  for (int a = 0; a < 3; ++a) {
    for (int m = 0; m < 2; ++m) {
      const bool is_cq = m == 1;
      auto cfg = bench::standard_pretrain(
          is_cq ? core::CqVariant::kCqC : core::CqVariant::kVanilla,
          quant::PrecisionSet::range(6, 16));
      // BYOL needs a slightly gentler LR than NT-Xent training.
      cfg.lr = 0.05f;
      auto encoder =
          bench::pretrained_encoder(archs[a], bundle, cfg, "byol");
      const auto cells = bench::finetune_four(encoder, bundle);
      auto fmt = [&](float measured, float ref) {
        return ref < 0 ? bench::cell(measured) + " (-)"
                       : bench::cell(measured, ref);
      };
      table.add_row({archs[a], is_cq ? "CQ-C" : "BYOL",
                     fmt(cells.fp10, paper[a][m][0]),
                     fmt(cells.fp1, paper[a][m][1]),
                     fmt(cells.q10, paper[a][m][2]),
                     fmt(cells.q1, paper[a][m][3])});
    }
  }
  table.print();
  return 0;
}
