// Table 1: SimCLR vs CQ-A (6-16) vs CQ-C (8-16) on the ImageNet stand-in,
// fine-tuned with 10%/1% labels at FP and 4-bit.
#include "bench_common.hpp"

using namespace cq;

namespace {

struct PaperRow {
  const char* method;
  float fp10, fp1, q10, q1;
};

struct Method {
  const char* name;
  core::CqVariant variant;
  int lo, hi;  // precision set
};

}  // namespace

int main() {
  bench::print_preamble(
      "Table 1 — ImageNet fine-tuning",
      "SimCLR vs Contrastive Quant (CQ-A 6-16, CQ-C 8-16) on ResNet-18/34; "
      "semi-supervised fine-tuning.");

  const auto bundle = core::make_bundle("synth-imagenet");
  const Method methods[] = {
      {"SimCLR", core::CqVariant::kVanilla, 0, 0},
      {"CQ-A", core::CqVariant::kCqA, 6, 16},
      {"CQ-C", core::CqVariant::kCqC, 8, 16},
  };
  // Paper Table 1 reference values.
  const PaperRow paper_r18[] = {{"SimCLR", 42.44f, 19.18f, 39.12f, 17.24f},
                                {"CQ-A", 51.39f, 28.87f, 48.80f, 27.13f},
                                {"CQ-C", 51.13f, 28.97f, 48.63f, 26.66f}};
  const PaperRow paper_r34[] = {{"SimCLR", 47.53f, 23.43f, 44.65f, 21.69f},
                                {"CQ-A", 55.76f, 33.37f, 53.32f, 31.30f},
                                {"CQ-C", 55.72f, 33.70f, 53.33f, 31.64f}};

  TableWriter table({"Network", "Method", "Precision Set", "FP 10%", "FP 1%",
                     "4-bit 10%", "4-bit 1%"});
  const char* archs[] = {"resnet18", "resnet34"};
  for (int a = 0; a < 2; ++a) {
    const PaperRow* paper = (a == 0) ? paper_r18 : paper_r34;
    for (int m = 0; m < 3; ++m) {
      const auto& method = methods[m];
      auto cfg = bench::standard_pretrain(
          method.variant,
          method.lo > 0 ? quant::PrecisionSet::range(method.lo, method.hi)
                        : quant::PrecisionSet());
      auto encoder = bench::pretrained_encoder(archs[a], bundle, cfg);
      const auto cells = bench::finetune_four(encoder, bundle);
      table.add_row({archs[a], method.name,
                     method.lo > 0 ? (std::to_string(method.lo) + "-" +
                                      std::to_string(method.hi))
                                   : "-",
                     bench::cell(cells.fp10, paper[m].fp10),
                     bench::cell(cells.fp1, paper[m].fp1),
                     bench::cell(cells.q10, paper[m].q10),
                     bench::cell(cells.q1, paper[m].q1)});
    }
  }
  table.print();
  return 0;
}
