// Table 2: linear evaluation on the ImageNet stand-in (SimCLR vs CQ-C vs
// CQ-A). Reuses the Table 1 encoder checkpoints via the pretraining cache.
#include "bench_common.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 2 — ImageNet linear evaluation",
      "Frozen-encoder linear probes for SimCLR / CQ-C (8-16) / CQ-A (6-16).");

  const auto bundle = core::make_bundle("synth-imagenet");
  // Paper Table 2: rows ResNet-18/34, columns SimCLR / CQ-C / CQ-A.
  const float paper[2][3] = {{29.31f, 31.90f, 44.91f},
                             {34.96f, 36.14f, 47.88f}};

  TableWriter table({"Network", "SimCLR", "CQ-C", "CQ-A"});
  const char* archs[] = {"resnet18", "resnet34"};
  for (int a = 0; a < 2; ++a) {
    const struct {
      core::CqVariant variant;
      int lo, hi;
    } methods[] = {{core::CqVariant::kVanilla, 0, 0},
                   {core::CqVariant::kCqC, 8, 16},
                   {core::CqVariant::kCqA, 6, 16}};
    std::vector<std::string> row = {archs[a]};
    for (int m = 0; m < 3; ++m) {
      auto cfg = bench::standard_pretrain(
          methods[m].variant,
          methods[m].lo > 0
              ? quant::PrecisionSet::range(methods[m].lo, methods[m].hi)
              : quant::PrecisionSet());
      auto encoder = bench::pretrained_encoder(archs[a], bundle, cfg);
      const float acc = eval::linear_eval(encoder, bundle.labeled,
                                          bundle.test,
                                          bench::linear_config())
                            .test_accuracy;
      row.push_back(bench::cell(acc, paper[a][m]));
    }
    table.add_row(row);
  }
  table.print();
  return 0;
}
