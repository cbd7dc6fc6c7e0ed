// Table 5: linear evaluation across six networks on the CIFAR-100 stand-in.
// Reuses the Table 4 encoder checkpoints via the pretraining cache.
#include "bench_common.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 5 — CIFAR linear evaluation, six networks",
      "Frozen-encoder linear probes: SimCLR vs CQ-C (6-16).");

  const auto bundle = core::make_bundle("synth-cifar");
  const char* archs[] = {"resnet18", "resnet34",  "resnet74",
                         "resnet110", "resnet152", "mobilenetv2"};
  const float paper[2][6] = {
      {64.91f, 65.92f, 52.96f, 53.53f, 53.97f, 52.53f},  // SimCLR
      {64.78f, 66.54f, 54.06f, 54.76f, 55.12f, 53.97f},  // CQ-C
  };

  TableWriter table({"Method", "r18", "r34", "r74", "r110", "r152", "mnv2"});
  for (int m = 0; m < 2; ++m) {
    const bool is_cq = m == 1;
    std::vector<std::string> row = {is_cq ? "CQ-C" : "SimCLR"};
    for (int a = 0; a < 6; ++a) {
      auto cfg = bench::standard_pretrain(
          is_cq ? core::CqVariant::kCqC : core::CqVariant::kVanilla,
          is_cq ? quant::PrecisionSet::range(6, 16) : quant::PrecisionSet());
      auto encoder = bench::pretrained_encoder(archs[a], bundle, cfg);
      const float acc = eval::linear_eval(encoder, bundle.labeled,
                                          bundle.test,
                                          bench::linear_config())
                            .test_accuracy;
      row.push_back(bench::cell(acc, paper[m][a]));
    }
    table.add_row(row);
  }
  table.print();
  return 0;
}
