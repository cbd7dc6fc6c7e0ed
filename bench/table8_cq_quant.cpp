// Table 8: CQ-Quant — quantization as the ONLY augmentation (Sec. 4.5) —
// vs the no-SSL baseline, on ResNet-74/110 with precision sets 6-16 / 8-16.
#include "bench_common.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 8 — CQ-Quant (quantization-only augmentation)",
      "Loss = NCE(f1, f2): same un-augmented input through two sampled "
      "precisions. Compared against 'No SSL Training' (random init). "
      "Wider precision sets should help (diversity of augmentation).");

  const auto bundle = core::make_bundle("synth-cifar");
  Rng split_rng(77);
  const auto lab10 = data::subset_fraction(bundle.labeled, 0.10, split_rng);
  const auto lab1 = data::subset_fraction(bundle.labeled, 0.01, split_rng);

  const char* archs[] = {"resnet74", "resnet110"};
  // Paper Table 8: rows {6-16, 8-16, no-SSL}; cols {ft1%, ft10%, linear}.
  const float paper[2][3][3] = {
      {{7.64f, 29.14f, 15.79f},
       {4.64f, 21.37f, 10.98f},
       {2.90f, 20.76f, 3.69f}},
      {{7.43f, 27.69f, 14.10f},
       {6.41f, 21.58f, 11.83f},
       {2.21f, 20.56f, 3.15f}},
  };

  TableWriter table({"Network", "Precision Set", "FT 1%", "FT 10%",
                     "Linear eval"});
  for (int a = 0; a < 2; ++a) {
    for (int s = 0; s < 3; ++s) {
      models::Encoder encoder = [&]() {
        if (s == 2) {  // No SSL training: random init.
          Rng rng(42);
          return models::make_encoder(archs[a], rng);
        }
        auto cfg = bench::standard_pretrain(
            core::CqVariant::kCqQuant,
            s == 0 ? quant::PrecisionSet::range(6, 16)
                   : quant::PrecisionSet::range(8, 16));
        cfg.augment.identity = true;  // Sec 4.5: no input augmentation
        return bench::pretrained_encoder(archs[a], bundle, cfg);
      }();

      const float ft1 = eval::finetune_eval(encoder, lab1, bundle.test,
                                            bench::finetune_config(32))
                            .test_accuracy;
      const float ft10 = eval::finetune_eval(encoder, lab10, bundle.test,
                                             bench::finetune_config(32))
                             .test_accuracy;
      const float lin = eval::linear_eval(encoder, bundle.labeled,
                                          bundle.test,
                                          bench::linear_config())
                            .test_accuracy;
      const char* set_names[] = {"6-16", "8-16", "No SSL Training"};
      table.add_row({archs[a], set_names[s],
                     bench::cell(ft1, paper[a][s][0]),
                     bench::cell(ft10, paper[a][s][1]),
                     bench::cell(lin, paper[a][s][2])});
    }
  }
  table.print();
  return 0;
}
