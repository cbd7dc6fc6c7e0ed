// Ablation bench for the quantizer design choices DESIGN.md calls out
// (beyond the paper's own Table 8 precision-set ablation):
//   * rounding mode in Eq. 10 — paper prints floor, standard quantizers
//     round to nearest;
//   * dynamic range: min/max vs percentile clipping;
//   * (q1, q2) sampling: distinct vs with-replacement.
// Each row pretrains CQ-C on the CIFAR stand-in with one knob flipped and
// reports linear-eval accuracy.
#include "bench_common.hpp"
#include "core/simclr.hpp"

using namespace cq;

namespace {

struct Knob {
  const char* name;
  quant::RoundingMode rounding;
  quant::RangeMode range;
  bool distinct_pair;
};

}  // namespace

int main() {
  bench::print_preamble(
      "Ablation — quantizer design choices",
      "CQ-C (6-16) on the CIFAR stand-in with one quantizer knob flipped "
      "per row; linear-eval accuracy. (Not a paper table; DESIGN.md Sec. 5.)");

  const auto bundle = core::make_bundle("synth-cifar");
  const Knob knobs[] = {
      {"baseline (nearest, minmax, distinct q1!=q2)",
       quant::RoundingMode::kNearest, quant::RangeMode::kMinMax, true},
      {"floor rounding (paper Eq. 10 as printed)",
       quant::RoundingMode::kFloor, quant::RangeMode::kMinMax, true},
      {"percentile-clipped range (p=0.999)",
       quant::RoundingMode::kNearest, quant::RangeMode::kPercentile, true},
      {"q1, q2 sampled with replacement",
       quant::RoundingMode::kNearest, quant::RangeMode::kMinMax, false},
  };

  TableWriter table({"Quantizer knob", "Linear eval", "final SSL loss"});
  for (const auto& knob : knobs) {
    quant::QuantizerConfig qcfg;
    qcfg.rounding = knob.rounding;
    qcfg.range = knob.range;

    Rng rng(42);
    auto encoder = models::make_encoder("resnet18", rng, qcfg);
    auto cfg = bench::standard_pretrain(core::CqVariant::kCqC,
                                        quant::PrecisionSet::range(6, 16));
    cfg.distinct_pair = knob.distinct_pair;
    // No cache: the quantizer config is part of the encoder, not the key.
    core::SimClrCqTrainer trainer(encoder, cfg);
    const auto stats = trainer.train(bundle.ssl_train);
    const float acc = eval::linear_eval(encoder, bundle.labeled, bundle.test,
                                        bench::linear_config())
                          .test_accuracy;
    table.add_row({knob.name, bench::cell(acc),
                   TableWriter::num(stats.final_loss, 3)});
  }
  table.print();
  return 0;
}
