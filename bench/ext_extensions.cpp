// Extension experiments beyond the paper's tables (DESIGN.md Sec. 5 and the
// paper's own "Insights"/future-work pointers):
//   E1 — MoCo (ref [1]) with and without CQ-A: does quantization-as-
//        augmentation transfer to queue-based contrastive learning?
//   E2 — CQ-Noise: Gaussian weight/activation perturbation matched to the
//        quantizer's step size, the "other kinds of perturbations" the
//        paper suggests exploring.
//   E3 — CPT-style cyclic precision schedule (ref [3]) vs the paper's
//        random pair sampling.
#include "bench_common.hpp"
#include "core/moco.hpp"
#include "core/simclr.hpp"

using namespace cq;

namespace {

float linear_acc(models::Encoder& encoder, const core::DatasetBundle& b) {
  return eval::linear_eval(encoder, b.labeled, b.test,
                           bench::linear_config())
      .test_accuracy;
}

}  // namespace

int main() {
  bench::print_preamble(
      "Extensions — MoCo, CQ-Noise, cyclic precision",
      "Linear-eval accuracy on the CIFAR stand-in. Not paper tables; these "
      "probe the paper's generality claims and future-work directions.");

  const auto bundle = core::make_bundle("synth-cifar");
  TableWriter table({"Experiment", "Method", "Linear eval"});

  // E1: MoCo vanilla vs MoCo + CQ-A.
  for (const bool use_cq : {false, true}) {
    auto cfg = bench::standard_pretrain(
        use_cq ? core::CqVariant::kCqA : core::CqVariant::kVanilla,
        quant::PrecisionSet::range(6, 16));
    cfg.byol_ema = 0.95f;  // key-encoder momentum
    cfg.moco_queue = 256;
    auto encoder = bench::pretrained_encoder("resnet18", bundle, cfg, "moco");
    table.add_row({"E1 MoCo", use_cq ? "MoCo + CQ-A" : "MoCo",
                   bench::cell(linear_acc(encoder, bundle))});
  }

  // E2: CQ-C with quantization vs magnitude-matched Gaussian noise.
  for (const bool noise : {false, true}) {
    quant::QuantizerConfig qcfg;
    if (noise) qcfg.perturb = quant::PerturbMode::kGaussian;
    Rng rng(42);
    auto encoder = models::make_encoder("resnet18", rng, qcfg);
    auto cfg = bench::standard_pretrain(core::CqVariant::kCqC,
                                        quant::PrecisionSet::range(6, 16));
    core::SimClrCqTrainer trainer(encoder, cfg);  // uncached (custom qconfig)
    trainer.train(bundle.ssl_train);
    table.add_row({"E2 perturbation type",
                   noise ? "CQ-Noise (Gaussian)" : "CQ-C (quantization)",
                   bench::cell(linear_acc(encoder, bundle))});
  }

  // E3: random pair sampling vs cyclic precision schedule.
  for (const bool cyclic : {false, true}) {
    auto cfg = bench::standard_pretrain(core::CqVariant::kCqC,
                                        quant::PrecisionSet::range(6, 16));
    if (cyclic) {
      cfg.precision_sampling =
          core::PretrainConfig::PrecisionSampling::kCyclic;
      cfg.precision_cycles = 4;
    }
    auto encoder = bench::pretrained_encoder("resnet18", bundle, cfg);
    table.add_row({"E3 precision schedule",
                   cyclic ? "cyclic (CPT-style)" : "random pair (paper)",
                   bench::cell(linear_acc(encoder, bundle))});
  }

  table.print();
  return 0;
}
