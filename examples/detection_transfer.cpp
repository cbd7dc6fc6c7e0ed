// Transfer to detection (paper Table 3): pretrain an encoder with CQ, move
// its weights into a spatial trunk, train a small grid detection head on
// top of the frozen features, and report VOC-style AP.
//
// Usage: ./examples/detection_transfer [variant] [epochs]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/simclr.hpp"
#include "data/synth.hpp"
#include "detect/ap.hpp"
#include "detect/dataset.hpp"
#include "detect/head.hpp"
#include "models/encoder.hpp"
#include "models/resnet.hpp"

int main(int argc, char** argv) {
  using namespace cq;
  const std::string variant_name = argc > 1 ? argv[1] : "cq-a";
  const int epochs = argc > 2 ? std::atoi(argv[2]) : 10;

  // 1. Pretrain on the classification stand-in.
  const auto synth_cfg = data::synth_imagenet_config();
  Rng data_rng(31);
  const auto ssl_set = data::make_synth_dataset(synth_cfg, 256, data_rng);

  Rng model_rng(42);
  auto encoder = models::make_encoder("resnet18", model_rng);
  core::PretrainConfig pretrain;
  pretrain.variant = core::parse_variant(variant_name);
  pretrain.precisions = quant::PrecisionSet::range(6, 16);
  pretrain.epochs = epochs;
  pretrain.batch_size = 32;
  if (pretrain.variant == core::CqVariant::kCqQuant)
    pretrain.augment.identity = true;
  std::printf("pretraining %s for %d epochs...\n", variant_name.c_str(),
              epochs);
  core::SimClrCqTrainer trainer(encoder, pretrain);
  trainer.train(ssl_set);

  // 2. Move the pooled backbone's weights into a spatial trunk.
  //    (GlobalAvgPool has no parameters, so they map one to one.)
  Rng trunk_rng(1);
  auto policy = std::make_shared<quant::QuantPolicy>();
  std::int64_t trunk_dim = 0;
  auto trunk = models::build_resnet(models::resnet18_config(), policy,
                                    trunk_rng, &trunk_dim,
                                    /*include_gap=*/false);
  nn::copy_parameters(*encoder.backbone, *trunk);

  // 3. Detection data: cluttered canvases with one object + tight box.
  detect::DetectionConfig det_cfg;
  det_cfg.synth = synth_cfg;
  Rng det_rng(55);
  const auto det_train = detect::make_detection_dataset(det_cfg, 128, det_rng);
  const auto det_test = detect::make_detection_dataset(det_cfg, 64, det_rng);

  // 4. Train the head on frozen features, evaluate AP.
  detect::DetectorConfig head_cfg;
  head_cfg.epochs = 30;
  detect::Detector detector(*trunk, trunk_dim, head_cfg);
  std::printf("training detection head on frozen %s features...\n",
              variant_name.c_str());
  detector.train(det_train);
  const auto ap = detect::evaluate_ap(detector.detect(det_test),
                                      det_test.boxes);
  std::printf("AP = %.1f  AP50 = %.1f  AP75 = %.1f\n", 100.0f * ap.ap,
              100.0f * ap.ap50, 100.0f * ap.ap75);
  return 0;
}
