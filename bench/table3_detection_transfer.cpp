// Table 3: transfer of the (ImageNet stand-in) pretrained encoders to the
// synthetic single-object detection task — AP / AP50 / AP75, mirroring the
// paper's Pascal VOC + YOLO transfer.
#include "bench_common.hpp"
#include "detect/ap.hpp"
#include "detect/dataset.hpp"
#include "detect/head.hpp"
#include "models/resnet.hpp"

using namespace cq;

int main() {
  bench::print_preamble(
      "Table 3 — transfer to detection",
      "Frozen pretrained trunks + grid detection head on synthetic "
      "localization canvases (Pascal VOC stand-in). AP in percent.");

  const auto bundle = core::make_bundle("synth-imagenet");
  detect::DetectionConfig dcfg;
  dcfg.synth = bundle.config;
  Rng data_rng(555);
  const auto det_train = detect::make_detection_dataset(
      dcfg, core::env_int("CQ_DET_TRAIN", 160), data_rng);
  const auto det_test = detect::make_detection_dataset(
      dcfg, core::env_int("CQ_DET_TEST", 96), data_rng);

  // Paper Table 3 reference values (AP, AP50, AP75).
  const float paper[2][3][3] = {
      {{25.09f, 49.20f, 22.74f},
       {32.94f, 63.96f, 29.28f},
       {36.39f, 69.08f, 32.64f}},
      {{35.58f, 67.51f, 31.88f},
       {36.54f, 68.77f, 34.17f},
       {38.77f, 72.13f, 35.85f}},
  };

  TableWriter table({"Network", "Method", "AP", "AP50", "AP75"});
  const char* archs[] = {"resnet18", "resnet34"};
  const struct {
    const char* name;
    core::CqVariant variant;
    int lo, hi;
  } methods[] = {{"Vanilla SimCLR", core::CqVariant::kVanilla, 0, 0},
                 {"CQ-C", core::CqVariant::kCqC, 8, 16},
                 {"CQ-A", core::CqVariant::kCqA, 6, 16}};

  for (int a = 0; a < 2; ++a) {
    for (int m = 0; m < 3; ++m) {
      auto cfg = bench::standard_pretrain(
          methods[m].variant,
          methods[m].lo > 0
              ? quant::PrecisionSet::range(methods[m].lo, methods[m].hi)
              : quant::PrecisionSet());
      // Pretrain (or load cached) pooled encoder, then move its weights
      // into a spatial trunk (GAP has no parameters).
      auto encoder = bench::pretrained_encoder(archs[a], bundle, cfg);
      const std::string tmp_ckpt = core::cache_dir() + "/tmp_trunk.ckpt";
      models::save_module(tmp_ckpt, *encoder.backbone);

      Rng trunk_rng(1);
      auto policy = std::make_shared<quant::QuantPolicy>();
      std::int64_t trunk_dim = 0;
      auto trunk = models::build_resnet(
          std::string(archs[a]) == "resnet18" ? models::resnet18_config()
                                              : models::resnet34_config(),
          policy, trunk_rng, &trunk_dim, /*include_gap=*/false);
      models::load_module(tmp_ckpt, *trunk);

      detect::DetectorConfig det_cfg;
      det_cfg.epochs = core::env_int("CQ_DET_EPOCHS", 30);
      detect::Detector detector(*trunk, trunk_dim, det_cfg);
      detector.train(det_train);
      const auto ap = detect::evaluate_ap(detector.detect(det_test),
                                          det_test.boxes);
      table.add_row({archs[a], methods[m].name,
                     bench::cell(100.0f * ap.ap, paper[a][m][0]),
                     bench::cell(100.0f * ap.ap50, paper[a][m][1]),
                     bench::cell(100.0f * ap.ap75, paper[a][m][2])});
    }
  }
  table.print();
  return 0;
}
