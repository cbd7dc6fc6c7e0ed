#include "models/encoder.hpp"

#include <algorithm>

#include "models/mobilenetv2.hpp"
#include "models/resnet.hpp"
#include "models/vit.hpp"
#include "util/serialize.hpp"

namespace cq::models {

const std::vector<std::string>& known_archs() {
  static const std::vector<std::string> archs = {
      "resnet18", "resnet34",  "resnet74",
      "resnet110", "resnet152", "mobilenetv2", "vit"};
  return archs;
}

bool is_known_arch(const std::string& arch) {
  const auto& archs = known_archs();
  return std::find(archs.begin(), archs.end(), arch) != archs.end();
}

Encoder make_encoder(const std::string& arch, Rng& rng,
                     quant::QuantizerConfig qconfig) {
  Encoder enc;
  enc.arch = arch;
  enc.qconfig = qconfig;
  enc.policy = std::make_shared<quant::QuantPolicy>(qconfig);
  if (arch == "resnet18") {
    enc.backbone = build_resnet(resnet18_config(), enc.policy, rng,
                                &enc.feature_dim);
  } else if (arch == "resnet34") {
    enc.backbone = build_resnet(resnet34_config(), enc.policy, rng,
                                &enc.feature_dim);
  } else if (arch == "resnet74") {
    enc.backbone = build_resnet(resnet74_config(), enc.policy, rng,
                                &enc.feature_dim);
  } else if (arch == "resnet110") {
    enc.backbone = build_resnet(resnet110_config(), enc.policy, rng,
                                &enc.feature_dim);
  } else if (arch == "resnet152") {
    enc.backbone = build_resnet(resnet152_config(), enc.policy, rng,
                                &enc.feature_dim);
  } else if (arch == "mobilenetv2") {
    enc.backbone = build_mobilenetv2(mobilenetv2_config(), enc.policy, rng,
                                     &enc.feature_dim);
  } else if (arch == "vit") {
    enc.backbone =
        build_vit(vit_tiny_config(), enc.policy, rng, &enc.feature_dim);
  } else {
    CQ_CHECK_MSG(false, "unknown architecture '" << arch << "'");
  }
  return enc;
}

void save_module(const std::string& path, nn::Module& module) {
  BinaryWriter w(path);
  write_checkpoint_header(w);
  auto params = module.parameters();
  std::vector<Tensor*> buffers;
  module.collect_buffers(buffers);
  w.write_u64(params.size());
  for (nn::Parameter* p : params) {
    w.write_string(p->name);
    const auto& data = p->value;
    w.write_f32_array(
        std::vector<float>(data.data(), data.data() + data.numel()));
  }
  w.write_u64(buffers.size());
  for (Tensor* b : buffers)
    w.write_f32_array(std::vector<float>(b->data(), b->data() + b->numel()));
  w.close();
}

void load_module(const std::string& path, nn::Module& module) {
  BinaryReader r(path);
  read_checkpoint_header(r);
  auto params = module.parameters();
  const auto n_params = r.read_u64();
  CQ_CHECK_MSG(n_params == params.size(),
               "checkpoint has " << n_params << " params, module expects "
                                 << params.size());
  for (nn::Parameter* p : params) {
    const auto name = r.read_string();
    CQ_CHECK_MSG(name == p->name, "checkpoint param '"
                                      << name << "' does not match module '"
                                      << p->name << "'");
    const auto values = r.read_f32_array();
    CQ_CHECK_MSG(static_cast<std::int64_t>(values.size()) == p->value.numel(),
                 "size mismatch for " << name);
    std::copy(values.begin(), values.end(), p->value.data());
    p->bump_version();
  }
  std::vector<Tensor*> buffers;
  module.collect_buffers(buffers);
  const auto n_buffers = r.read_u64();
  CQ_CHECK_MSG(n_buffers == buffers.size(), "checkpoint buffer count mismatch");
  for (Tensor* b : buffers) {
    const auto values = r.read_f32_array();
    CQ_CHECK_MSG(static_cast<std::int64_t>(values.size()) == b->numel(),
                 "buffer size mismatch");
    std::copy(values.begin(), values.end(), b->data());
  }
  r.expect_eof();
}

}  // namespace cq::models
