#include "core/cq.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"

namespace cq::core {

std::string variant_name(CqVariant variant) {
  switch (variant) {
    case CqVariant::kVanilla:
      return "vanilla";
    case CqVariant::kCqA:
      return "cq-a";
    case CqVariant::kCqB:
      return "cq-b";
    case CqVariant::kCqC:
      return "cq-c";
    case CqVariant::kCqQuant:
      return "cq-quant";
  }
  return "?";
}

CqVariant parse_variant(const std::string& name) {
  if (name == "vanilla" || name == "simclr" || name == "byol")
    return CqVariant::kVanilla;
  if (name == "cq-a") return CqVariant::kCqA;
  if (name == "cq-b") return CqVariant::kCqB;
  if (name == "cq-c") return CqVariant::kCqC;
  if (name == "cq-quant") return CqVariant::kCqQuant;
  CQ_CHECK_MSG(false, "unknown CQ variant '" << name << "'");
}

int branches_per_iteration(CqVariant variant) {
  switch (variant) {
    case CqVariant::kVanilla:
    case CqVariant::kCqA:
    case CqVariant::kCqQuant:
      return 2;
    case CqVariant::kCqB:
    case CqVariant::kCqC:
      return 4;
  }
  return 0;
}

std::pair<int, int> cyclic_precision_pair(const quant::PrecisionSet& set,
                                          std::int64_t step,
                                          std::int64_t total_steps,
                                          std::int64_t cycles) {
  CQ_CHECK(!set.empty() && total_steps > 0 && cycles > 0);
  CQ_CHECK(step >= 0 && step < total_steps);
  const auto n = static_cast<std::int64_t>(set.size());
  // Triangular wave position in [0, 1].
  const double phase =
      std::fmod(static_cast<double>(step * cycles) /
                    static_cast<double>(total_steps),
                1.0);
  const double pos = phase < 0.5 ? 2.0 * phase : 2.0 - 2.0 * phase;
  const auto idx = static_cast<std::int64_t>(
      pos * static_cast<double>(n - 1) + 0.5);
  const auto mirror = (n - 1) - idx;
  return {set.bits()[static_cast<std::size_t>(idx)],
          set.bits()[static_cast<std::size_t>(mirror)]};
}

std::string PretrainConfig::cache_key() const {
  std::ostringstream os;
  os << variant_name(variant) << "|p=" << precisions.str()
     << "|dp=" << distinct_pair
     << "|ps=" << static_cast<int>(precision_sampling)
     << "|pc=" << precision_cycles << "|tau=" << tau
     << "|e=" << epochs << "|b=" << batch_size << "|lr=" << lr
     << "|m=" << momentum << "|wd=" << weight_decay << "|w=" << warmup_epochs
     << "|ph=" << proj_hidden << "|pd=" << proj_dim
     << "|aug=" << augment.min_crop_scale << "," << augment.flip_prob << ","
     << augment.jitter_strength << "," << augment.jitter_prob << ","
     << augment.grayscale_prob << "," << augment.noise_sigma << ","
     << augment.cutout_prob << "," << augment.cutout_frac << ","
     << augment.identity << "|ema=" << byol_ema << "|predh=" << pred_hidden
     << "|mq=" << moco_queue
     << "|seed=" << seed;
  return os.str();
}

}  // namespace cq::core
