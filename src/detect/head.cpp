#include "detect/head.hpp"

#include <algorithm>
#include <cmath>

#include "data/image.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "optim/adam.hpp"
#include "util/check.hpp"

namespace cq::detect {

namespace {
inline float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}

Detector::Detector(nn::Sequential& trunk, std::int64_t trunk_channels,
                   DetectorConfig config)
    : trunk_(trunk), config_(config), rng_(config.seed) {
  CQ_CHECK(trunk_channels > 0);
  trunk_.set_mode(nn::Mode::kEval);  // frozen features
  head_ = std::make_unique<nn::Sequential>();
  nn::Conv2dSpec c1{.in_channels = trunk_channels,
                    .out_channels = config_.head_hidden,
                    .kernel = 3,
                    .stride = 1,
                    .pad = 1};
  head_->emplace<nn::Conv2d>(c1, rng_, "det.conv1");
  head_->emplace<nn::BatchNorm2d>(config_.head_hidden, 0.1f, 1e-5f, "det.bn");
  head_->emplace<nn::ReLU>();
  nn::Conv2dSpec c2{.in_channels = config_.head_hidden,
                    .out_channels = 5,
                    .kernel = 1,
                    .stride = 1,
                    .pad = 0,
                    .bias = true};
  head_->emplace<nn::Conv2d>(c2, rng_, "det.conv2");
}

Tensor Detector::head_forward(const Tensor& images) {
  return head_->forward(trunk_.forward(images));
}

float Detector::train(const DetectionDataset& dataset) {
  CQ_CHECK(dataset.size() > 0);
  head_->set_mode(nn::Mode::kTrain);
  optim::Adam adam(head_->parameters(), {.lr = config_.lr});
  const auto batch =
      std::min<std::int64_t>(config_.batch_size, dataset.size());
  data::Batcher batcher(dataset.size(), batch, rng_);
  const auto iters = batcher.batches_per_epoch();

  float last_loss = 0.0f;
  for (std::int64_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::int64_t it = 0; it < iters; ++it) {
      const auto idx = batcher.next();
      std::vector<Tensor> images;
      images.reserve(idx.size());
      for (auto i : idx)
        images.push_back(dataset.images[static_cast<std::size_t>(i)]);
      const Tensor out = head_forward(data::stack_images(images));
      const auto n = out.dim(0), gh = out.dim(2), gw = out.dim(3);
      CQ_CHECK(out.dim(1) == 5);

      Tensor grad(out.shape());
      double loss = 0.0;
      const float obj_w =
          1.0f / static_cast<float>(n * gh * gw);
      const float box_w = config_.box_loss_weight / static_cast<float>(n);
      for (std::int64_t img = 0; img < n; ++img) {
        const BBox& gt = dataset.boxes[static_cast<std::size_t>(
            idx[static_cast<std::size_t>(img)])];
        const auto gx = std::min<std::int64_t>(
            gw - 1, static_cast<std::int64_t>(gt.cx() * gw));
        const auto gy = std::min<std::int64_t>(
            gh - 1, static_cast<std::int64_t>(gt.cy() * gh));
        for (std::int64_t y = 0; y < gh; ++y)
          for (std::int64_t x = 0; x < gw; ++x) {
            const bool positive = (y == gy && x == gx);
            const float logit = out.at(img, 0, y, x);
            const float p = sigmoid(logit);
            const float target = positive ? 1.0f : 0.0f;
            loss -= obj_w * (target * std::log(std::max(p, 1e-7f)) +
                             (1.0f - target) *
                                 std::log(std::max(1.0f - p, 1e-7f)));
            grad.at(img, 0, y, x) = obj_w * (p - target);
          }
        // Box regression at the positive cell (cell-relative center).
        const float targets[4] = {
            gt.cx() * static_cast<float>(gw) - static_cast<float>(gx),
            gt.cy() * static_cast<float>(gh) - static_cast<float>(gy),
            gt.width(), gt.height()};
        for (int k = 0; k < 4; ++k) {
          const float raw = out.at(img, k + 1, gy, gx);
          const float s = sigmoid(raw);
          const float diff = s - targets[k];
          loss += box_w * diff * diff;
          grad.at(img, k + 1, gy, gx) =
              box_w * 2.0f * diff * s * (1.0f - s);
        }
      }
      head_->backward(grad);  // trunk is frozen (eval mode, no caches)
      adam.step();
      last_loss = static_cast<float>(loss);
    }
  }
  return last_loss;
}

std::vector<Detection> Detector::detect(const DetectionDataset& dataset) {
  head_->set_mode(nn::Mode::kEval);
  std::vector<Detection> detections;
  detections.reserve(static_cast<std::size_t>(dataset.size()));
  const std::int64_t batch = 32;
  for (std::int64_t start = 0; start < dataset.size(); start += batch) {
    const auto stop = std::min(dataset.size(), start + batch);
    std::vector<Tensor> images;
    for (std::int64_t i = start; i < stop; ++i)
      images.push_back(dataset.images[static_cast<std::size_t>(i)]);
    const Tensor out = head_forward(data::stack_images(images));
    const auto n = out.dim(0), gh = out.dim(2), gw = out.dim(3);
    for (std::int64_t img = 0; img < n; ++img) {
      std::int64_t best_y = 0, best_x = 0;
      float best_logit = out.at(img, 0, 0, 0);
      for (std::int64_t y = 0; y < gh; ++y)
        for (std::int64_t x = 0; x < gw; ++x)
          if (out.at(img, 0, y, x) > best_logit) {
            best_logit = out.at(img, 0, y, x);
            best_y = y;
            best_x = x;
          }
      Detection det;
      det.image_id = start + img;
      det.confidence = sigmoid(best_logit);
      const float cx = (static_cast<float>(best_x) +
                        sigmoid(out.at(img, 1, best_y, best_x))) /
                       static_cast<float>(gw);
      const float cy = (static_cast<float>(best_y) +
                        sigmoid(out.at(img, 2, best_y, best_x))) /
                       static_cast<float>(gh);
      const float w = sigmoid(out.at(img, 3, best_y, best_x));
      const float h = sigmoid(out.at(img, 4, best_y, best_x));
      det.box = box_from_center(cx, cy, w, h);
      detections.push_back(det);
    }
  }
  return detections;
}

}  // namespace cq::detect
