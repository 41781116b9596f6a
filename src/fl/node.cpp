#include "fl/node.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "data/loader.h"
#include "nn/loss.h"
#include "nn/optim.h"
#include "nn/serialize.h"

namespace chiron::fl {

EdgeNode::EdgeNode(int id, data::Dataset shard, const ModelFactory& factory,
                   LocalTrainConfig config, Rng rng, bool lightweight)
    : id_(id),
      shard_(std::move(shard)),
      config_(config),
      rng_(rng),
      model_(lightweight ? nullptr : factory(rng_)) {
  CHIRON_CHECK(shard_.size() > 0);
  CHIRON_CHECK(config_.epochs >= 1 && config_.batch_size >= 1);
  CHIRON_CHECK(config_.lr > 0.0);
}

std::vector<float> EdgeNode::local_train(const std::vector<float>& global,
                                         double* out_loss) {
  CHIRON_CHECK_MSG(model_ != nullptr,
                   "local_train on lightweight node " << id_);
  nn::set_flat_params(*model_, global);
  nn::Sgd opt(model_->params(), config_.lr, config_.momentum);
  nn::SoftmaxCrossEntropy loss;
  data::BatchLoader loader(shard_, config_.batch_size, rng_);
  double loss_sum = 0.0;
  std::int64_t steps = 0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    loader.reset();
    while (loader.has_next()) {
      auto [x, y] = loader.next();
      opt.zero_grad();
      nn::Tensor logits = model_->forward(x, /*train=*/true);
      loss_sum += loss.forward(logits, y);
      model_->backward(loss.backward());
      opt.step();
      ++steps;
    }
  }
  if (out_loss != nullptr && steps > 0)
    *out_loss = loss_sum / static_cast<double>(steps);
  return nn::get_flat_params(*model_);
}

EdgeNode::GradientStats EdgeNode::probe_gradient(
    const std::vector<float>& global, nn::Sequential& scratch) const {
  nn::set_flat_params(scratch, global);
  const std::int64_t b =
      std::min<std::int64_t>(config_.batch_size, shard_.size());
  std::vector<int> idx(static_cast<std::size_t>(b));
  std::iota(idx.begin(), idx.end(), 0);
  auto [x, y] = shard_.gather(idx);
  nn::SoftmaxCrossEntropy loss;
  scratch.zero_grad();
  // A training forward: backward() below needs the layer caches.
  nn::Tensor logits = scratch.forward(x, /*train=*/true);
  GradientStats stats;
  stats.loss = loss.forward(logits, y);
  scratch.backward(loss.backward());
  double sq = 0.0;
  for (const nn::Param* p : scratch.params()) {
    const nn::Tensor& g = p->grad;
    for (std::int64_t j = 0; j < g.size(); ++j) {
      const double v = static_cast<double>(g.data()[j]);
      sq += v * v;
    }
  }
  stats.grad_norm = std::sqrt(sq);
  return stats;
}

}  // namespace chiron::fl
