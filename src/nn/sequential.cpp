#include "nn/sequential.h"

#include "common/error.h"

namespace chiron::nn {

Sequential& Sequential::add(LayerPtr layer) {
  CHIRON_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x, bool train) {
  if (layers_.empty()) return x;
  // The first layer reads x directly: no copy of the input batch.
  Tensor h = layers_.front()->forward(x, train);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    h = layers_[i]->forward(h, train);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  CHIRON_CHECK_MSG(!layers_.empty(), "empty Sequential");
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

std::vector<Param*> Sequential::params() {
  std::vector<Param*> out;
  for (auto& l : layers_)
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

void Sequential::zero_grad() {
  for (Param* p : params()) p->zero_grad();
}

std::int64_t Sequential::parameter_count() {
  return chiron::nn::parameter_count(params());
}

}  // namespace chiron::nn
