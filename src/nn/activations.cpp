#include "nn/activations.h"

#include <cmath>

#include "common/error.h"

namespace chiron::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train) input_ = x;
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i)
    if (y[i] < 0.f) y[i] = 0.f;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  CHIRON_CHECK_MSG(input_.size() > 0, "backward before forward");
  CHIRON_CHECK(grad_out.shape() == input_.shape());
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i)
    if (input_[i] <= 0.f) g[i] = 0.f;
  return g;
}

Tensor Tanh::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (std::int64_t i = 0; i < y.size(); ++i) y[i] = std::tanh(y[i]);
  if (train) output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  CHIRON_CHECK_MSG(output_.size() > 0, "backward before forward");
  CHIRON_CHECK(grad_out.shape() == output_.shape());
  Tensor g = grad_out;
  for (std::int64_t i = 0; i < g.size(); ++i)
    g[i] *= 1.f - output_[i] * output_[i];
  return g;
}

}  // namespace chiron::nn
