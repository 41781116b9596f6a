#include "nn/linear.h"

#include "common/error.h"
#include "nn/init.h"
#include "tensor/ops.h"

namespace chiron::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(xavier_uniform({in_features, out_features}, in_features,
                             out_features, rng)),
      bias_(Tensor::zeros({out_features})) {
  CHIRON_CHECK(in_features > 0 && out_features > 0);
}

Tensor Linear::forward(const Tensor& x, bool train) {
  CHIRON_CHECK_MSG(x.rank() == 2 && x.dim(1) == in_,
                   "Linear expects (B, " << in_ << "), got " << x);
  if (train) input_ = x;
  Tensor y = tensor::matmul(x, weight_.value);
  const std::int64_t batch = y.dim(0);
  const float* bias = bias_.value.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    float* row = y.data() + b * out_;
    for (std::int64_t j = 0; j < out_; ++j) row[j] += bias[j];
  }
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  CHIRON_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_);
  CHIRON_CHECK_MSG(input_.size() > 0, "backward before forward");
  // dW += x^T · g ; db += column sums ; dx = g · W^T.
  // chiron-hot-begin(linear-backward)
  tensor::matmul_at_into(input_, grad_out, wgrad_scratch_);
  weight_.grad += wgrad_scratch_;
  const std::int64_t batch = grad_out.dim(0);
  float* bias_grad = bias_.grad.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* row = grad_out.data() + b * out_;
    for (std::int64_t j = 0; j < out_; ++j) bias_grad[j] += row[j];
  }
  return tensor::matmul_bt(grad_out, weight_.value);
  // chiron-hot-end(linear-backward)
}

}  // namespace chiron::nn
