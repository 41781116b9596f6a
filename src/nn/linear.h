// Fully connected layer: y = x·W + b.
#pragma once

#include "nn/layer.h"

namespace chiron::nn {

class Linear final : public Layer {
 public:
  /// Xavier-initialized dense layer mapping (B, in) -> (B, out).
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Param*> params() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Linear"; }

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Param weight_;  // (in, out)
  Param bias_;    // (out)
  Tensor input_;  // input of the last training forward
  Tensor wgrad_scratch_;  // matmul_at result before += into weight grad
};

}  // namespace chiron::nn
