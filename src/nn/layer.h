// Layer abstraction for the manual-backprop neural network library.
//
// Each layer owns its parameters (value + gradient tensors). A training
// forward() caches whatever the matching backward() needs; a layer therefore
// processes one batch at a time (sufficient for both federated local
// training and PPO updates, which are strictly sequential here).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace chiron::nn {

using tensor::Tensor;

/// A trainable parameter: value and accumulated gradient of equal shape.
struct Param {
  Tensor value;
  Tensor grad;

  explicit Param(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  void zero_grad() { grad.fill(0.f); }
  std::int64_t size() const { return value.size(); }
};

/// Base class of all network layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for input x. A training forward
  /// (train = true) caches the activations backward() needs. Linear, Tanh
  /// and ReLU skip that cache on an inference forward (train = false), so
  /// it costs no copy and leaves a pending backward's state untouched.
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Given dL/d(output), accumulates parameter gradients and returns
  /// dL/d(input). Must be called after a matching training forward().
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// The layer's trainable parameters (empty for stateless layers).
  virtual std::vector<Param*> params() { return {}; }

  virtual std::string name() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

/// Sum of parameter element counts across a parameter list.
std::int64_t parameter_count(const std::vector<Param*>& params);

}  // namespace chiron::nn
