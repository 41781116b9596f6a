#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/error.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/flatten.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "nn/pool.h"
#include "nn/sequential.h"

namespace chiron::nn {
namespace {

using tensor::Tensor;

TEST(Linear, OutputShape) {
  Rng rng(1);
  Linear l(4, 3, rng);
  Tensor x({2, 4});
  Tensor y = l.forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 3);
}

TEST(Linear, ZeroInputGivesBias) {
  Rng rng(2);
  Linear l(3, 2, rng);
  l.bias().value[0] = 1.5f;
  l.bias().value[1] = -0.5f;
  Tensor x({1, 3});
  Tensor y = l.forward(x, true);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), -0.5f);
}

TEST(Linear, KnownMatrix) {
  Rng rng(3);
  Linear l(2, 2, rng);
  // W = [[1,2],[3,4]], b = [10, 20].
  l.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  l.bias().value = Tensor::of({10, 20});
  Tensor x({1, 2}, {1, 1});
  Tensor y = l.forward(x, true);
  EXPECT_FLOAT_EQ(y.at2(0, 0), 14.f);
  EXPECT_FLOAT_EQ(y.at2(0, 1), 26.f);
}

TEST(Linear, WrongInputWidthThrows) {
  Rng rng(4);
  Linear l(4, 3, rng);
  Tensor x({2, 5});
  EXPECT_THROW(l.forward(x, true), InvariantError);
}

TEST(Linear, BackwardBeforeForwardThrows) {
  Rng rng(5);
  Linear l(2, 2, rng);
  Tensor g({1, 2});
  EXPECT_THROW(l.backward(g), InvariantError);
}

TEST(Linear, ParamsExposeWeightAndBias) {
  Rng rng(6);
  Linear l(7, 3, rng);
  auto ps = l.params();
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps[0]->size(), 21);
  EXPECT_EQ(ps[1]->size(), 3);
  EXPECT_EQ(parameter_count(ps), 24);
}

TEST(Conv2d, OutputShapeNoPad) {
  Rng rng(7);
  Conv2d c(1, 10, 5, rng);
  Tensor x({2, 1, 28, 28});
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 10);
  EXPECT_EQ(y.dim(2), 24);
  EXPECT_EQ(y.dim(3), 24);
}

TEST(Conv2d, OutputShapeWithPadStride) {
  Rng rng(8);
  Conv2d c(3, 4, 3, rng, /*stride=*/2, /*pad=*/1);
  Tensor x({1, 3, 8, 8});
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.dim(2), 4);
  EXPECT_EQ(y.dim(3), 4);
}

TEST(Conv2d, IdentityKernelCopiesInput) {
  Rng rng(9);
  Conv2d c(1, 1, 1, rng);  // 1×1 kernel
  auto ps = c.params();
  ps[0]->value.fill(1.f);  // weight = 1
  ps[1]->value.fill(0.f);  // bias = 0
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor y = c.forward(x, true);
  EXPECT_TRUE(y.allclose(x));
}

TEST(Conv2d, AveragingKernel) {
  Rng rng(10);
  Conv2d c(1, 1, 2, rng);
  auto ps = c.params();
  ps[0]->value.fill(0.25f);
  ps[1]->value.fill(0.f);
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = c.forward(x, true);
  EXPECT_EQ(y.size(), 1);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(Conv2d, WrongChannelCountThrows) {
  Rng rng(11);
  Conv2d c(3, 2, 3, rng);
  Tensor x({1, 1, 8, 8});
  EXPECT_THROW(c.forward(x, true), InvariantError);
}

TEST(MaxPool2d, Halves28) {
  MaxPool2d p(2);
  Tensor x({1, 3, 28, 28});
  Tensor y = p.forward(x, true);
  EXPECT_EQ(y.dim(2), 14);
  EXPECT_EQ(y.dim(3), 14);
}

TEST(MaxPool2d, PicksMaximum) {
  MaxPool2d p(2);
  Tensor x({1, 1, 2, 2}, {1, 7, 3, 2});
  Tensor y = p.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 7.f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU r;
  Tensor x({1, 4}, {-1, 0, 2, -3});
  Tensor y = r.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.f);
  EXPECT_FLOAT_EQ(y[1], 0.f);
  EXPECT_FLOAT_EQ(y[2], 2.f);
  EXPECT_FLOAT_EQ(y[3], 0.f);
}

TEST(ReLU, BackwardMasks) {
  ReLU r;
  Tensor x({1, 3}, {-1, 0.5f, 2});
  r.forward(x, true);
  Tensor g({1, 3}, {10, 10, 10});
  Tensor gin = r.backward(g);
  EXPECT_FLOAT_EQ(gin[0], 0.f);
  EXPECT_FLOAT_EQ(gin[1], 10.f);
  EXPECT_FLOAT_EQ(gin[2], 10.f);
}

TEST(Tanh, Saturates) {
  Tanh t;
  Tensor x({1, 3}, {-100, 0, 100});
  Tensor y = t.forward(x, true);
  EXPECT_NEAR(y[0], -1.f, 1e-5f);
  EXPECT_FLOAT_EQ(y[1], 0.f);
  EXPECT_NEAR(y[2], 1.f, 1e-5f);
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten f;
  Tensor x({2, 3, 4, 5});
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), 60);
  Tensor g({2, 60});
  Tensor gin = f.backward(g);
  EXPECT_EQ(gin.shape(), x.shape());
}

TEST(Sequential, ChainsLayers) {
  Rng rng(12);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  Tensor x({3, 4});
  Tensor y = net.forward(x, true);
  EXPECT_EQ(y.dim(0), 3);
  EXPECT_EQ(y.dim(1), 2);
  EXPECT_EQ(net.layer_count(), 3u);
}

TEST(Sequential, ParamAggregation) {
  Rng rng(13);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<Linear>(8, 2, rng);
  EXPECT_EQ(net.parameter_count(), 4 * 8 + 8 + 8 * 2 + 2);
}

TEST(Sequential, ZeroGradClears) {
  Rng rng(14);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  for (auto* p : net.params()) p->grad.fill(3.f);
  net.zero_grad();
  for (auto* p : net.params()) EXPECT_EQ(p->grad.sum(), 0.f);
}

TEST(Sequential, EmptyBackwardThrows) {
  Sequential net;
  Tensor g({1, 1});
  EXPECT_THROW(net.backward(g), InvariantError);
}

// Every element of a and b has the same bits (EXPECT_EQ on floats would
// accept −0.f for +0.f).
void expect_same_bits(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0);
}

TEST(InferenceForward, BitIdenticalToTrainingForward) {
  // An inference forward skips the backward cache; the outputs must not
  // notice.
  Rng rng(40);
  Rng data_rng(41);
  const Tensor x = Tensor::uniform({9, 6}, data_rng, -2.f, 2.f);
  Linear lin(6, 4, rng);
  expect_same_bits(lin.forward(x, false), lin.forward(x, true));
  Tanh tanh_layer;
  expect_same_bits(tanh_layer.forward(x, false), tanh_layer.forward(x, true));
  auto mlp = make_tanh_mlp(6, 16, 3, rng);
  expect_same_bits(mlp->forward(x, false), mlp->forward(x, true));
}

TEST(InferenceForward, BatchAcrossDirectGemmBoundaryMatchesSingles) {
  // 40 rows run the packed GEMM, single rows the direct one: each row of
  // the batched inference forward must equal its own batch-1 forward.
  Rng rng(42);
  auto mlp = make_tanh_mlp(12, 64, 5, rng);
  Rng data_rng(43);
  const Tensor x = Tensor::uniform({40, 12}, data_rng, -1.f, 1.f);
  const Tensor batch = mlp->forward(x, false);
  for (std::int64_t r = 0; r < x.dim(0); ++r) {
    const Tensor single = mlp->forward(Tensor({1, 12}, x.row(r).vec()), false);
    for (std::int64_t j = 0; j < 5; ++j)
      EXPECT_EQ(batch.at2(r, j), single.at2(0, j)) << "row " << r;
  }
}

// Runs f and expects the InvariantError of a backward with no training
// forward before it.
template <typename F>
void expect_backward_before_forward(F f) {
  try {
    f();
    ADD_FAILURE() << "backward did not throw";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("backward before forward"),
              std::string::npos)
        << e.what();
  }
}

TEST(InferenceForward, BackwardAfterOnlyInferenceForwardsThrows) {
  Rng rng(44);
  const Tensor x({2, 3});
  Linear lin(3, 2, rng);
  lin.forward(x, false);
  expect_backward_before_forward([&] { lin.backward(Tensor({2, 2})); });
  Tanh tanh_layer;
  tanh_layer.forward(x, false);
  expect_backward_before_forward([&] { tanh_layer.backward(x); });
  auto mlp = make_tanh_mlp(3, 8, 2, rng);
  mlp->forward(x, false);
  mlp->forward(x, false);
  expect_backward_before_forward([&] { mlp->backward(Tensor({2, 2})); });
}

TEST(InferenceForward, InterleavedInferenceLeavesPendingBackwardUnchanged) {
  // forward(train) → forward(infer, other input) → backward must give the
  // gradients of forward(train) → backward.
  Rng rng(45);
  auto plain = make_tanh_mlp(5, 16, 3, rng);
  Rng rng_copy(45);
  auto interleaved = make_tanh_mlp(5, 16, 3, rng_copy);
  Rng data_rng(46);
  const Tensor x = Tensor::uniform({7, 5}, data_rng, -1.f, 1.f);
  const Tensor other = Tensor::uniform({1, 5}, data_rng, -1.f, 1.f);
  const Tensor g = Tensor::uniform({7, 3}, data_rng, -1.f, 1.f);

  plain->zero_grad();
  plain->forward(x, true);
  const Tensor dx_plain = plain->backward(g);

  interleaved->zero_grad();
  interleaved->forward(x, true);
  interleaved->forward(other, false);
  const Tensor dx_interleaved = interleaved->backward(g);

  expect_same_bits(dx_interleaved, dx_plain);
  const auto pp = plain->params();
  const auto pi = interleaved->params();
  ASSERT_EQ(pp.size(), pi.size());
  for (std::size_t i = 0; i < pp.size(); ++i)
    expect_same_bits(pi[i]->grad, pp[i]->grad);
}

TEST(Sequential, AddNullThrows) {
  Sequential net;
  EXPECT_THROW(net.add(nullptr), InvariantError);
}

}  // namespace
}  // namespace chiron::nn
