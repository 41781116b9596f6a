#include "nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/error.h"
#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/models.h"
#include "test_util.h"

namespace chiron::nn {
namespace {

TEST(Serialize, RoundTripRestoresOutputs) {
  Rng rng(1);
  auto net = make_mlp_classifier(4, 8, 3, rng);
  Tensor x = Tensor::uniform({2, 4}, rng);
  Tensor y1 = net->forward(x, false);
  std::vector<float> flat = get_flat_params(*net);

  // Scramble, then restore.
  for (Param* p : net->params()) p->value.fill(0.f);
  Tensor y_scrambled = net->forward(x, false);
  EXPECT_FALSE(y_scrambled.allclose(y1));
  set_flat_params(*net, flat);
  Tensor y2 = net->forward(x, false);
  EXPECT_TRUE(y2.allclose(y1));
}

TEST(Serialize, FlatSizeEqualsParameterCount) {
  Rng rng(2);
  auto net = make_mnist_cnn(rng);
  EXPECT_EQ(static_cast<std::int64_t>(get_flat_params(*net).size()),
            net->parameter_count());
}

TEST(Serialize, SizeMismatchThrows) {
  Rng rng(3);
  auto net = make_mlp_classifier(4, 8, 3, rng);
  std::vector<float> short_vec(3, 0.f);
  EXPECT_THROW(set_flat_params(*net, short_vec), chiron::InvariantError);
  std::vector<float> long_vec(
      get_flat_params(*net).size() + 1, 0.f);
  EXPECT_THROW(set_flat_params(*net, long_vec), chiron::InvariantError);
}

TEST(Serialize, TransfersBetweenReplicas) {
  Rng rng1(4), rng2(5);
  auto a = make_mlp_classifier(4, 8, 3, rng1);
  auto b = make_mlp_classifier(4, 8, 3, rng2);
  Tensor x = Tensor::uniform({1, 4}, rng1);
  set_flat_params(*b, get_flat_params(*a));
  EXPECT_TRUE(b->forward(x, false).allclose(a->forward(x, false)));
}

TEST(WeightedAverage, EqualWeightsIsMean) {
  auto avg = weighted_average({{2.f, 4.f}, {4.f, 8.f}}, {1.0, 1.0});
  EXPECT_FLOAT_EQ(avg[0], 3.f);
  EXPECT_FLOAT_EQ(avg[1], 6.f);
}

TEST(WeightedAverage, WeightsNormalize) {
  // Weights {2, 6} ≡ {0.25, 0.75}.
  auto avg = weighted_average({{0.f}, {4.f}}, {2.0, 6.0});
  EXPECT_FLOAT_EQ(avg[0], 3.f);
}

TEST(WeightedAverage, SingleModelIdentity) {
  auto avg = weighted_average({{1.f, 2.f, 3.f}}, {5.0});
  EXPECT_FLOAT_EQ(avg[1], 2.f);
}

TEST(WeightedAverage, ZeroWeightIgnoresModel) {
  auto avg = weighted_average({{1.f}, {100.f}}, {1.0, 0.0});
  EXPECT_FLOAT_EQ(avg[0], 1.f);
}

TEST(WeightedAverage, RejectsBadInput) {
  EXPECT_THROW(weighted_average({}, {}), chiron::InvariantError);
  EXPECT_THROW(weighted_average({{1.f}}, {-1.0}), chiron::InvariantError);
  EXPECT_THROW(weighted_average({{1.f}}, {0.0}), chiron::InvariantError);
  EXPECT_THROW(weighted_average({{1.f}, {1.f, 2.f}}, {1.0, 1.0}),
               chiron::InvariantError);
}

TEST(WeightedAverage, FedAvgEquationForm) {
  // Eqn (4): ω = Σ (D_i / D) ω_i with D_1 = 100, D_2 = 300.
  auto avg = weighted_average({{8.f}, {0.f}}, {100.0, 300.0});
  EXPECT_FLOAT_EQ(avg[0], 2.f);
}

TEST(WeightedAverage, RejectsNonFiniteModelValues) {
  // A NaN or Inf anywhere in an upload would poison every parameter of
  // the global model; FedAvg must refuse it loudly.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_THROW(weighted_average({{1.f, nan}, {1.f, 2.f}}, {1.0, 1.0}),
               chiron::InvariantError);
  EXPECT_THROW(weighted_average({{1.f}, {inf}}, {1.0, 1.0}),
               chiron::InvariantError);
  EXPECT_THROW(weighted_average({{-inf}}, {1.0}), chiron::InvariantError);
}

TEST(WeightedAverage, RejectsNonFiniteWeights) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(weighted_average({{1.f}, {2.f}}, {1.0, nan}),
               chiron::InvariantError);
  EXPECT_THROW(weighted_average(
                   {{1.f}}, {std::numeric_limits<double>::infinity()}),
               chiron::InvariantError);
}

class CheckpointFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing_util::temp_path("checkpoint.bin");
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(CheckpointFile, RoundTripThenExpectEofPasses) {
  {
    CheckpointWriter w(path_);
    w.write_block({1.f, 2.f, 3.f});
    w.write_block({4.f});
  }
  CheckpointReader r(path_);
  EXPECT_EQ(r.read_block(3), (std::vector<float>{1.f, 2.f, 3.f}));
  EXPECT_EQ(r.read_block(1), (std::vector<float>{4.f}));
  r.expect_eof();  // clean end of file: must not throw
}

TEST_F(CheckpointFile, TrailingGarbageFailsExpectEof) {
  {
    CheckpointWriter w(path_);
    w.write_block({1.f, 2.f});
  }
  {
    // Corrupt the file the way a bad writer (or a concatenated download)
    // would: extra bytes after the last block.
    std::ofstream f(path_, std::ios::binary | std::ios::app);
    f.write("junk", 4);
  }
  CheckpointReader r(path_);
  EXPECT_EQ(r.read_block(2), (std::vector<float>{1.f, 2.f}));
  EXPECT_THROW(r.expect_eof(), chiron::InvariantError);
}

TEST_F(CheckpointFile, TruncatedBlockThrowsOnRead) {
  {
    CheckpointWriter w(path_);
    w.write_block({1.f, 2.f, 3.f, 4.f});
  }
  {
    // Chop the tail off the payload.
    std::ifstream in(path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() - 6);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  CheckpointReader r(path_);
  EXPECT_THROW(r.read_block(4), chiron::InvariantError);
}

}  // namespace
}  // namespace chiron::nn
