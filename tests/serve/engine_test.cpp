// PricingEngine: checkpoint loading/validation and the bit-identity of
// served prices against the training-side mechanism evaluation path.
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.h"
#include "core/actions.h"
#include "core/env.h"
#include "core/mechanism.h"
#include "nn/serialize.h"
#include "test_util.h"

namespace chiron::serve {
namespace {

using testing_util::temp_path;

core::EnvConfig small_env() {
  core::EnvConfig c;
  c.num_nodes = 4;
  c.budget = 50.0;
  c.seed = 71;
  return c;
}

std::string save_mechanism(const char* name, const core::EnvConfig& ec,
                           std::uint64_t seed = 5) {
  const std::string path = temp_path(name);
  core::EdgeLearnEnv env(ec);
  core::ChironConfig cc;
  cc.episodes = 1;
  cc.seed = seed;
  core::HierarchicalMechanism mech(env, cc);
  mech.save(path);
  return path;
}

TEST(ServeEngine, LoadReadsHeaderAndBlocks) {
  const core::EnvConfig ec = small_env();
  const std::string path = save_mechanism("load_ok.ckpt", ec);
  const MechanismWeights w = load_mechanism_weights(path);
  core::EdgeLearnEnv env(ec);
  EXPECT_EQ(w.info.exterior_obs_dim, env.exterior_state_dim());
  EXPECT_EQ(w.info.num_nodes, 4);
  EXPECT_EQ(w.info.price_cap, env.price_cap());
  EXPECT_FALSE(w.exterior_policy.empty());
  EXPECT_FALSE(w.inner_policy.empty());
  std::remove(path.c_str());
}

TEST(ServeEngine, WrongSizeBlockNamesTheBlock) {
  const std::string path = temp_path("bad_block.ckpt");
  {
    nn::CheckpointWriter w(path);
    core::MechanismCheckpointInfo info;
    info.exterior_obs_dim = 6;
    info.num_nodes = 3;
    info.hidden = 8;
    info.price_cap = 1.0;
    core::write_mechanism_header(w, info);
    w.write_block({1.f, 2.f});  // far too small for the exterior policy
    w.write_block({});
    w.write_block({});
    w.write_block({});
  }
  try {
    load_mechanism_weights(path);
    FAIL() << "undersized block accepted";
  } catch (const chiron::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("exterior policy"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(ServeEngine, ServedPricesMatchMechanismEvaluation) {
  // The whole point of the serving path: prices computed through
  // PricingEngine must equal the training-side composition (exterior
  // act_mean → sigmoid squash → inner act_mean → softmax → Eqn 13)
  // BIT-FOR-BIT — same GEMM path, same float casts.
  const core::EnvConfig ec = small_env();
  const std::string path = save_mechanism("match.ckpt", ec);

  core::EdgeLearnEnv env(ec);
  core::ChironConfig cc;
  cc.episodes = 1;
  cc.seed = 5;
  core::HierarchicalMechanism mech(env, cc);
  mech.load(path);

  env.reset();
  const std::vector<float> state = env.exterior_state();
  const std::vector<float> raw = mech.exterior_agent().act_mean(state);
  const double p_total = core::map_total_price(raw[0], env.price_cap());
  const std::vector<float> logits = mech.inner_agent().act_mean(
      {static_cast<float>(p_total / env.price_cap())});
  const std::vector<double> props = core::map_proportions(logits);
  const std::vector<double> expect =
      core::combine_prices(p_total, props);

  PricingEngine engine(load_mechanism_weights(path).info);
  engine.adopt(load_mechanism_weights(path));
  const PriceQuote q = engine.price_one(state);
  EXPECT_EQ(q.p_total, p_total);
  ASSERT_EQ(q.prices.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(q.prices[i], expect[i]) << "node " << i;
  std::remove(path.c_str());
}

TEST(ServeEngine, BatchBitIdenticalToSingles) {
  const core::EnvConfig ec = small_env();
  const std::string path = save_mechanism("batch.ckpt", ec);
  const MechanismWeights w = load_mechanism_weights(path);
  PricingEngine engine(w.info);
  engine.adopt(w);

  const std::int64_t dim = w.info.exterior_obs_dim;
  const std::int64_t B = 5;
  tensor::Tensor states({B, dim});
  for (std::int64_t b = 0; b < B; ++b)
    for (std::int64_t j = 0; j < dim; ++j)
      states.at2(b, j) = 0.1f * static_cast<float>(b + 1) +
                         0.01f * static_cast<float>(j);

  const std::vector<PriceQuote> batch = engine.price_batch(states);
  ASSERT_EQ(batch.size(), static_cast<std::size_t>(B));
  for (std::int64_t b = 0; b < B; ++b) {
    const PriceQuote single = engine.price_one(states.row(b).vec());
    EXPECT_EQ(batch[static_cast<std::size_t>(b)].p_total, single.p_total);
    ASSERT_EQ(batch[static_cast<std::size_t>(b)].prices.size(),
              single.prices.size());
    for (std::size_t i = 0; i < single.prices.size(); ++i)
      EXPECT_EQ(batch[static_cast<std::size_t>(b)].prices[i],
                single.prices[i]);
  }
  std::remove(path.c_str());
}

TEST(ServeEngine, AdoptRejectsMismatchedDims) {
  const core::EnvConfig ec = small_env();
  const std::string path = save_mechanism("adopt.ckpt", ec);
  const MechanismWeights w = load_mechanism_weights(path);

  core::MechanismCheckpointInfo other = w.info;
  other.num_nodes = w.info.num_nodes + 1;
  PricingEngine engine(other);
  EXPECT_THROW(engine.adopt(w), chiron::InvariantError);
  std::remove(path.c_str());
}

TEST(ServeEngine, PriceBeforeAdoptThrows) {
  core::MechanismCheckpointInfo info;
  info.exterior_obs_dim = 3;
  info.num_nodes = 2;
  info.hidden = 8;
  info.price_cap = 1.0;
  PricingEngine engine(info);
  EXPECT_THROW(engine.price_one({0.1f, 0.2f, 0.3f}),
               chiron::InvariantError);
}

TEST(ServeEngine, WrongStateSizeThrows) {
  const core::EnvConfig ec = small_env();
  const std::string path = save_mechanism("state_size.ckpt", ec);
  const MechanismWeights w = load_mechanism_weights(path);
  PricingEngine engine(w.info);
  engine.adopt(w);
  EXPECT_THROW(engine.price_one({0.1f, 0.2f}), chiron::InvariantError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chiron::serve
