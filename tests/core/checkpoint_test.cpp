// Checkpointing: flat-parameter extraction over arbitrary Param lists,
// the binary block format, and mechanism save/load round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.h"
#include "core/mechanism.h"
#include "nn/serialize.h"
#include "test_util.h"

namespace chiron::core {
namespace {

using testing_util::temp_path;

EnvConfig small_env() {
  EnvConfig c;
  c.num_nodes = 4;
  c.budget = 50.0;
  c.backend = BackendKind::kSurrogate;
  c.seed = 71;
  return c;
}

TEST(Checkpoint, BlockRoundTrip) {
  const std::string path = temp_path("block_roundtrip.ckpt");
  {
    nn::CheckpointWriter w(path);
    w.write_block({1.f, 2.f, 3.f});
    w.write_block({});
    w.write_block({-4.5f});
  }
  nn::CheckpointReader r(path);
  EXPECT_EQ(r.read_block(3), (std::vector<float>{1.f, 2.f, 3.f}));
  EXPECT_TRUE(r.read_block(0).empty());
  EXPECT_EQ(r.read_block(1), (std::vector<float>{-4.5f}));
  std::remove(path.c_str());
}

TEST(Checkpoint, SizeMismatchThrows) {
  const std::string path = temp_path("block_mismatch.ckpt");
  {
    nn::CheckpointWriter w(path);
    w.write_block({1.f, 2.f});
  }
  nn::CheckpointReader r(path);
  EXPECT_THROW(r.read_block(3), chiron::InvariantError);
  std::remove(path.c_str());
}

TEST(Checkpoint, NotACheckpointThrows) {
  const std::string path = temp_path("garbage.ckpt");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("hello world", f);
    std::fclose(f);
  }
  EXPECT_THROW(nn::CheckpointReader r(path), chiron::InvariantError);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(nn::CheckpointReader r("/nonexistent/missing.ckpt"),
               chiron::InvariantError);
}

TEST(Checkpoint, ParamListFlatRoundTrip) {
  nn::Param a(tensor::Tensor::of({1.f, 2.f}));
  nn::Param b(tensor::Tensor::of({3.f}));
  auto flat = nn::get_flat_params({&a, &b});
  EXPECT_EQ(flat, (std::vector<float>{1.f, 2.f, 3.f}));
  nn::set_flat_params({&a, &b}, {9.f, 8.f, 7.f});
  EXPECT_FLOAT_EQ(a.value[1], 8.f);
  EXPECT_FLOAT_EQ(b.value[0], 7.f);
  EXPECT_THROW(nn::set_flat_params({&a, &b}, {1.f}),
               chiron::InvariantError);
}

TEST(Checkpoint, MechanismSaveLoadRestoresPolicy) {
  const std::string path = temp_path("mechanism.ckpt");
  EnvConfig ec = small_env();
  ChironConfig cc;
  cc.episodes = 8;
  cc.seed = 5;

  EdgeLearnEnv env(ec);
  HierarchicalMechanism trained(env, cc);
  trained.train();
  trained.save(path);
  const std::vector<float> probe(
      static_cast<std::size_t>(env.exterior_state_dim()), 0.3f);
  const auto trained_action = trained.exterior_agent().act_mean(probe);

  // A fresh mechanism behaves differently until it loads the checkpoint.
  EdgeLearnEnv env2(ec);
  ChironConfig cc2 = cc;
  cc2.seed = 99;  // different init
  HierarchicalMechanism fresh(env2, cc2);
  const auto fresh_action = fresh.exterior_agent().act_mean(probe);
  EXPECT_NE(fresh_action[0], trained_action[0]);

  fresh.load(path);
  const auto loaded_action = fresh.exterior_agent().act_mean(probe);
  EXPECT_FLOAT_EQ(loaded_action[0], trained_action[0]);

  // Inner agent restored too.
  const auto inner_a = trained.inner_agent().act_mean({0.4f});
  const auto inner_b = fresh.inner_agent().act_mean({0.4f});
  for (std::size_t i = 0; i < inner_a.size(); ++i)
    EXPECT_FLOAT_EQ(inner_a[i], inner_b[i]);
  std::remove(path.c_str());
}

TEST(Checkpoint, MechanismHeaderRoundTrip) {
  const std::string path = temp_path("header_roundtrip.ckpt");
  MechanismCheckpointInfo info;
  info.exterior_obs_dim = 26;
  info.num_nodes = 4;
  info.hidden = 64;
  info.price_cap = 3.25e-8;
  {
    nn::CheckpointWriter w(path);
    write_mechanism_header(w, info);
  }
  nn::CheckpointReader r(path);
  const MechanismCheckpointInfo got = read_mechanism_header(r);
  EXPECT_EQ(got.exterior_obs_dim, 26);
  EXPECT_EQ(got.num_nodes, 4);
  EXPECT_EQ(got.hidden, 64);
  EXPECT_EQ(got.price_cap, 3.25e-8);  // exact double round trip
  std::remove(path.c_str());
}

TEST(Checkpoint, HeaderlessFileReportsPreV2) {
  // A v1-era file starts straight with a parameter block; the header
  // reader must say so instead of failing on a confusing size assert.
  const std::string path = temp_path("headerless.ckpt");
  {
    nn::CheckpointWriter w(path);
    w.write_block({1.f, 2.f, 3.f});
  }
  nn::CheckpointReader r(path);
  try {
    read_mechanism_header(r);
    FAIL() << "headerless checkpoint accepted";
  } catch (const chiron::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("pre-v2"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedMechanismCheckpointThrows) {
  const std::string path = temp_path("truncated.ckpt");
  EnvConfig ec = small_env();
  ChironConfig cc;
  cc.episodes = 1;
  EdgeLearnEnv env(ec);
  HierarchicalMechanism mech(env, cc);
  mech.save(path);

  // Chop the file mid-block and reload.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long full = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(full, 64);
  std::string bytes(static_cast<std::size_t>(full), '\0');
  f = std::fopen(path.c_str(), "rb");
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  std::fclose(f);

  EdgeLearnEnv env2(ec);
  HierarchicalMechanism other(env2, cc);
  EXPECT_THROW(other.load(path), chiron::InvariantError);
  std::remove(path.c_str());
}

TEST(Checkpoint, DimMismatchNamesTheDimension) {
  const std::string path = temp_path("dim_mismatch.ckpt");
  EnvConfig ec = small_env();
  ChironConfig cc;
  cc.episodes = 1;
  EdgeLearnEnv env(ec);
  HierarchicalMechanism mech(env, cc);
  mech.save(path);

  EnvConfig big = ec;
  big.num_nodes = 7;
  EdgeLearnEnv env_big(big);
  HierarchicalMechanism other(env_big, cc);
  try {
    other.load(path);
    FAIL() << "dim-mismatched checkpoint accepted";
  } catch (const chiron::InvariantError& e) {
    // The error must point at the mismatched dimension, not a raw size.
    EXPECT_NE(std::string(e.what()).find("obs dim"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, PriceCapMismatchThrows) {
  // Same shapes, different market (seed → different saturation prices →
  // different price cap): the served prices would silently differ from
  // training, so load refuses.
  const std::string path = temp_path("cap_mismatch.ckpt");
  EnvConfig ec = small_env();
  ChironConfig cc;
  cc.episodes = 1;
  EdgeLearnEnv env(ec);
  HierarchicalMechanism mech(env, cc);
  mech.save(path);

  EnvConfig other_market = ec;
  other_market.seed = 72;
  EdgeLearnEnv env2(other_market);
  ASSERT_NE(env.price_cap(), env2.price_cap());
  HierarchicalMechanism other(env2, cc);
  EXPECT_THROW(other.load(path), chiron::InvariantError);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadIntoWrongShapeThrows) {
  const std::string path = temp_path("wrong_shape.ckpt");
  EnvConfig ec = small_env();
  ChironConfig cc;
  cc.episodes = 1;
  EdgeLearnEnv env(ec);
  HierarchicalMechanism mech(env, cc);
  mech.save(path);

  EnvConfig big = ec;
  big.num_nodes = 7;  // different observation/action dims
  EdgeLearnEnv env_big(big);
  HierarchicalMechanism other(env_big, cc);
  EXPECT_THROW(other.load(path), chiron::InvariantError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chiron::core
