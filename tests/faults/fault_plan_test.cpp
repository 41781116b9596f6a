// FaultPlan: deterministic replay, persistent outages, corruption helpers.
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace chiron::faults {
namespace {

FaultConfig mixed_config() {
  FaultConfig c;
  c.crash_prob = 0.2;
  c.straggler_prob = 0.3;
  c.corrupt_prob = 0.15;
  c.seed = 1234;
  return c;
}

bool same_event(const FaultEvent& a, const FaultEvent& b) {
  return a.down == b.down && a.crash == b.crash && a.slowdown == b.slowdown &&
         a.corruption == b.corruption;
}

TEST(FaultConfig, AnyDetectsInjection) {
  FaultConfig c;
  EXPECT_FALSE(c.any());
  c.straggler_prob = 0.1;
  EXPECT_TRUE(c.any());
}

TEST(FaultPlan, ZeroConfigDrawsNothing) {
  FaultPlan plan(FaultConfig{}, 8);
  for (int k = 0; k < 20; ++k)
    for (const FaultEvent& e : plan.plan_round(k)) EXPECT_FALSE(e.any());
}

TEST(FaultPlan, ReplayIsBitIdentical) {
  // The schedule is a pure function of (seed, round, node): a second plan
  // with the same config — or the same plan after reset() — reproduces
  // every event exactly.
  FaultPlan a(mixed_config(), 10);
  FaultPlan b(mixed_config(), 10);
  std::vector<std::vector<FaultEvent>> first;
  for (int k = 0; k < 30; ++k) {
    auto ea = a.plan_round(k);
    auto eb = b.plan_round(k);
    ASSERT_EQ(ea.size(), 10u);
    for (std::size_t i = 0; i < ea.size(); ++i)
      EXPECT_TRUE(same_event(ea[i], eb[i])) << "round " << k << " node " << i;
    first.push_back(std::move(ea));
  }
  a.reset();
  for (int k = 0; k < 30; ++k) {
    auto ea = a.plan_round(k);
    for (std::size_t i = 0; i < ea.size(); ++i)
      EXPECT_TRUE(same_event(ea[i], first[static_cast<std::size_t>(k)][i]));
  }
}

TEST(FaultPlan, RoundDrawsAreIndependentOfHistory) {
  // Skipping rounds must not shift later draws: round 7's events are the
  // same whether rounds 0–6 were planned or not (counter-based streams).
  FaultPlan a(mixed_config(), 6);
  FaultPlan b(mixed_config(), 6);
  for (int k = 0; k < 7; ++k) a.plan_round(k);
  auto ea = a.plan_round(7);
  auto eb = b.plan_round(7);
  for (std::size_t i = 0; i < ea.size(); ++i)
    EXPECT_TRUE(same_event(ea[i], eb[i]));
}

TEST(FaultPlan, SeedChangesSchedule) {
  FaultConfig c = mixed_config();
  FaultPlan a(c, 12);
  c.seed = 4321;
  FaultPlan b(c, 12);
  int differing = 0;
  for (int k = 0; k < 20; ++k) {
    auto ea = a.plan_round(k);
    auto eb = b.plan_round(k);
    for (std::size_t i = 0; i < ea.size(); ++i)
      if (!same_event(ea[i], eb[i])) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, RatesMatchProbabilities) {
  FaultConfig c = mixed_config();
  FaultPlan plan(c, 20);
  int crashes = 0, stragglers = 0, corrupt = 0, total = 0;
  for (int k = 0; k < 400; ++k) {
    for (const FaultEvent& e : plan.plan_round(k)) {
      ++total;
      if (e.crash) ++crashes;
      if (e.slowdown > 1.0) ++stragglers;
      if (e.corruption != Corruption::kNone) ++corrupt;
    }
  }
  const double n = static_cast<double>(total);
  EXPECT_NEAR(crashes / n, c.crash_prob, 0.02);
  // Straggler/corrupt draws happen only when the earlier draws miss.
  EXPECT_NEAR(stragglers / n, (1 - c.crash_prob) * c.straggler_prob, 0.02);
  EXPECT_NEAR(corrupt / n,
              (1 - c.crash_prob) * (1 - c.straggler_prob) * c.corrupt_prob,
              0.02);
}

TEST(FaultPlan, StragglerSlowdownWithinRange) {
  FaultConfig c;
  c.straggler_prob = 1.0;
  c.straggler_min = 2.0;
  c.straggler_max = 3.0;
  c.seed = 9;
  FaultPlan plan(c, 5);
  for (int k = 0; k < 50; ++k) {
    for (const FaultEvent& e : plan.plan_round(k)) {
      EXPECT_GE(e.slowdown, 2.0);
      EXPECT_LE(e.slowdown, 3.0);
    }
  }
}

TEST(FaultPlan, PersistentCrashKeepsNodeDown) {
  FaultConfig c;
  c.crash_prob = 0.5;
  c.persistent_prob = 1.0;  // every crash is terminal
  c.seed = 77;
  FaultPlan plan(c, 8);
  std::vector<bool> crashed(8, false);
  for (int k = 0; k < 40; ++k) {
    auto events = plan.plan_round(k);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (crashed[i]) {
        EXPECT_TRUE(events[i].down) << "node " << i << " must stay down";
        EXPECT_FALSE(events[i].crash);
      }
      if (events[i].crash) crashed[i] = true;
    }
  }
  EXPECT_GT(plan.down_count(), 0);
  plan.reset();
  EXPECT_EQ(plan.down_count(), 0);
  for (const FaultEvent& e : plan.plan_round(0)) EXPECT_FALSE(e.down);
}

TEST(FaultPlan, TransientCrashRecoversNextRound) {
  FaultConfig c;
  c.crash_prob = 1.0;
  c.persistent_prob = 0.0;
  c.seed = 5;
  FaultPlan plan(c, 4);
  for (int k = 0; k < 10; ++k) {
    for (const FaultEvent& e : plan.plan_round(k)) {
      EXPECT_TRUE(e.crash);
      EXPECT_FALSE(e.down);
    }
  }
  EXPECT_EQ(plan.down_count(), 0);
}

TEST(FaultPlan, InvalidConfigThrows) {
  FaultConfig c;
  c.crash_prob = 1.5;
  EXPECT_THROW((FaultPlan{c, 4}), chiron::InvariantError);
  c = FaultConfig{};
  c.straggler_min = 0.5;  // slowdowns must not speed nodes up
  EXPECT_THROW((FaultPlan{c, 4}), chiron::InvariantError);
  c = FaultConfig{};
  c.straggler_max = 1.2;  // below straggler_min
  EXPECT_THROW((FaultPlan{c, 4}), chiron::InvariantError);
  EXPECT_THROW((FaultPlan{FaultConfig{}, 0}), chiron::InvariantError);
}

// Hash of 40 planned rounds at N = 20k (crash with persistent outages,
// stragglers, corruption) plus down_count() after each round.
std::uint64_t schedule_hash(int threads) {
  runtime::set_threads(threads);
  FaultConfig c;
  c.crash_prob = 0.1;
  c.persistent_prob = 0.2;
  c.straggler_prob = 0.2;
  c.corrupt_prob = 0.1;
  c.seed = 99;
  FaultPlan plan(c, 20000);
  testing_util::Fnv1a h;
  for (int k = 0; k < 40; ++k) {
    for (const FaultEvent& e : plan.plan_round(k)) {
      h.add(std::uint64_t{e.down});
      h.add(std::uint64_t{e.crash});
      h.add(e.slowdown);
      h.add(static_cast<std::uint64_t>(e.corruption));
    }
    h.add(static_cast<std::uint64_t>(plan.down_count()));
  }
  runtime::set_threads(0);
  return h.h;
}

TEST(FaultPlan, ParallelScheduleMatchesKnownAnswer) {
  // The same schedule at 1 and 8 threads, equal to the hash the
  // full-engine (std::mt19937_64 per cell), serial planner produced: the
  // schedule can never drift silently.
  constexpr std::uint64_t kKnownAnswer = 0xe0fcede042b8ff52ull;
  EXPECT_EQ(schedule_hash(1), kKnownAnswer);
  EXPECT_EQ(schedule_hash(8), kKnownAnswer);
}

TEST(CorruptUpload, NaNModeAlwaysCaughtByFiniteCheck) {
  std::vector<float> upload(100, 0.5f);
  corrupt_upload(upload, Corruption::kNaN);
  EXPECT_TRUE(std::isnan(upload[0]));
  EXPECT_FALSE(upload_is_valid(upload, 0.0));    // even with no norm bound
  EXPECT_FALSE(upload_is_valid(upload, 1e30));
}

TEST(CorruptUpload, NormBlowupAlwaysCaughtByNormBound) {
  std::vector<float> upload(100, 0.5f);
  corrupt_upload(upload, Corruption::kNormBlowup);
  for (float v : upload) EXPECT_TRUE(std::isfinite(v));
  EXPECT_FALSE(upload_is_valid(upload, 1e8));
  EXPECT_TRUE(upload_is_valid(upload, 0.0));  // norm check disabled
}

TEST(CorruptUpload, NoneIsNoop) {
  std::vector<float> upload = {1.f, 2.f, 3.f};
  corrupt_upload(upload, Corruption::kNone);
  EXPECT_EQ(upload, (std::vector<float>{1.f, 2.f, 3.f}));
  EXPECT_TRUE(upload_is_valid(upload, 10.0));
}

TEST(UploadIsValid, RejectsInfAndTightNormBound) {
  std::vector<float> inf_upload = {1.f,
                                   std::numeric_limits<float>::infinity()};
  EXPECT_FALSE(upload_is_valid(inf_upload, 0.0));
  std::vector<float> big = {3.f, 4.f};  // L2 norm 5
  EXPECT_TRUE(upload_is_valid(big, 5.0));
  EXPECT_FALSE(upload_is_valid(big, 4.9));
}

}  // namespace
}  // namespace chiron::faults
