#include "adversary/adversary_plan.h"

#include <gtest/gtest.h>

#include <vector>

#include "adversary/defense.h"
#include "common/error.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace chiron::adversary {
namespace {

AdversaryConfig full_config() {
  AdversaryConfig c;
  c.fraction = 0.5;
  c.misreport_factor = 2.0;
  c.freeride_prob = 0.3;
  c.churn_prob = 0.1;
  c.away_min = 2;
  c.away_max = 4;
  c.seed = 77;
  return c;
}

TEST(AdversaryConfig, AnyReflectsKnobs) {
  AdversaryConfig c;
  EXPECT_FALSE(c.any());
  c.fraction = 0.5;
  EXPECT_FALSE(c.any());  // adversaries with no behavior are inert
  c.misreport_factor = 1.5;
  EXPECT_TRUE(c.any());
  c.misreport_factor = 1.0;
  c.freeride_prob = 0.1;
  EXPECT_TRUE(c.any());
  c.fraction = 0.0;
  EXPECT_FALSE(c.any());
  c.churn_prob = 0.05;  // churn applies to every node, fraction-independent
  EXPECT_TRUE(c.any());
}

TEST(AdversaryPlan, ReplayIsBitIdentical) {
  AdversaryPlan a(full_config(), 8);
  AdversaryPlan b(full_config(), 8);
  for (int r = 0; r < 50; ++r) {
    const auto ea = a.plan_round(r);
    const auto eb = b.plan_round(r);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].adversarial, eb[i].adversarial);
      EXPECT_EQ(ea[i].misreport_factor, eb[i].misreport_factor);
      EXPECT_EQ(ea[i].freeride, eb[i].freeride);
      EXPECT_EQ(ea[i].away, eb[i].away);
      EXPECT_EQ(ea[i].rejoined, eb[i].rejoined);
      EXPECT_EQ(ea[i].profile_version, eb[i].profile_version);
    }
  }
}

TEST(AdversaryPlan, ResetReplaysTheEpisodeExactly) {
  AdversaryPlan plan(full_config(), 6);
  std::vector<std::vector<AdversaryEvent>> first;
  for (int r = 0; r < 30; ++r) first.push_back(plan.plan_round(r));
  plan.reset();
  for (int r = 0; r < 30; ++r) {
    const auto again = plan.plan_round(r);
    for (std::size_t i = 0; i < again.size(); ++i) {
      EXPECT_EQ(again[i].away, first[static_cast<std::size_t>(r)][i].away);
      EXPECT_EQ(again[i].freeride,
                first[static_cast<std::size_t>(r)][i].freeride);
      EXPECT_EQ(again[i].misreport_factor,
                first[static_cast<std::size_t>(r)][i].misreport_factor);
      EXPECT_EQ(again[i].profile_version,
                first[static_cast<std::size_t>(r)][i].profile_version);
    }
  }
}

TEST(AdversaryPlan, TraitIsStableAcrossRoundsAndMatchesFraction) {
  AdversaryConfig c;
  c.fraction = 0.4;
  c.misreport_factor = 1.5;
  c.seed = 5;
  AdversaryPlan plan(c, 400);
  const auto r0 = plan.plan_round(0);
  const auto r1 = plan.plan_round(1);
  int adversarial = 0;
  for (std::size_t i = 0; i < r0.size(); ++i) {
    EXPECT_EQ(r0[i].adversarial, r1[i].adversarial);
    if (r0[i].adversarial) ++adversarial;
  }
  EXPECT_EQ(adversarial, plan.adversarial_count());
  EXPECT_NEAR(static_cast<double>(adversarial) / 400.0, 0.4, 0.08);
}

TEST(AdversaryPlan, ZeroConfigIsInert) {
  AdversaryPlan plan(AdversaryConfig{}, 5);
  EXPECT_FALSE(plan.config().any());
  for (int r = 0; r < 20; ++r) {
    for (const auto& e : plan.plan_round(r)) {
      EXPECT_FALSE(e.any());
      EXPECT_EQ(e.misreport_factor, 1.0);
      EXPECT_EQ(e.profile_version, 0);
    }
  }
  EXPECT_EQ(plan.adversarial_count(), 0);
  EXPECT_EQ(plan.away_count(), 0);
}

TEST(AdversaryPlan, MisreportFactorInRangeAndOnlyForAdversaries) {
  AdversaryPlan plan(full_config(), 50);
  const auto events = plan.plan_round(0);
  for (const auto& e : events) {
    if (e.away) continue;
    if (e.adversarial) {
      EXPECT_GE(e.misreport_factor, 1.0);
      EXPECT_LE(e.misreport_factor, 2.0);
    } else {
      EXPECT_EQ(e.misreport_factor, 1.0);
      EXPECT_FALSE(e.freeride);
    }
  }
}

TEST(AdversaryPlan, FreerideRateMatchesConfig) {
  AdversaryConfig c;
  c.fraction = 1.0;  // everyone adversarial
  c.freeride_prob = 0.3;
  c.seed = 11;
  AdversaryPlan plan(c, 64);
  int rides = 0, present = 0;
  for (int r = 0; r < 200; ++r) {
    for (const auto& e : plan.plan_round(r)) {
      if (e.away) continue;
      ++present;
      if (e.freeride) ++rides;
    }
  }
  EXPECT_NEAR(static_cast<double>(rides) / present, 0.3, 0.03);
}

TEST(AdversaryPlan, ChurnDepartsForDrawnSpanThenRejoinsWithNewVersion) {
  AdversaryConfig c;
  c.churn_prob = 0.15;
  c.away_min = 2;
  c.away_max = 5;
  c.seed = 3;
  AdversaryPlan plan(c, 12);
  std::vector<int> away_streak(12, 0);
  bool saw_rejoin = false;
  for (int r = 0; r < 300; ++r) {
    const auto events = plan.plan_round(r);
    for (std::size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      if (e.away) {
        ++away_streak[i];
        EXPECT_FALSE(e.rejoined);
        EXPECT_FALSE(e.freeride);
      } else {
        if (e.rejoined) {
          saw_rejoin = true;
          EXPECT_GE(away_streak[i], c.away_min);
          EXPECT_LE(away_streak[i], c.away_max);
          EXPECT_GE(e.profile_version, 1);
        }
        away_streak[i] = 0;
      }
    }
  }
  EXPECT_TRUE(saw_rejoin);
}

TEST(AdversaryPlan, ProfileVersionCountsRejoins) {
  AdversaryConfig c;
  c.churn_prob = 0.3;
  c.away_min = 1;
  c.away_max = 2;
  c.seed = 19;
  AdversaryPlan plan(c, 4);
  std::vector<int> rejoins(4, 0);
  for (int r = 0; r < 200; ++r) {
    const auto events = plan.plan_round(r);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].rejoined) ++rejoins[i];
      if (!events[i].away) {
        EXPECT_EQ(events[i].profile_version, rejoins[i]);
      }
    }
  }
}

TEST(AdversaryPlan, RoundDrawsAreCounterBased) {
  // Skipping rounds must not change later rounds' draws (aside from the
  // order-dependent churn state, which pure event knobs don't touch).
  AdversaryConfig c;
  c.fraction = 1.0;
  c.freeride_prob = 0.4;
  c.seed = 23;
  AdversaryPlan a(c, 10);
  AdversaryPlan b(c, 10);
  for (int r = 0; r < 10; ++r) a.plan_round(r);  // a consumed rounds 0..9
  const auto ea = a.plan_round(10);
  const auto eb = b.plan_round(10);  // b jumps straight to round 10
  for (std::size_t i = 0; i < ea.size(); ++i)
    EXPECT_EQ(ea[i].freeride, eb[i].freeride);
}

struct PlanHashes {
  std::uint64_t schedule = 0;
  std::uint64_t audits = 0;
  int adversarial = 0;
  int away = 0;
};

// Hashes 40 planned rounds at N = 20k with every knob on (churn bumps
// profile versions, so misreport factors are redrawn) plus away_count()
// after each round, and the audit draws of the same cells.
PlanHashes plan_hashes(int threads) {
  runtime::set_threads(threads);
  AdversaryConfig c;
  c.fraction = 0.3;
  c.misreport_factor = 2.0;
  c.freeride_prob = 0.3;
  c.churn_prob = 0.05;
  c.seed = 77;
  DefenseConfig d;
  d.audit_prob = 0.1;
  d.seed = 55;
  constexpr int kNodes = 20000;
  AdversaryPlan plan(c, kNodes);
  testing_util::Fnv1a schedule;
  testing_util::Fnv1a audits;
  for (int k = 0; k < 40; ++k) {
    for (const AdversaryEvent& e : plan.plan_round(k)) {
      schedule.add(std::uint64_t{e.adversarial});
      schedule.add(e.misreport_factor);
      schedule.add(std::uint64_t{e.freeride});
      schedule.add(std::uint64_t{e.away});
      schedule.add(std::uint64_t{e.rejoined});
      schedule.add(static_cast<std::uint64_t>(e.profile_version));
    }
    schedule.add(static_cast<std::uint64_t>(plan.away_count()));
    for (int i = 0; i < kNodes; ++i)
      audits.add(std::uint64_t{audit_fires(d, k, i)});
  }
  runtime::set_threads(0);
  return {schedule.h, audits.h, plan.adversarial_count(), plan.away_count()};
}

TEST(AdversaryPlan, ParallelScheduleMatchesKnownAnswer) {
  // The same schedule at 1 and 8 threads, equal to the hashes the
  // full-engine (std::mt19937_64 per cell), serial planner produced: the
  // schedule can never drift silently.
  for (int threads : {1, 8}) {
    const PlanHashes h = plan_hashes(threads);
    EXPECT_EQ(h.schedule, 0xd2a82ed90faff069ull) << threads << " threads";
    EXPECT_EQ(h.audits, 0xcbc8995bd5fab065ull) << threads << " threads";
    EXPECT_EQ(h.adversarial, 5964);
    EXPECT_EQ(h.away, 3376);
  }
}

TEST(AdversaryPlan, InvalidConfigsThrow) {
  AdversaryConfig c;
  c.fraction = 1.5;
  EXPECT_THROW((AdversaryPlan{c, 4}), chiron::InvariantError);
  c = AdversaryConfig{};
  c.misreport_factor = 0.5;
  EXPECT_THROW((AdversaryPlan{c, 4}), chiron::InvariantError);
  c = AdversaryConfig{};
  c.freeride_prob = -0.1;
  EXPECT_THROW((AdversaryPlan{c, 4}), chiron::InvariantError);
  c = AdversaryConfig{};
  c.churn_prob = 2.0;
  EXPECT_THROW((AdversaryPlan{c, 4}), chiron::InvariantError);
  c = AdversaryConfig{};
  c.away_min = 0;
  EXPECT_THROW((AdversaryPlan{c, 4}), chiron::InvariantError);
  c = AdversaryConfig{};
  c.away_min = 5;
  c.away_max = 2;
  EXPECT_THROW((AdversaryPlan{c, 4}), chiron::InvariantError);
  EXPECT_THROW((AdversaryPlan{AdversaryConfig{}, 0}), chiron::InvariantError);
}

}  // namespace
}  // namespace chiron::adversary
