// Adversarial environment rounds: strategic misreporting, free-riding and
// churn layered on the pay-on-delivery pipeline, plus the mechanism-side
// defenses (reserve screening, audits with clawback, reputation weights).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/env.h"
#include "obs/round_log.h"
#include "runtime/runtime.h"
#include "test_util.h"

namespace chiron::core {
namespace {

EnvConfig base_config() {
  EnvConfig c;
  c.num_nodes = 6;
  c.budget = 100.0;
  c.backend = BackendKind::kSurrogate;
  c.seed = 55;
  return c;
}

std::vector<double> saturation_prices(const EdgeLearnEnv& env,
                                      double scale = 1.0) {
  std::vector<double> p;
  for (int i = 0; i < env.num_nodes(); ++i)
    p.push_back(scale * env.per_node_price_cap(i));
  return p;
}

TEST(AdversaryEnv, InertDefensePathMatchesPlainPath) {
  // Audits that fire against honest nodes catch nothing: misreport factor
  // 1.0 sits below any valid tolerance and nobody free-rides. The
  // adversarial pipeline must then stay bit-identical to the plain path.
  EnvConfig plain_cfg = base_config();
  EnvConfig audited_cfg = base_config();
  audited_cfg.defense.audit_prob = 0.5;
  audited_cfg.defense.seed = 9;
  EdgeLearnEnv plain(plain_cfg);
  EdgeLearnEnv audited(audited_cfg);
  plain.reset();
  audited.reset();
  while (!plain.done() && !audited.done()) {
    StepResult a = plain.step(saturation_prices(plain, 0.6));
    StepResult b = audited.step(saturation_prices(audited, 0.6));
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.payment, b.payment);
    EXPECT_EQ(a.round_time, b.round_time);
    EXPECT_EQ(a.idle_time, b.idle_time);
    EXPECT_EQ(a.reward_exterior, b.reward_exterior);
    EXPECT_EQ(a.reward_inner, b.reward_inner);
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(b.delivered, b.participants);
    EXPECT_EQ(b.flagged, 0);
    EXPECT_EQ(b.screened, 0);
    EXPECT_EQ(b.clawed_back, 0.0);
    EXPECT_EQ(a.done, b.done);
  }
  EXPECT_EQ(plain.budget_remaining(), audited.budget_remaining());
  EXPECT_EQ(plain.exterior_state(), audited.exterior_state());
}

TEST(AdversaryEnv, MisreportersBillHonestButRunSlow) {
  // A cost misreporter claims the honest frequency (so its payment is the
  // honest payment) while actually running the inflated-cost response —
  // slower compute, so the server buys less speed for the same money.
  EnvConfig honest_cfg = base_config();
  honest_cfg.budget = 1e9;
  EnvConfig adv_cfg = honest_cfg;
  adv_cfg.adversary.fraction = 1.0;
  adv_cfg.adversary.misreport_factor = 2.0;
  adv_cfg.adversary.seed = 5;
  EdgeLearnEnv honest(honest_cfg);
  EdgeLearnEnv adv(adv_cfg);
  honest.reset();
  adv.reset();
  StepResult rh = honest.step(saturation_prices(honest, 0.6));
  StepResult ra = adv.step(saturation_prices(adv, 0.6));
  EXPECT_GT(ra.misreporting, 0);
  EXPECT_EQ(ra.freeriding, 0);
  ASSERT_EQ(ra.outcome.nodes.size(), rh.outcome.nodes.size());
  bool saw_slowdown = false;
  for (std::size_t i = 0; i < ra.outcome.nodes.size(); ++i) {
    const auto& na = ra.outcome.nodes[i];
    const auto& nh = rh.outcome.nodes[i];
    if (!na.participates) continue;
    // The inflated participation gate is stricter than the honest one, so
    // every adversarial participant also participates honestly...
    ASSERT_TRUE(nh.participates);
    // ...bills the identical honest claim...
    EXPECT_EQ(na.zeta, nh.zeta);
    EXPECT_EQ(na.payment, nh.payment);
    // ...and computes no faster than the honest response.
    EXPECT_GE(na.compute_time, nh.compute_time);
    if (na.compute_time > nh.compute_time) saw_slowdown = true;
  }
  EXPECT_TRUE(saw_slowdown) << "factor up to 2.0 must slow someone down";
}

TEST(AdversaryEnv, AuditsClawBackCaughtMisreporters) {
  EnvConfig c = base_config();
  c.budget = 1e9;
  c.num_nodes = 8;
  c.adversary.fraction = 1.0;
  c.adversary.misreport_factor = 2.0;
  c.adversary.seed = 5;
  c.defense.audit_prob = 1.0;  // audit everyone...
  c.defense.audit_tolerance = 1.05;
  c.defense.seed = 13;
  EdgeLearnEnv env(c);
  env.reset();
  const double before = env.budget_remaining();
  StepResult r = env.step(saturation_prices(env, 0.6));
  EXPECT_GT(r.flagged, 0) << "U[1,2] factors almost surely exceed 1.05";
  EXPECT_GT(r.clawed_back, 0.0);
  // Pay-on-delivery net of clawbacks: exactly the unflagged deliveries
  // hold a payment, and the budget drains by their sum alone.
  double per_node = 0.0;
  int paid_nodes = 0;
  for (const auto& n : r.outcome.nodes) {
    per_node += n.payment;
    if (n.payment > 0.0) ++paid_nodes;
  }
  EXPECT_NEAR(r.payment, per_node, 1e-9);
  EXPECT_EQ(paid_nodes, r.delivered - r.flagged);
  // Escrow accounting (DESIGN.md §5.11): the clawed-back escrow is
  // forfeited, not refilled — the budget drains by the realized payment
  // PLUS the clawbacks, which land in the non-spendable forfeited ledger.
  EXPECT_NEAR(env.budget_remaining(), before - r.payment - r.clawed_back,
              1e-9);
  EXPECT_NEAR(env.forfeited_total(), r.clawed_back, 1e-9);
  EXPECT_NEAR(r.forfeited_total, r.clawed_back, 1e-9);
  EXPECT_EQ(env.escrow_outstanding(), 0.0) << "escrow settles every round";
}

TEST(AdversaryEnv, FreeRidersAddNothingAndAuditsCatchThemAll) {
  // End to end through real federated training: a free-ride upload is a
  // byte-copy of the global model, so an all-free-riding round leaves the
  // model exactly where it was — and an audit identifies it unambiguously.
  EnvConfig c = base_config();
  c.backend = BackendKind::kRealBlobs;
  c.samples_per_node = 30;
  c.test_samples = 60;
  c.local.epochs = 2;
  c.local.batch_size = 10;
  c.local.lr = 0.05;
  c.budget = 1e9;
  c.max_rounds = 10;
  c.adversary.fraction = 1.0;
  c.adversary.freeride_prob = 1.0;
  c.adversary.seed = 7;
  c.defense.audit_prob = 1.0;
  c.defense.seed = 11;
  EdgeLearnEnv env(c);
  env.reset();
  const double budget0 = env.budget_remaining();
  double clawed = 0.0;
  for (int k = 0; k < 5; ++k) {
    StepResult r = env.step(saturation_prices(env, 0.6));
    EXPECT_GT(r.participants, 0);
    EXPECT_EQ(r.freeriding, r.participants);
    EXPECT_EQ(r.delivered, r.participants) << "stale uploads pass validation";
    EXPECT_EQ(r.accuracy_gain, 0.0) << "FedAvg of N global copies is global";
    EXPECT_EQ(r.flagged, r.delivered) << "audited free-rides always caught";
    EXPECT_EQ(r.payment, 0.0);
    clawed += r.clawed_back;
  }
  // Every flagged delivery's escrow is forfeited, so the budget drains by
  // the clawbacks even though no payment is ever realized; conservation
  // holds against the forfeited ledger (DESIGN.md §5.11).
  EXPECT_GT(clawed, 0.0);
  EXPECT_NEAR(env.budget_remaining(), budget0 - clawed, 1e-6);
  EXPECT_NEAR(env.forfeited_total(), clawed, 1e-6);
  EXPECT_NEAR(env.budget_remaining() + env.forfeited_total(), budget0, 1e-6);
}

TEST(AdversaryEnv, ReservePriceScreensReportedFloors) {
  // A reserve below every node's reported participation floor empties the
  // market; a generous one screens nobody.
  EnvConfig c = base_config();
  c.defense.reserve_price = 1e-12;
  EdgeLearnEnv strict(c);
  strict.reset();
  StepResult r = strict.step(saturation_prices(strict, 0.6));
  EXPECT_EQ(r.screened, 6);
  EXPECT_EQ(r.participants, 0);
  EXPECT_EQ(r.payment, 0.0);
  EXPECT_EQ(r.reward_exterior, -c.empty_round_penalty);

  c.defense.reserve_price = 1e9;
  EdgeLearnEnv lenient(c);
  lenient.reset();
  StepResult r2 = lenient.step(saturation_prices(lenient, 0.6));
  EXPECT_EQ(r2.screened, 0);
  EXPECT_GT(r2.participants, 0);
}

TEST(AdversaryEnv, ChurnDepartsRejoinsAndResetRestoresTheMarket) {
  EnvConfig c = base_config();
  c.budget = 1e9;
  c.max_rounds = 200;
  c.adversary.churn_prob = 0.25;
  c.adversary.away_min = 1;
  c.adversary.away_max = 3;
  c.adversary.seed = 3;
  EdgeLearnEnv env(c);
  const std::vector<sysmodel::DeviceProfile> initial = env.devices();
  env.reset();
  int departed = 0, rejoined = 0;
  for (int k = 0; k < 60; ++k) {
    StepResult r = env.step(saturation_prices(env, 0.6));
    departed += r.departed;
    rejoined += r.rejoined;
    EXPECT_LE(r.departed, r.offline) << "churned nodes count as offline";
  }
  EXPECT_GT(departed, 0);
  EXPECT_GT(rejoined, 0);
  // Rejoins resampled at least one device profile (the population only
  // randomizes zeta_max, comm_time and the reserve)...
  bool changed = false;
  for (std::size_t i = 0; i < initial.size(); ++i)
    if (env.devices()[i].zeta_max != initial[i].zeta_max ||
        env.devices()[i].comm_time != initial[i].comm_time)
      changed = true;
  EXPECT_TRUE(changed);
  // ...and reset() restores the original market exactly.
  env.reset();
  for (std::size_t i = 0; i < initial.size(); ++i) {
    EXPECT_EQ(env.devices()[i].zeta_max, initial[i].zeta_max);
    EXPECT_EQ(env.devices()[i].comm_time, initial[i].comm_time);
    EXPECT_EQ(env.devices()[i].reserve_utility, initial[i].reserve_utility);
  }
}

TEST(AdversaryEnv, AdversarialRoundsReplayBitIdentically) {
  // Two identical envs under the full adversarial+fault stack must agree
  // on every field of every round.
  EnvConfig c = base_config();
  c.adversary.fraction = 0.5;
  c.adversary.misreport_factor = 1.8;
  c.adversary.freeride_prob = 0.2;
  c.adversary.churn_prob = 0.1;
  c.adversary.seed = 21;
  c.defense.audit_prob = 0.3;
  c.defense.reputation_alpha = 0.2;
  c.defense.seed = 22;
  c.faults.crash_prob = 0.1;
  c.faults.straggler_prob = 0.1;
  c.faults.seed = 23;
  c.round_deadline = 120.0;
  EdgeLearnEnv a(c);
  EdgeLearnEnv b(c);
  a.reset();
  b.reset();
  while (!a.done() && !b.done()) {
    StepResult ra = a.step(saturation_prices(a, 0.6));
    StepResult rb = b.step(saturation_prices(b, 0.6));
    EXPECT_EQ(ra.accuracy, rb.accuracy);
    EXPECT_EQ(ra.payment, rb.payment);
    EXPECT_EQ(ra.round_time, rb.round_time);
    EXPECT_EQ(ra.screened, rb.screened);
    EXPECT_EQ(ra.flagged, rb.flagged);
    EXPECT_EQ(ra.departed, rb.departed);
    EXPECT_EQ(ra.rejoined, rb.rejoined);
    EXPECT_EQ(ra.freeriding, rb.freeriding);
    EXPECT_EQ(ra.misreporting, rb.misreporting);
    EXPECT_EQ(ra.clawed_back, rb.clawed_back);
    EXPECT_EQ(ra.done, rb.done);
  }
  EXPECT_EQ(a.budget_remaining(), b.budget_remaining());
  EXPECT_EQ(a.exterior_state(), b.exterior_state());
}

std::string adversarial_round_log(int threads_count) {
  runtime::set_threads(threads_count);
  EnvConfig c;
  c.num_nodes = 6;
  c.seed = 55;
  c.budget = 1e9;
  c.backend = BackendKind::kRealBlobs;
  c.samples_per_node = 30;
  c.test_samples = 60;
  c.local.epochs = 2;
  c.local.batch_size = 10;
  c.local.lr = 0.05;
  c.adversary.fraction = 0.5;
  c.adversary.misreport_factor = 1.8;
  c.adversary.freeride_prob = 0.3;
  c.adversary.churn_prob = 0.15;
  c.adversary.seed = 31;
  c.defense.audit_prob = 0.4;
  c.defense.reputation_alpha = 0.3;
  c.defense.seed = 32;
  std::ostringstream os;
  obs::JsonlRoundSink sink(os);
  EdgeLearnEnv env(c);
  env.set_round_sink(&sink);
  env.reset();
  for (int k = 0; k < 4; ++k) env.step(saturation_prices(env, 0.6));
  env.set_round_sink(nullptr);
  return os.str();
}

TEST(AdversaryEnv, RoundLogIsByteIdenticalAcrossThreadCounts) {
  const std::string one = adversarial_round_log(1);
  const std::string eight = adversarial_round_log(8);
  runtime::set_threads(0);  // restore auto for other tests
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, eight);
}

TEST(AdversaryEnv, RoundLogEmitsAdversaryFieldsOnlyWhenActive) {
  // Zero-knob runs must keep producing records without the adversary
  // columns — that is the byte-compatibility contract with prior logs.
  const auto log_for = [](const EnvConfig& c) {
    std::ostringstream os;
    obs::JsonlRoundSink sink(os);
    EdgeLearnEnv env(c);
    env.set_round_sink(&sink);
    env.reset();
    env.step(saturation_prices(env, 0.6));
    env.set_round_sink(nullptr);
    return os.str();
  };
  const std::string plain = log_for(base_config());
  EXPECT_EQ(plain.find("\"screened\""), std::string::npos);
  EXPECT_EQ(plain.find("\"clawed_back\""), std::string::npos);
  EXPECT_EQ(plain.find("\"forfeited_total\""), std::string::npos);
  EnvConfig c = base_config();
  c.adversary.fraction = 0.5;
  c.adversary.misreport_factor = 1.5;
  c.adversary.seed = 41;
  const std::string adv = log_for(c);
  EXPECT_NE(adv.find("\"screened\""), std::string::npos);
  EXPECT_NE(adv.find("\"clawed_back\""), std::string::npos);
  EXPECT_NE(adv.find("\"forfeited_total\""), std::string::npos);
}

TEST(AdversaryEnv, BudgetAccountingHoldsUnderCombinedFaultAdversarySweep) {
  // Property sweep over both step paths: whatever the fault and adversary
  // rates, an episode never overdraws the budget, the realized payment is
  // carried exactly by the unflagged deliveries, and crashed/late/
  // rejected/flagged nodes earn exactly zero.
  for (const bool adversarial : {false, true}) {
    for (double rate : {0.0, 0.2, 0.4}) {
      for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        EnvConfig c = base_config();
        c.budget = 40.0;
        c.seed = seed;
        c.faults.crash_prob = rate;
        c.faults.straggler_prob = rate;
        c.faults.corrupt_prob = rate / 2;
        c.faults.seed = seed + 100;
        c.round_deadline = 80.0;
        if (adversarial) {
          c.adversary.fraction = rate;
          c.adversary.misreport_factor = 2.0;
          c.adversary.freeride_prob = rate / 2;
          c.adversary.churn_prob = rate / 4;
          c.adversary.seed = seed + 200;
          c.defense.audit_prob = 0.5;
          c.defense.reputation_alpha = 0.2;
          c.defense.seed = seed + 300;
        }
        EdgeLearnEnv env(c);
        env.reset();
        double spent = 0.0;
        double forfeited = 0.0;
        while (!env.done()) {
          const double before = env.budget_remaining();
          StepResult r = env.step(saturation_prices(env, 0.5));
          if (r.aborted) break;
          spent += r.payment;
          forfeited += r.clawed_back;
          EXPECT_EQ(r.delivered + r.crashed + r.late + r.rejected,
                    r.participants);
          double per_node = 0.0;
          int paid_nodes = 0;
          for (const auto& n : r.outcome.nodes) {
            EXPECT_GE(n.payment, 0.0);
            per_node += n.payment;
            if (n.payment > 0.0) ++paid_nodes;
          }
          EXPECT_NEAR(r.payment, per_node, 1e-9);
          EXPECT_EQ(paid_nodes, r.delivered - r.flagged)
              << "adversarial=" << adversarial << " rate " << rate << " seed "
              << seed;
          // Escrow accounting: clawbacks leave the spendable budget and
          // accumulate in the forfeited ledger instead of refilling it.
          EXPECT_NEAR(env.budget_remaining(),
                      before - r.payment - r.clawed_back, 1e-9);
          EXPECT_NEAR(env.forfeited_total(), forfeited, 1e-9);
          EXPECT_GE(env.budget_remaining(), -1e-9);
          EXPECT_EQ(env.escrow_outstanding(), 0.0);
        }
        EXPECT_LE(spent + env.forfeited_total(), c.budget + 1e-9)
            << "adversarial=" << adversarial << " rate " << rate << " seed "
            << seed;
      }
    }
  }
}

TEST(AdversaryEnv, ReputationDownWeightsRepeatOffenders) {
  // With audits and reputation on, a caught node's aggregation weight
  // drops below the honest nodes' weight after a few flagged rounds.
  EnvConfig c = base_config();
  c.budget = 1e9;
  c.max_rounds = 60;
  c.adversary.fraction = 0.5;
  c.adversary.freeride_prob = 1.0;
  c.adversary.seed = 17;
  c.defense.audit_prob = 1.0;
  c.defense.reputation_alpha = 0.5;
  c.defense.seed = 18;
  EdgeLearnEnv env(c);
  env.reset();
  int flagged = 0;
  double clawed = 0.0;
  for (int k = 0; k < 10; ++k) {
    StepResult r = env.step(saturation_prices(env, 0.6));
    flagged += r.flagged;
    clawed += r.clawed_back;
    EXPECT_EQ(r.flagged, r.freeriding)
        << "at audit_prob 1 every free-ride is caught";
  }
  EXPECT_GT(flagged, 0);
  // Free-riders are caught, not paid — the clawback ledger grew while the
  // budget only ever paid clean deliveries.
  EXPECT_GT(clawed, 0.0);
}

// Every StepResult field and every per-node outcome column of an episode
// with every fault, adversary and defense knob live.
std::uint64_t every_knob_episode_hash(int threads, int nodes = 4096,
                                      int rounds = 30) {
  runtime::set_threads(threads);
  EnvConfig c = base_config();
  c.num_nodes = nodes;
  c.budget = 1e9;
  c.node_availability = 0.95;
  c.round_deadline = 60.0;
  c.faults.crash_prob = 0.05;
  c.faults.straggler_prob = 0.15;
  c.faults.corrupt_prob = 0.03;
  c.faults.persistent_prob = 0.2;
  c.faults.seed = 11;
  c.adversary.fraction = 0.3;
  c.adversary.misreport_factor = 2.0;
  c.adversary.freeride_prob = 0.3;
  c.adversary.churn_prob = 0.02;
  c.adversary.seed = 13;
  c.defense.reserve_price = 0.09;
  c.defense.audit_prob = 0.2;
  c.defense.reputation_alpha = 0.3;
  c.defense.seed = 17;
  EdgeLearnEnv env(c);
  env.reset();
  Rng rng(19);
  std::vector<double> prices;
  for (int i = 0; i < c.num_nodes; ++i)
    prices.push_back(env.per_node_price_cap(i) * rng.uniform(0.02, 0.3));
  testing_util::Fnv1a h;
  StepResult sum;  // every knob must actually fire during the episode
  for (int round = 0; round < rounds; ++round) {
    const StepResult r = env.step(prices);
    for (auto [total, v] :
         {std::pair{&sum.offline, r.offline}, {&sum.crashed, r.crashed},
          {&sum.late, r.late}, {&sum.rejected, r.rejected},
          {&sum.screened, r.screened}, {&sum.flagged, r.flagged},
          {&sum.departed, r.departed}, {&sum.rejoined, r.rejoined},
          {&sum.freeriding, r.freeriding},
          {&sum.misreporting, r.misreporting}}) {
      *total += v;
    }
    for (const double v :
         {r.reward_exterior, r.reward_inner, r.raw_exterior_reward,
          r.round_time, r.accuracy, r.accuracy_gain, r.payment, r.idle_time,
          r.time_efficiency, r.clawed_back, r.forfeited_total,
          r.outcome.round_time, r.outcome.total_payment,
          r.outcome.total_energy, r.outcome.idle_time,
          r.outcome.time_efficiency}) {
      h.add(v);
    }
    for (const int v :
         {static_cast<int>(r.done), static_cast<int>(r.aborted),
          r.participants, r.offline, r.delivered, r.crashed, r.late,
          r.rejected, r.lightweight, r.screened, r.flagged, r.departed,
          r.rejoined, r.freeriding, r.misreporting, r.outcome.participants}) {
      h.add(static_cast<std::uint64_t>(v));
    }
    for (const sysmodel::NodeDecision& d : r.outcome.nodes) {
      h.add(static_cast<std::uint64_t>(d.participates));
      for (const double v : {d.price, d.zeta, d.compute_time, d.comm_time,
                             d.total_time, d.compute_energy, d.comm_energy,
                             d.utility, d.payment}) {
        h.add(v);
      }
    }
    h.add(env.budget_remaining());
  }
  for (const float v : env.exterior_state()) h.add(static_cast<double>(v));
  for (const int total :
       {sum.offline, sum.crashed, sum.late, sum.rejected, sum.screened,
        sum.flagged, sum.departed, sum.rejoined, sum.freeriding,
        sum.misreporting}) {
    EXPECT_GT(total, 0);
  }
  runtime::set_threads(0);
  return h.h;
}

TEST(AdversaryEnv, EveryKnobEpisodeMatchesKnownAnswer) {
  // One commit/settle path for every configuration: at N <= the plane's
  // reduction chunk it must replay the three-path env it replaced op for
  // op. The known answer was recorded from that env (scalar strategic
  // market, AoS realize_round) at this configuration; threads 1 and 8
  // must both reproduce it.
  constexpr std::uint64_t kKnownAnswer = 0x2ef31120ac56b14cull;
  EXPECT_EQ(every_knob_episode_hash(1), kKnownAnswer);
  EXPECT_EQ(every_knob_episode_hash(8), kKnownAnswer);
}

TEST(AdversaryEnv, MultiChunkRoundsAreThreadInvariant) {
  // Above the plane's reduction chunk the commit and settle passes run
  // their node chunks in parallel; the fold order is fixed, so thread
  // count still moves no bit.
  constexpr int kNodes = 2 * 8192 + 1000;
  EXPECT_EQ(every_knob_episode_hash(1, kNodes, 8),
            every_knob_episode_hash(8, kNodes, 8));
}

TEST(AdversaryEnv, InvalidAdversaryConfigRejectedAtConstruction) {
  EnvConfig c = base_config();
  c.adversary.fraction = 1.5;
  EXPECT_THROW(EdgeLearnEnv{c}, chiron::InvariantError);
  c = base_config();
  c.defense.audit_prob = -0.5;
  EXPECT_THROW(EdgeLearnEnv{c}, chiron::InvariantError);
}

}  // namespace
}  // namespace chiron::core
