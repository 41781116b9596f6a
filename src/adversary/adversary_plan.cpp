#include "adversary/adversary_plan.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/parallel.h"

namespace chiron::adversary {

namespace {

// Stream tags keep the three draw families (stable traits, per-version
// factors, per-round events) on disjoint counter streams, and all of them
// disjoint from FaultPlan's (which XORs no tag into its seed).
constexpr std::uint64_t kTraitTag = 0xA3C59AC1u;
constexpr std::uint64_t kFactorTag = 0xB7E15163u;
constexpr std::uint64_t kRoundTag = 0x9E3779B9u;

// Nodes per parallel chunk: one cell costs well under a microsecond, so
// a chunk is about a millisecond of work.
constexpr std::int64_t kPlanGrain = 2048;

void check_prob(double p, const char* name) {
  CHIRON_CHECK_MSG(p >= 0.0 && p <= 1.0,
                   name << " must be a probability, got " << p);
}

}  // namespace

AdversaryPlan::AdversaryPlan(const AdversaryConfig& config, int num_nodes)
    : config_(config),
      adversarial_(static_cast<std::size_t>(num_nodes), 0),
      away_(static_cast<std::size_t>(num_nodes), 0),
      pending_rejoin_(static_cast<std::size_t>(num_nodes), 0),
      version_(static_cast<std::size_t>(num_nodes), 0),
      factor_(static_cast<std::size_t>(num_nodes), 1.0),
      factor_version_(static_cast<std::size_t>(num_nodes), -1) {
  CHIRON_CHECK(num_nodes >= 1);
  check_prob(config_.fraction, "fraction");
  check_prob(config_.freeride_prob, "freeride_prob");
  check_prob(config_.churn_prob, "churn_prob");
  CHIRON_CHECK_MSG(config_.misreport_factor >= 1.0,
                   "misreport_factor must be >= 1, got "
                       << config_.misreport_factor);
  CHIRON_CHECK_MSG(config_.away_min >= 1 &&
                       config_.away_max >= config_.away_min,
                   "away range [" << config_.away_min << ", "
                                  << config_.away_max << "] invalid");
  // The adversarial trait is stable across the whole run: one draw per
  // node from the trait stream, independent of rounds. bernoulli(0) is
  // false on every stream, so fraction 0 skips the draws.
  if (config_.fraction <= 0.0) return;
  runtime::parallel_for(
      0, num_nodes,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) {
          CellRng rng(
              stream_seed(config_.seed ^ kTraitTag, 0, static_cast<int>(i)));
          adversarial_[static_cast<std::size_t>(i)] =
              rng.bernoulli(config_.fraction);
        }
      },
      kPlanGrain);
}

void AdversaryPlan::reset() {
  // The factor cache is keyed on (node, version), so it stays valid.
  away_.assign(away_.size(), 0);
  pending_rejoin_.assign(pending_rejoin_.size(), 0);
  version_.assign(version_.size(), 0);
}

double AdversaryPlan::factor_for(std::size_t node) {
  if (config_.misreport_factor <= 1.0) return 1.0;
  if (factor_version_[node] != version_[node]) {
    CellRng rng(stream_seed(config_.seed ^ kFactorTag, version_[node],
                            static_cast<int>(node)));
    factor_[node] = rng.uniform(1.0, config_.misreport_factor);
    factor_version_[node] = version_[node];
  }
  return factor_[node];
}

std::vector<AdversaryEvent> AdversaryPlan::plan_round(int round) {
  CHIRON_CHECK(round >= 0);
  std::vector<AdversaryEvent> events(adversarial_.size());
  runtime::parallel_for(
      0, static_cast<std::int64_t>(adversarial_.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t n = lo; n < hi; ++n) {
          const std::size_t i = static_cast<std::size_t>(n);
          AdversaryEvent& e = events[i];
          e.adversarial = adversarial_[i] != 0;
          if (away_[i] > 0) {
            e.away = true;
            if (--away_[i] == 0) pending_rejoin_[i] = 1;
            continue;
          }
          if (pending_rejoin_[i]) {
            e.rejoined = true;
            ++version_[i];
            pending_rejoin_[i] = 0;
          }
          e.profile_version = version_[i];
          if (e.adversarial) e.misreport_factor = factor_for(i);
          // Per-(round, node) stream; fixed draw order (churn, then
          // freeride) so each knob's schedule is stable when the others
          // change.
          CellRng rng(stream_seed(config_.seed ^ kRoundTag, round,
                                  static_cast<int>(n)));
          const bool departs =
              config_.churn_prob > 0.0 && rng.bernoulli(config_.churn_prob);
          const int away_len = rng.randint(config_.away_min, config_.away_max);
          const bool freerides = e.adversarial &&
                                 config_.freeride_prob > 0.0 &&
                                 rng.bernoulli(config_.freeride_prob);
          // A node that just rejoined sits this round's churn lottery
          // out, so away spells are bounded by away_max and rejoin/depart
          // never coincide in one event.
          if (departs && !e.rejoined) {
            e.away = true;
            e.freeride = false;
            e.misreport_factor = 1.0;  // not in the market this round
            // This round counts as the first away round.
            away_[i] = away_len - 1;
            if (away_[i] == 0) pending_rejoin_[i] = 1;
            continue;
          }
          e.freeride = freerides;
        }
      },
      kPlanGrain);
  return events;
}

int AdversaryPlan::adversarial_count() const {
  return static_cast<int>(
      std::count(adversarial_.begin(), adversarial_.end(), 1));
}

int AdversaryPlan::away_count() const {
  // A node whose counter just hit zero is still away until the rejoin
  // round actually executes, so pending rejoins count as away.
  int n = 0;
  for (std::size_t i = 0; i < away_.size(); ++i)
    if (away_[i] > 0 || pending_rejoin_[i]) ++n;
  return n;
}

}  // namespace chiron::adversary
