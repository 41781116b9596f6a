// Adversarial node behavior for the edge-learning market.
//
// The paper's mechanism (§III–V) assumes nodes truthfully report their
// cost parameters (α_i, c_i, μ_i) and honestly deliver the local training
// they are paid for. This subsystem injects the strategic behaviors that
// break those assumptions, deterministically, so the mechanism can be
// trained and evaluated against them:
//
//   * cost misreporting — an adversarial node inflates its reported cost
//     parameters by a per-node factor f >= 1: it demands more (inflated
//     reserve), trains slower (best response under the inflated cost) and
//     bills the server for the honest best-response frequency
//     (sysmodel::misreported_response);
//   * free-riding — an adversarial node uploads a stale model (a copy of
//     the current global parameters) instead of training. The upload is
//     finite and inside the norm bound, so the PR 2 validation accepts
//     it, but it contributes ~zero accuracy while the node collects the
//     full payment;
//   * population churn — any node can depart for a drawn number of rounds
//     and return with a freshly sampled device profile (its
//     profile_version bumps on every return).
//
// Determinism contract: identical to FaultPlan's. Each (round, node)
// draw comes from its own counter-based stream (common/rng.h
// stream_seed, drawn through a CellRng), so the schedule is a pure
// function of the plan seed plus the churn state — independent of call
// order, thread count and every other RNG in the process. plan_round
// plans the nodes under runtime::parallel_for; each node reads and
// writes only its own state. plan_round(k) must be called once per
// executed round in order (the away/rejoin state advances with it);
// reset() rewinds to the start of the episode and replays exactly. All
// knobs default to zero/off, so the honest market is the unchanged
// default.
#pragma once

#include <cstdint>
#include <vector>

namespace chiron::adversary {

struct AdversaryConfig {
  /// Fraction of nodes that are adversarial. The trait is a stable
  /// per-node Bernoulli draw from the plan seed (not per round): the same
  /// nodes stay adversarial for the whole run.
  double fraction = 0.0;
  /// Maximum cost-misreport factor. Each adversarial node draws a stable
  /// factor ~ U[1, misreport_factor] per profile version; 1 disables
  /// misreporting.
  double misreport_factor = 1.0;
  /// Per-round probability that an adversarial node free-rides (uploads a
  /// stale model instead of training).
  double freeride_prob = 0.0;
  /// Per-round probability that any present node departs (population
  /// churn — applies to honest and adversarial nodes alike).
  double churn_prob = 0.0;
  int away_min = 2;   ///< departure length range [rounds], inclusive
  int away_max = 6;
  std::uint64_t seed = 0;  ///< dedicated stream, independent of env seed

  /// True when any adversarial behavior can occur.
  bool any() const {
    return (fraction > 0.0 && (misreport_factor > 1.0 || freeride_prob > 0.0)) ||
           churn_prob > 0.0;
  }
};

/// The adversarial events drawn for one node in one round.
struct AdversaryEvent {
  /// Stable trait: this node is strategic (misreports and may free-ride).
  bool adversarial = false;
  /// Cost-inflation factor this node reports under (1 = truthful). Stable
  /// per (node, profile_version).
  double misreport_factor = 1.0;
  /// This round the node uploads a stale model instead of training.
  bool freeride = false;
  /// The node has churned out of the population: it is unreachable this
  /// round (never sees the posted price).
  bool away = false;
  /// First round back after a departure; the node's device profile must
  /// be resampled (it returns with different hardware/costs).
  bool rejoined = false;
  /// Bumped on every rejoin; keys the profile resample and the misreport
  /// factor redraw.
  int profile_version = 0;

  bool any() const {
    return adversarial || freeride || away || rejoined ||
           misreport_factor != 1.0;
  }
};

/// Seeded, replayable adversarial schedule over an episode; mirrors
/// faults::FaultPlan (see the determinism contract above).
class AdversaryPlan {
 public:
  AdversaryPlan(const AdversaryConfig& config, int num_nodes);

  /// Starts a new episode: clears the churn state and profile versions.
  void reset();

  /// Draws the adversarial events of round `round` for all nodes, in
  /// parallel.
  std::vector<AdversaryEvent> plan_round(int round);

  /// Nodes with the stable adversarial trait.
  int adversarial_count() const;

  /// Nodes currently churned away.
  int away_count() const;

  const AdversaryConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(adversarial_.size()); }

 private:
  /// The misreport factor of `node` at its current profile version,
  /// drawn once per (node, version) and cached.
  double factor_for(std::size_t node);

  // Per-node state. Flags are bytes, not vector<bool>: parallel chunks
  // write neighbouring nodes, and packed bits would share words.
  AdversaryConfig config_;
  std::vector<std::uint8_t> adversarial_;     // stable per-node trait
  std::vector<int> away_;                     // remaining away rounds
  std::vector<std::uint8_t> pending_rejoin_;  // rejoins next planned round
  std::vector<int> version_;                  // profile version
  std::vector<double> factor_;                // cached misreport factor
  std::vector<int> factor_version_;           // version factor_ is for
};

}  // namespace chiron::adversary
