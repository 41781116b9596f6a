// Fault injection for the edge-learning round pipeline.
//
// Real edge deployments are dominated by mid-round failures — stragglers,
// dropouts, corrupted uploads — which the paper's round model (§II-A,
// §V-A) idealizes away. This subsystem injects those failures
// deterministically so the mechanism can be trained and evaluated under
// them: a seeded FaultPlan draws, per node per round, a mid-round crash
// (compute happens, the upload never arrives), a straggler slowdown
// (multiplies compute time, possibly past the server's deadline), or an
// upload corruption (NaN/Inf or norm blow-up on the parameter vector).
// Crashes can be transient (one round) or persistent (the node stays down
// for the rest of the episode).
//
// Determinism contract: each (round, node) event is a pure function of
// the plan seed plus the persistent-outage state, generated from its own
// counter-based stream (a CellRng, common/rng.h) — independent of call
// order, thread count and every other RNG in the process. plan_round
// plans the nodes under runtime::parallel_for: a node's event and
// outage state read only its own cell and its own state, so the result
// is the same at every thread count. All probabilities default to zero,
// so the paper model is the unchanged default.
#pragma once

#include <cstdint>
#include <vector>

namespace chiron::faults {

/// How a corrupted upload is damaged. kNaN poisons entries with quiet
/// NaNs (an all-finite check always catches it); kNormBlowup shifts
/// entries by a huge constant (a norm-bound check always catches it).
enum class Corruption { kNone, kNaN, kNormBlowup };

struct FaultConfig {
  double crash_prob = 0.0;       ///< per node per round mid-round crash
  double straggler_prob = 0.0;   ///< per node per round slowdown
  double straggler_min = 1.5;    ///< slowdown factor range (compute time ×)
  double straggler_max = 4.0;
  double corrupt_prob = 0.0;     ///< per node per round upload corruption
  /// Probability that a crash is persistent: the node stays down (offline)
  /// for the rest of the episode instead of recovering next round.
  double persistent_prob = 0.0;
  std::uint64_t seed = 0;        ///< dedicated stream, independent of env seed

  /// True when any injection probability is non-zero.
  bool any() const {
    return crash_prob > 0.0 || straggler_prob > 0.0 || corrupt_prob > 0.0;
  }
};

/// The fault drawn for one node in one round. At most one of
/// down/crash/slowdown/corruption is active per draw.
struct FaultEvent {
  /// Persistent outage carried over from an earlier crash: the node is
  /// unreachable before the round starts (never sees the posted price).
  bool down = false;
  /// Mid-round crash: the node computes its σ epochs but the upload never
  /// arrives at the server.
  bool crash = false;
  /// Straggler compute-time multiplier (1 = nominal speed).
  double slowdown = 1.0;
  Corruption corruption = Corruption::kNone;

  bool any() const {
    return down || crash || slowdown != 1.0 || corruption != Corruption::kNone;
  }
};

/// Seeded, replayable fault schedule over an episode. plan_round(k) must
/// be called once per executed round in order (the persistent-outage
/// state advances with it); within a round the per-node draws come from
/// independent counter-based streams keyed on (seed, round, node).
class FaultPlan {
 public:
  FaultPlan(const FaultConfig& config, int num_nodes);

  /// Starts a new episode: clears the persistent-outage state. The
  /// schedule itself depends only on (seed, round, node), so replaying an
  /// episode after reset() reproduces it exactly.
  void reset();

  /// Draws the fault events of round `round` for all nodes, in parallel.
  std::vector<FaultEvent> plan_round(int round);

  /// Nodes currently in a persistent outage.
  int down_count() const;

  const FaultConfig& config() const { return config_; }
  int num_nodes() const { return static_cast<int>(down_.size()); }

 private:
  FaultConfig config_;
  // Persistent-outage state, per node. Bytes, not vector<bool>: parallel
  // chunks write neighbouring nodes, and packed bits would share words.
  std::vector<std::uint8_t> down_;
};

/// Damages a flat parameter vector in place according to the corruption
/// mode. Deterministic (no RNG): kNaN poisons a fixed stride of entries,
/// kNormBlowup shifts a fixed stride by 1e12 so the L2 norm explodes.
/// kNone is a no-op.
void corrupt_upload(std::vector<float>& upload, Corruption mode);

/// Server-side acceptance test for an upload: every value finite and, if
/// `norm_bound > 0`, L2 norm within the bound. This is the validation the
/// parameter server applies before letting an upload into FedAvg.
bool upload_is_valid(const std::vector<float>& upload, double norm_bound);

}  // namespace chiron::faults
