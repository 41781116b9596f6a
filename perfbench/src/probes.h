// Standalone probes: lower-layer public functions timed in isolation at a
// workload's own shapes. They run only in traced runs, and layer-table
// rows built from them are marked as estimates.
#pragma once

#include <cstdint>
#include <vector>

#include "core/env.h"
#include "serve/engine.h"

namespace perfbench {

/// One forward + backward + SGD step of the fig3 blobs MLP (16 → 32 → 5,
/// nn::make_mlp_classifier) at `batch` samples.
double probe_mlp_step_us(int batch, std::uint64_t seed);

/// One stochastic PpoAgent::act at the given shapes.
double probe_act_us(std::int64_t obs_dim, std::int64_t act_dim,
                    std::int64_t hidden, std::uint64_t seed);

/// RolloutBuffer::finish (GAE + normalisation) over `transitions`
/// transitions in episodes of `episode_len`.
double probe_gae_us(std::int64_t obs_dim, std::int64_t act_dim,
                    int transitions, int episode_len, std::uint64_t seed);

/// PricingEngine::price_batch over `batch` states.
double probe_price_batch_us(const chiron::serve::MechanismWeights& w,
                            std::int64_t batch, std::uint64_t seed);

/// Per-round costs of the market's lower layers at the env's shapes, in
/// milliseconds. Fields whose layer the config leaves off stay 0.
struct MarketProbes {
  double faults_plan_round_ms = 0.0;
  double adversary_plan_round_ms = 0.0;
  double realize_round_ms = 0.0;
  double plane_round_ms = 0.0;
};
MarketProbes probe_market(const chiron::core::EdgeLearnEnv& env,
                          const std::vector<double>& prices);

}  // namespace perfbench
