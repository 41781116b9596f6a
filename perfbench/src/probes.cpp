#include "probes.h"

#include <algorithm>

#include "adversary/adversary_plan.h"
#include "common/rng.h"
#include "faults/fault_plan.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/optim.h"
#include "rl/buffer.h"
#include "rl/ppo.h"
#include "sysmodel/economics.h"
#include "sysmodel/plane.h"
#include "util.h"

namespace perfbench {

using namespace chiron;

namespace {

/// Median time of one call of `fn`, in microseconds: `rounds` timed
/// batches of `calls` calls each, after one untimed batch.
template <typename F>
double probe_us(int rounds, int calls, F&& fn) {
  for (int i = 0; i < calls; ++i) fn();
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / calls);
  }
  return median(per_call);
}

}  // namespace

double probe_mlp_step_us(int batch, std::uint64_t seed) {
  Rng rng(seed);
  auto net = nn::make_mlp_classifier(16, 32, 5, rng);
  nn::Sgd opt(net->params(), 0.05);
  nn::SoftmaxCrossEntropy loss;
  tensor::Tensor x({batch, 16});
  for (float& v : x.vec()) v = static_cast<float>(rng.normal());
  std::vector<int> labels(static_cast<std::size_t>(batch));
  for (int& l : labels) l = rng.randint(0, 4);
  return probe_us(15, 200, [&] {
    net->zero_grad();
    loss.forward(net->forward(x, true), labels);
    net->backward(loss.backward());
    opt.step();
  });
}

double probe_act_us(std::int64_t obs_dim, std::int64_t act_dim,
                    std::int64_t hidden, std::uint64_t seed) {
  Rng rng(seed);
  rl::PpoConfig c;
  c.obs_dim = obs_dim;
  c.act_dim = act_dim;
  c.hidden = hidden;
  rl::PpoAgent agent(c, rng);
  std::vector<float> obs(static_cast<std::size_t>(obs_dim));
  for (float& v : obs) v = static_cast<float>(rng.uniform());
  return probe_us(15, 200, [&] { agent.act(obs, rng); });
}

double probe_gae_us(std::int64_t obs_dim, std::int64_t act_dim,
                    int transitions, int episode_len, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<rl::Transition> ts(static_cast<std::size_t>(transitions));
  for (rl::Transition& t : ts) {
    t.obs.resize(static_cast<std::size_t>(obs_dim));
    for (float& v : t.obs) v = static_cast<float>(rng.uniform());
    t.action.assign(static_cast<std::size_t>(act_dim), 0.1f);
    t.reward = static_cast<float>(rng.normal());
    t.value = static_cast<float>(rng.normal());
  }
  // Filling the buffer is not part of finish(); time it separately and
  // subtract.
  auto fill = [&](rl::RolloutBuffer& b) {
    for (int i = 0; i < transitions; ++i) {
      b.add(ts[static_cast<std::size_t>(i)]);
      if ((i + 1) % episode_len == 0 && i + 1 < transitions) {
        b.end_episode(0.95, 0.95);
      }
    }
  };
  const double fill_us = probe_us(15, 100, [&] {
    rl::RolloutBuffer b(obs_dim, act_dim);
    fill(b);
  });
  const double total_us = probe_us(15, 100, [&] {
    rl::RolloutBuffer b(obs_dim, act_dim);
    fill(b);
    b.finish(0.95, 0.95, true);
  });
  return std::max(0.0, total_us - fill_us);
}

double probe_price_batch_us(const serve::MechanismWeights& w,
                            std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  serve::PricingEngine engine(w.info);
  engine.adopt(w);
  tensor::Tensor states({batch, w.info.exterior_obs_dim});
  for (float& v : states.vec()) v = static_cast<float>(rng.uniform());
  return probe_us(15, batch == 1 ? 400 : 50,
                  [&] { engine.price_batch(states); });
}

MarketProbes probe_market(const core::EdgeLearnEnv& env,
                          const std::vector<double>& prices) {
  const core::EnvConfig& cfg = env.config();
  const int n = cfg.num_nodes;
  MarketProbes p;
  int round = 1;
  if (cfg.faults.any()) {
    faults::FaultPlan plan(cfg.faults, n);
    p.faults_plan_round_ms =
        probe_us(5, 1, [&] { plan.plan_round(round++); }) * 1e-3;
  }
  if (cfg.adversary.any()) {
    adversary::AdversaryPlan plan(cfg.adversary, n);
    p.adversary_plan_round_ms =
        probe_us(5, 1, [&] { plan.plan_round(round++); }) * 1e-3;
  }
  sysmodel::EconomicsPlane plane(env.devices(), cfg.local_epochs);
  sysmodel::DecisionBatch batch;
  p.plane_round_ms =
      probe_us(7, 3, [&] { plane.run_round(prices, batch); }) * 1e-3;
  if (cfg.faults.any() || cfg.adversary.any()) {
    const sysmodel::RoundOutcome promised = plane.run_round(prices, batch);
    std::vector<double> times(static_cast<std::size_t>(n));
    std::vector<bool> paid(static_cast<std::size_t>(n));
    Rng rng(cfg.seed + 17);
    for (int i = 0; i < n; ++i) {
      const sysmodel::NodeDecision& d = promised.nodes[static_cast<std::size_t>(i)];
      times[static_cast<std::size_t>(i)] = d.participates ? d.total_time : 0.0;
      paid[static_cast<std::size_t>(i)] = d.participates && !rng.bernoulli(0.1);
    }
    p.realize_round_ms = probe_us(7, 3, [&] {
                           sysmodel::realize_round(promised, times, paid);
                         }) * 1e-3;
  }
  return p;
}

}  // namespace perfbench
