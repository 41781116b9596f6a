// Training workloads. train_blobs is the fig3 market: Chiron learns to
// price 5 nodes that run real federated SGD (an MLP on 16-d blobs), on
// kBlobsMarkets markets drawn from the seed.
// sweep_surrogate is the fig4 sweep: Chiron, DRL-based and Greedy train on
// budgets 40..200 with the surrogate accuracy curve. Both are closed
// loops: each episode starts when the previous one has finished.
#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <memory>
#include <sstream>

#include "baselines/greedy.h"
#include "baselines/single_drl.h"
#include "bench.h"
#include "core/mechanism.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "probes.h"
#include "tracer.h"

namespace perfbench {

using namespace chiron;

namespace {

constexpr int kBlobsEpisodes = 200;
// How long Chiron's episodes grow depends on the market, and with it the
// cost of a round; a repetition trains several markets so one draw does
// not set the figure. The sweep draws one market per budget.
constexpr int kBlobsMarkets = 3;
constexpr int kSweepEpisodes = 40;
constexpr int kGreedyEpisodes = kSweepEpisodes / 4;
constexpr int kEvalEpisodes = 5;
constexpr double kSweepBudgets[] = {40, 80, 120, 160, 200};

// The harnesses' 5-node MNIST-like market (bench/harness_common.cpp).
core::EnvConfig surrogate_market(double budget, std::uint64_t seed) {
  core::EnvConfig c;
  c.num_nodes = 5;
  c.task = data::VisionTask::kMnistLike;
  c.budget = budget;
  c.seed = seed;
  c.max_rounds = 150;
  c.data_bits_per_node = 5e8 / 5.0;
  c.backend = core::BackendKind::kSurrogate;
  return c;
}

// bench/fig3_convergence.cpp's blobs market at η = 60.
core::EnvConfig blobs_market(std::uint64_t seed) {
  core::EnvConfig c = surrogate_market(60.0, seed);
  c.backend = core::BackendKind::kRealBlobs;
  c.samples_per_node = 40;
  c.test_samples = 120;
  c.local.epochs = 3;
  c.local.batch_size = 10;
  c.local.lr = 0.05;
  return c;
}

core::ChironConfig chiron_config(std::uint64_t seed, int episodes) {
  core::ChironConfig c;
  c.episodes = episodes;
  c.hidden = 64;
  c.update_epochs = 6;
  c.seed = seed + 1;
  return c;
}

// Server utility λ·A − ΣT (Eqn 9) of an evaluated policy.
double utility(const core::EnvConfig& cfg, const core::EpisodeStats& s) {
  return cfg.lambda_pref * s.final_accuracy - s.total_time;
}

using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

Intervals merged(Intervals v) {
  std::sort(v.begin(), v.end());
  Intervals out;
  for (const auto& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

std::int64_t length(const Intervals& v) {
  std::int64_t n = 0;
  for (const auto& iv : v) n += iv.second - iv.first;
  return n;
}

// Length of `a` not covered by `b`; both merged.
std::int64_t uncovered(const Intervals& a, const Intervals& b) {
  std::int64_t n = 0;
  std::size_t j = 0;
  for (const auto& iv : a) {
    std::int64_t cur = iv.first;
    while (j < b.size() && b[j].second <= cur) ++j;
    for (std::size_t k = j; k < b.size() && b[k].first < iv.second; ++k) {
      if (b[k].first > cur) n += b[k].first - cur;
      cur = std::max(cur, b[k].second);
    }
    if (cur < iv.second) n += iv.second - cur;
  }
  return n;
}

// Sizes and counts of one repetition.
struct Rep {
  double setup_s = 0.0;  // every env + mechanism construction
  double wall_s = 0.0;   // every episode; excludes set-up
  std::vector<double> op_ms;
  Digest digest;
  std::vector<double> chiron_utility;  // one per market
  std::int64_t chiron_acts = 0;  // round attempts (both agents act)
  std::int64_t chiron_rounds = 0;
  std::int64_t chiron_episodes = 0;
  std::int64_t drl_acts = 0;
  std::int64_t round_attempts = 0;  // every approach
  std::int64_t episodes = 0;
  std::int64_t ext_obs_dim = 0, inner_act_dim = 0;
  std::int64_t drl_obs_dim = 0, drl_act_dim = 0;
};

class Runner {
 public:
  Runner(Rep& rep, Checks& checks) : rep_(rep), checks_(checks) {}

  template <typename F>
  auto setup(F&& make) {
    const std::int64_t t0 = now_ns();
    auto out = make();
    rep_.setup_s += static_cast<double>(now_ns() - t0) * 1e-9;
    return out;
  }

  // One timed episode; checks and digests its stats.
  template <typename F>
  core::EpisodeStats episode(const char* span_name, F&& fn) {
    const std::int64_t t0 = now_ns();
    core::EpisodeStats s;
    {
      Span span(span_name);
      s = fn();
    }
    const std::int64_t dt = now_ns() - t0;
    // The operation is a round attempt (the last one of an episode may be
    // discarded); an episode's latency sample is its wall per attempt.
    rep_.op_ms.push_back(static_cast<double>(dt) * 1e-6 / (s.rounds + 1));
    rep_.round_attempts += s.rounds + 1;
    ++rep_.episodes;
    rep_.wall_s += static_cast<double>(dt) * 1e-9;
    const bool finite =
        std::isfinite(s.raw_reward_sum) && std::isfinite(s.exterior_reward_sum) &&
        std::isfinite(s.inner_reward_sum) && std::isfinite(s.final_accuracy) &&
        std::isfinite(s.total_time) && std::isfinite(s.spent);
    checks_.item(finite, std::string(span_name) +
                             ": non-finite reward, accuracy or time");
    rep_.digest.add(static_cast<std::int64_t>(s.rounds));
    for (double v : {s.raw_reward_sum, s.exterior_reward_sum, s.inner_reward_sum,
                     s.final_accuracy, s.total_time, s.spent,
                     s.mean_time_efficiency}) {
      rep_.digest.add(v);
    }
    return s;
  }

  // Chiron: train `episodes`, then evaluate as HierarchicalMechanism::
  // evaluate does (stochastic rollouts, learning off).
  void chiron(const core::EnvConfig& cfg, std::uint64_t seed, int episodes) {
    auto env = setup(
        [&] { return std::make_unique<core::EdgeLearnEnv>(cfg); });
    auto mech = setup([&] {
      return std::make_unique<core::HierarchicalMechanism>(
          *env, chiron_config(seed, episodes));
    });
    rep_.ext_obs_dim = mech->exterior_agent().config().obs_dim;
    rep_.inner_act_dim = mech->inner_agent().config().act_dim;
    for (int e = 0; e < episodes; ++e) {
      count(episode("chiron.run_episode",
                    [&] { return mech->run_episode(true, true); }));
    }
    std::vector<core::EpisodeStats> eval;
    for (int e = 0; e < kEvalEpisodes; ++e) {
      eval.push_back(episode("chiron.evaluate",
                             [&] { return mech->run_episode(false, true); }));
      count(eval.back());
    }
    const double u = utility(cfg, core::mean_stats(eval));
    checks_.item(std::isfinite(u), "chiron: non-finite evaluated utility");
    rep_.chiron_utility.push_back(u);
  }

  void drl(const core::EnvConfig& cfg, std::uint64_t seed, int episodes) {
    auto env = setup(
        [&] { return std::make_unique<core::EdgeLearnEnv>(cfg); });
    auto mech = setup([&] {
      baselines::SingleDrlConfig dc;
      dc.episodes = episodes;
      dc.hidden = 64;
      dc.actor_lr = 1e-3;
      dc.critic_lr = 1e-3;
      dc.update_epochs = 6;
      dc.seed = seed + 2;
      return std::make_unique<baselines::SingleAgentDrlMechanism>(*env, dc);
    });
    rep_.drl_obs_dim = mech->agent().config().obs_dim;
    rep_.drl_act_dim = mech->agent().config().act_dim;
    auto run = [&](const char* name, bool learn) {
      rep_.drl_acts +=
          episode(name, [&] { return mech->run_episode(learn, true); }).rounds + 1;
    };
    for (int e = 0; e < episodes; ++e) run("drl.run_episode", true);
    for (int e = 0; e < kEvalEpisodes; ++e) run("drl.evaluate", false);
  }

  void greedy(const core::EnvConfig& cfg, std::uint64_t seed, int episodes) {
    auto env = setup(
        [&] { return std::make_unique<core::EdgeLearnEnv>(cfg); });
    auto mech = setup([&] {
      baselines::GreedyConfig gc;
      gc.episodes = episodes;
      gc.seed = seed + 3;
      return std::make_unique<baselines::GreedyMechanism>(*env, gc);
    });
    for (int e = 0; e < episodes; ++e) {
      episode("greedy.run_episode", [&] { return mech->run_episode(true); });
    }
    for (int e = 0; e < kEvalEpisodes; ++e) {
      episode("greedy.evaluate", [&] { return mech->run_episode(false); });
    }
  }

 private:
  // Each round attempt (the last one may be discarded) acts both agents.
  void count(const core::EpisodeStats& s) {
    rep_.chiron_acts += s.rounds + 1;
    rep_.chiron_rounds += s.rounds;
    ++rep_.chiron_episodes;
  }

  Rep& rep_;
  Checks& checks_;
};

// Layer rows of one traced repetition from the program's own phase spans
// (obs trace events), as wall-clock unions so rows never overlap: each row
// claims only the time no earlier row has claimed.
struct PhaseRows {
  double local_train = 0, aggregate = 0, evaluate = 0, round_self = 0,
         ppo_update = 0, round_total = 0;
};

PhaseRows phase_rows(const std::vector<obs::TraceEvent>& events) {
  std::array<Intervals, 5> by_phase;
  for (const obs::TraceEvent& e : events) {
    const int p = static_cast<int>(e.phase);
    if (p < 0 || p >= 5) continue;
    by_phase[static_cast<std::size_t>(p)].emplace_back(
        static_cast<std::int64_t>(e.start_us),
        static_cast<std::int64_t>(e.start_us + e.duration_us));
  }
  for (Intervals& v : by_phase) v = merged(std::move(v));
  const auto& round = by_phase[static_cast<int>(obs::Phase::kRound)];
  Intervals claimed;
  auto claim = [&](const Intervals& v) {
    const double s = static_cast<double>(uncovered(v, claimed)) * 1e-6;
    Intervals both = claimed;
    both.insert(both.end(), v.begin(), v.end());
    claimed = merged(std::move(both));
    return s;
  };
  PhaseRows r;
  r.local_train = claim(by_phase[static_cast<int>(obs::Phase::kLocalTrain)]);
  r.aggregate = claim(by_phase[static_cast<int>(obs::Phase::kAggregate)]);
  r.evaluate = claim(by_phase[static_cast<int>(obs::Phase::kEvaluate)]);
  r.round_self = claim(round);
  r.ppo_update = claim(by_phase[static_cast<int>(obs::Phase::kPpoUpdate)]);
  r.round_total = static_cast<double>(length(round)) * 1e-6;
  return r;
}

double hist_sum_s(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return h.sum * 1e-6;
  }
  return 0.0;
}

double hist_count(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& h : s.histograms) {
    if (h.name == name) return static_cast<double>(h.count);
  }
  return 0.0;
}

double counter(const obs::MetricsSnapshot& s, const std::string& name) {
  for (const auto& c : s.counters) {
    if (c.name == name) return static_cast<double>(c.value);
  }
  return 0.0;
}

Report run_training(const Options& opt, bool sweep) {
  Report r;
  r.op_name = "round attempt";
  auto repetition = [&](Rep& rep) {
    Runner run(rep, r.checks);
    if (sweep) {
      // Each budget draws its own market, as train_blobs does.
      std::uint64_t seed = opt.seed * std::size(kSweepBudgets);
      for (double budget : kSweepBudgets) {
        const core::EnvConfig cfg = surrogate_market(budget, seed);
        run.chiron(cfg, seed, kSweepEpisodes);
        run.drl(cfg, seed, kSweepEpisodes);
        run.greedy(cfg, seed, kGreedyEpisodes);
        ++seed;
      }
    } else {
      for (int k = 0; k < kBlobsMarkets; ++k) {
        const std::uint64_t seed = opt.seed * kBlobsMarkets + k;
        run.chiron(blobs_market(seed), seed, kBlobsEpisodes);
      }
    }
  };

  std::string first_digest;
  std::vector<double> utilities;
  std::vector<double> episodes_per_s;
  auto keep = [&](Rep& rep, int i) {
    r.unit_ops_per_s.push_back(static_cast<double>(rep.round_attempts) /
                               rep.wall_s);
    episodes_per_s.push_back(static_cast<double>(rep.episodes) / rep.wall_s);
    r.setup_s.push_back(rep.setup_s);
    r.info["round_attempts_per_repetition"] = std::to_string(rep.round_attempts);
    r.info["episodes_per_repetition"] = std::to_string(rep.episodes);
    if (i == 0) {
      first_digest = rep.digest.hex();
      utilities = rep.chiron_utility;
    } else {
      r.checks.item(rep.digest.hex() == first_digest,
                    "repetition " + std::to_string(i) +
                        " produced different episodes than the first");
    }
  };

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  repeat_for(untraced_s, 2, [&](int i) {
    Rep rep;
    repetition(rep);
    r.op_ms.insert(r.op_ms.end(), rep.op_ms.begin(), rep.op_ms.end());
    keep(rep, i);
  });

  double mean_utility = 0.0;
  for (double u : utilities) mean_utility += u / static_cast<double>(utilities.size());
  r.named.push_back({"train.episodes_per_s", "1/s", median(episodes_per_s)});
  r.named.push_back({"train.rounds_per_s", "1/s", median(r.unit_ops_per_s)});
  r.named.push_back({"eval.utility", "1", mean_utility});
  r.digest.push_back("episodes=" + first_digest);
  {
    std::ostringstream u;
    u.precision(17);
    u << "eval.utility=" << mean_utility;
    r.digest.push_back(u.str());
  }
  r.info["repetitions"] = std::to_string(r.unit_ops_per_s.size());

  if (!opt.trace) return r;

  // Traced half: the program's phase histograms and trace events plus the
  // benchmark's own spans around each episode.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.set_enabled(true);
  obs::set_tracing(true);
  Tracer::instance().set_enabled(true);
  PhaseRows rows;
  double wall = 0.0;
  Rep last;
  std::vector<double> traced_ms;
  const int reps = repeat_for(opt.seconds / 2, 1, [&](int) {
    Rep rep;
    obs::drain_trace();
    repetition(rep);
    const PhaseRows p = phase_rows(obs::drain_trace());
    rows.local_train += p.local_train;
    rows.aggregate += p.aggregate;
    rows.evaluate += p.evaluate;
    rows.round_self += p.round_self;
    rows.round_total += p.round_total;
    rows.ppo_update += p.ppo_update;
    wall += rep.wall_s;
    traced_ms.insert(traced_ms.end(), rep.op_ms.begin(), rep.op_ms.end());
    r.checks.item(rep.digest.hex() == first_digest,
                  "traced repetition produced different episodes");
    last = rep;
  });
  Tracer::instance().set_enabled(false);
  obs::set_tracing(false);
  reg.set_enabled(false);
  const obs::MetricsSnapshot snap = reg.snapshot();

  // Probes at this workload's shapes (outside the traced window).
  const double act_ext =
      probe_act_us(last.ext_obs_dim, 1, 64, opt.seed + 11);
  const double act_inner =
      probe_act_us(1, last.inner_act_dim, 64, opt.seed + 12);
  const double act_drl =
      sweep ? probe_act_us(last.drl_obs_dim, last.drl_act_dim, 64, opt.seed + 13)
            : 0.0;
  const int ep_len = static_cast<int>(std::lround(
      static_cast<double>(last.chiron_acts) /
      static_cast<double>(std::max<std::int64_t>(1, last.chiron_episodes))));
  const double gae = probe_gae_us(last.ext_obs_dim, 1, 5 * ep_len,
                                  std::max(1, ep_len), opt.seed + 14);
  const double mlp = sweep ? 0.0 : probe_mlp_step_us(10, opt.seed + 15);

  const double n = static_cast<double>(reps);
  const double ppo_updates = counter(snap, "ppo.updates");
  r.traced_wall_s = wall;
  r.untraced_op_ms = median(r.op_ms);
  r.traced_op_ms = median(traced_ms);
  r.table = {
      {"fl.local_train", rows.local_train, false},
      {"fl.aggregate", rows.aggregate, false},
      {"fl.evaluate", rows.evaluate, false},
      {"core.round (self: market, commit, settle)", rows.round_self, false},
      {"rl.ppo_update", rows.ppo_update, false},
      {"rl.act chiron", (act_ext + act_inner) * 1e-6 *
                            static_cast<double>(last.chiron_acts) * n, true},
      {"rl.act drl", act_drl * 1e-6 * static_cast<double>(last.drl_acts) * n,
       true},
      {"rl.gae", gae * 1e-6 * ppo_updates, true},
  };
  close_layer_table(r, wall);

  auto& L = r.layer;
  L["fl.local_train_s"] = hist_sum_s(snap, "span.local_train.us") / n;
  L["fl.aggregate_s"] = hist_sum_s(snap, "span.aggregate.us") / n;
  L["fl.evaluate_s"] = hist_sum_s(snap, "span.evaluate.us") / n;
  L["fl.local_train_calls"] = hist_count(snap, "span.local_train.us") / n;
  L["nn.mlp_step_us"] = mlp;
  L["rl.ppo_update_s"] = hist_sum_s(snap, "span.ppo_update.us") / n;
  L["rl.ppo_updates"] = ppo_updates / n;
  L["rl.act_us.exterior"] = act_ext;
  L["rl.act_us.inner"] = act_inner;
  L["rl.gae_us"] = gae;
  L["core.round_s"] = hist_sum_s(snap, "span.round.us") / n;
  L["core.rounds"] = counter(snap, "env.rounds") / n;
  L["core.rounds_aborted"] = counter(snap, "env.rounds_aborted") / n;
  L["core.residual_s"] = (wall - rows.round_total - rows.ppo_update) / n;
  return r;
}

}  // namespace

Report run_train_blobs(const Options& opt) { return run_training(opt, false); }
Report run_sweep_surrogate(const Options& opt) {
  return run_training(opt, true);
}

}  // namespace perfbench
