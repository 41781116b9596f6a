// market_honest / market_strategic: a closed loop of EdgeLearnEnv::step on
// an N = 100k surrogate-backend market, driven with seeded price vectors.
// The honest market has every fault, adversary and defense knob off; the
// strategic one turns them all on, so the two exercise the honest and the
// strategic commit paths.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "bench.h"
#include "common/rng.h"
#include "core/env.h"
#include "obs/metrics.h"
#include "probes.h"
#include "tracer.h"

namespace perfbench {

using namespace chiron;

namespace {

constexpr int kNodes = 100000;
constexpr int kPriceSets = 8;
constexpr int kSetups = 5;
// The digest covers exactly the first steps of every run, so runs of
// different lengths stay comparable.
constexpr int kDigestStepsHonest = 50;
constexpr int kDigestStepsStrategic = 5;
constexpr double kSliceS = 0.5;
// η: far more than any run can spend, so no episode ends mid-run.
constexpr double kBudget = 1e12;

core::EnvConfig market_config(std::uint64_t seed, bool strategic) {
  core::EnvConfig c;
  c.num_nodes = kNodes;
  c.task = data::VisionTask::kMnistLike;
  c.budget = kBudget;
  c.seed = seed;
  c.max_rounds = 1 << 30;
  // d_i stays at its per-node default (≈ 4,000 MNIST images): splitting
  // the 5e8-bit corpus 100k ways leaves every node below its reserve
  // utility at any price inside the agents' action range.
  c.backend = core::BackendKind::kSurrogate;
  if (strategic) {
    c.faults.crash_prob = 0.05;
    c.faults.straggler_prob = 0.1;
    c.faults.seed = seed + 7919;
    c.adversary.fraction = 0.2;
    c.adversary.misreport_factor = 2.0;
    c.adversary.freeride_prob = 0.3;
    c.adversary.churn_prob = 0.01;
    c.adversary.seed = seed + 104729;
    c.defense.audit_prob = 0.1;
    c.defense.reputation_alpha = 0.2;
    c.defense.seed = seed + 1299709;
  }
  return c;
}

struct Market {
  std::unique_ptr<core::EdgeLearnEnv> env;
  std::vector<std::vector<double>> prices;  // cycled through, one per step
};

// Builds the env, starts its episode and draws the price vectors. Price
// set k offers every node a fixed level (2% to 20% of its saturation
// price, rising with k) times a seeded per-node jitter, so participation
// is partial and every seed sees the same mix of market sizes.
Market set_up(const core::EnvConfig& cfg) {
  Market m;
  m.env = std::make_unique<core::EdgeLearnEnv>(cfg);
  m.env->reset();
  Rng rng(cfg.seed + 31);
  m.prices.assign(kPriceSets, std::vector<double>(kNodes));
  for (int k = 0; k < kPriceSets; ++k) {
    const double level = 0.02 + 0.18 * k / (kPriceSets - 1);
    auto& p = m.prices[static_cast<std::size_t>(k)];
    for (int i = 0; i < kNodes; ++i) {
      p[static_cast<std::size_t>(i)] =
          m.env->per_node_price_cap(i) * level * rng.uniform(0.5, 1.5);
    }
  }
  return m;
}

struct Totals {
  double payment = 0.0;  // Σ payment since reset
  double participants = 0.0;
  double delivered = 0.0;
  std::int64_t steps = 0;
  std::int64_t price_index = 0;  // restarted for the traced half
};

// One closed-loop step with the money invariants checked after it.
double step(Market& m, Totals& t, Checks& checks, Digest& digest,
            bool in_digest) {
  const auto& prices =
      m.prices[static_cast<std::size_t>(t.price_index++ % kPriceSets)];
  const std::int64_t t0 = now_ns();
  core::StepResult res;
  {
    Span span("core.step");
    res = m.env->step(prices);
  }
  const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
  ++t.steps;
  t.payment += res.payment;
  t.participants += res.participants;
  t.delivered += res.delivered;
  const core::EdgeLearnEnv& env = *m.env;
  const double budget = env.budget_initial();
  const double balance =
      env.budget_remaining() + t.payment + env.forfeited_total();
  const bool ok = !res.aborted && !res.done &&
                  std::abs(balance - budget) <= 1e-9 * budget &&
                  env.escrow_outstanding() == 0.0 &&
                  std::isfinite(res.accuracy) && std::isfinite(res.payment);
  std::ostringstream what;
  if (!ok) {
    what.precision(17);
    what << "step " << t.steps << ": aborted=" << res.aborted
         << " done=" << res.done << " budget_remaining+payments+forfeited="
         << balance << " budget=" << budget
         << " escrow=" << env.escrow_outstanding();
  }
  checks.item(ok, what.str());
  if (in_digest) {
    for (double v : {res.payment, res.round_time, res.accuracy, res.idle_time,
                     res.forfeited_total}) {
      digest.add(v);
    }
    for (int v : {res.participants, res.delivered, res.crashed, res.late,
                  res.flagged, res.departed}) {
      digest.add(static_cast<std::int64_t>(v));
    }
  }
  return ms;
}

}  // namespace

Report run_market(const Options& opt, bool strategic) {
  Report r;
  r.op_name = "step";
  const core::EnvConfig cfg = market_config(opt.seed, strategic);
  const int digest_steps =
      strategic ? kDigestStepsStrategic : kDigestStepsHonest;
  Market m;
  for (int i = 0; i < kSetups; ++i) {
    m = Market{};  // release the previous market before building the next
    const std::int64_t t0 = now_ns();
    m = set_up(cfg);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Totals t;
  Digest digest;
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  // Throughput is the median over slices of at least kSliceS, so a burst
  // of host interference moves it less than a whole-run mean.
  std::int64_t slice_t0 = now_ns();
  int slice_steps = 0;
  repeat_for(untraced_s, digest_steps, [&](int) {
    r.op_ms.push_back(
        step(m, t, r.checks, digest, t.steps < digest_steps));
    ++slice_steps;
    const double slice_s = static_cast<double>(now_ns() - slice_t0) * 1e-9;
    if (slice_s >= kSliceS) {
      r.unit_ops_per_s.push_back(slice_steps / slice_s);
      slice_t0 = now_ns();
      slice_steps = 0;
    }
  });
  if (r.unit_ops_per_s.empty()) {
    r.unit_ops_per_s.push_back(
        slice_steps / (static_cast<double>(now_ns() - slice_t0) * 1e-9));
  }
  const double steps = static_cast<double>(t.steps);
  const std::string prefix = strategic ? "market.strategic" : "market.honest";
  r.named.push_back({prefix + "_step_ms", "ms", median(r.op_ms)});
  r.named.push_back({"market.participants_mean", "count",
                     t.participants / steps});
  r.named.push_back({"market.delivered_frac", "1",
                     t.delivered / std::max(1.0, t.participants)});
  r.digest.push_back("first_" + std::to_string(digest_steps) +
                     "_steps=" + digest.hex());
  r.info["nodes"] = std::to_string(kNodes);
  r.info["steps"] = std::to_string(t.steps);

  if (!opt.trace) return r;

  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  reg.reset();
  reg.set_enabled(true);
  Tracer::instance().set_enabled(true);
  // The traced half replays the price sequence from its start, so its
  // median compares with the untraced one.
  t.price_index = 0;
  std::vector<double> traced_ms;
  Digest unused;
  repeat_for(opt.seconds / 2, 1, [&](int) {
    traced_ms.push_back(step(m, t, r.checks, unused, false));
  });
  Tracer::instance().set_enabled(false);
  reg.set_enabled(false);
  const MarketProbes p = probe_market(*m.env, m.prices[0]);

  double wall = 0.0;
  for (double ms : traced_ms) wall += ms * 1e-3;
  const double n = static_cast<double>(traced_ms.size());
  r.traced_wall_s = wall;
  r.untraced_op_ms = median(r.op_ms);
  r.traced_op_ms = median(traced_ms);
  if (strategic) {
    r.table = {{"faults.plan_round", p.faults_plan_round_ms * 1e-3 * n, true},
               {"adversary.plan_round", p.adversary_plan_round_ms * 1e-3 * n,
                true},
               {"sysmodel.realize_round", p.realize_round_ms * 1e-3 * n, true}};
  } else {
    r.table = {{"sysmodel.plane_round", p.plane_round_ms * 1e-3 * n, true}};
  }
  close_layer_table(r, wall);
  double rows_ms = 0.0;
  for (const LayerRow& row : r.table) {
    if (row.name != "residual") rows_ms += row.seconds * 1e3;
  }
  auto& L = r.layer;
  L["faults.plan_round_ms"] = p.faults_plan_round_ms;
  L["adversary.plan_round_ms"] = p.adversary_plan_round_ms;
  L["sysmodel.realize_round_ms"] = p.realize_round_ms;
  L["sysmodel.plane_round_ms"] = p.plane_round_ms;
  L["core.step_residual_ms"] = (wall * 1e3 - rows_ms) / n;
  L["market.participants_mean"] = t.participants / static_cast<double>(t.steps);
  L["market.delivered_frac"] = t.delivered / std::max(1.0, t.participants);
  return r;
}

}  // namespace perfbench
