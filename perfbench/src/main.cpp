// perfbench — the end-to-end benchmark of chiron.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Runs one workload (see workloads below) for about S seconds, checks its
// outputs, prints its metrics in a table, and prints one JSON result as
// the last line of stdout. --trace 1 makes a traced run instead: half the
// time untraced, half traced, then the layer table, per-layer metrics and
// the tracing overhead. Exits non-zero when any check failed, and refuses
// to run from a build that is not a release build.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "runtime/pipeline.h"
#include "runtime/runtime.h"
#include "tracer.h"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Workload-independent end-to-end metrics: what one operation is depends
// on the workload (an episode, a request or a market step).
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"fl.local_train_s", "s"},
    {"fl.aggregate_s", "s"},
    {"fl.evaluate_s", "s"},
    {"fl.local_train_calls", "count"},
    {"nn.mlp_step_us", "us"},
    {"rl.ppo_update_s", "s"},
    {"rl.ppo_updates", "count"},
    {"rl.act_us.exterior", "us"},
    {"rl.act_us.inner", "us"},
    {"rl.gae_us", "us"},
    {"core.round_s", "s"},
    {"core.rounds", "count"},
    {"core.rounds_aborted", "count"},
    {"core.residual_s", "s"},
    {"serve.batch_size_mean", "count"},
    {"serve.batch_us", "us"},
    {"serve.submit_us", "us"},
    {"serve.codec_us", "us"},
    {"serve.reload_us", "us"},
    {"serve.price_batch_us.b1", "us"},
    {"serve.price_batch_us.b32", "us"},
    {"serve.worker_busy_frac", "ratio"},
    {"gen.lateness_us", "us"},
    {"faults.plan_round_ms", "ms"},
    {"adversary.plan_round_ms", "ms"},
    {"sysmodel.realize_round_ms", "ms"},
    {"sysmodel.plane_round_ms", "ms"},
    {"core.step_residual_ms", "ms"},
    {"market.participants_mean", "count"},
    {"market.delivered_frac", "ratio"},
    {"table.residual_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out PATH]\n";
  std::exit(2);
}

Report run(const Options& opt) {
  const std::string& w = opt.workload;
  if (w == "train_blobs") return run_train_blobs(opt);
  if (w == "sweep_surrogate") return run_sweep_surrogate(opt);
  if (w == "serve_1k") return run_serve(opt, 1000.0, false);
  if (w == "serve_20k") return run_serve(opt, 20000.0, true);
  if (w == "market_honest") return run_market(opt, false);
  if (w == "market_strategic") return run_market(opt, true);
  usage("unknown workload '" + w + "'");
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

void row(const std::string& name, const std::string& value,
         const std::string& unit) {
  std::printf("  %-34s %16s  %s\n", name.c_str(), value.c_str(), unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string trace_out;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
        have_seconds = opt.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  const HostInfo host = host_info();
  if (!is_release_build(host.build_type)) {
    std::cerr << "perfbench: refusing to record results from a '"
              << host.build_type << "' build; build with "
              << "-DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  opt.nproc = host.nproc;
  opt.threads = host.nproc;
  chiron::runtime::set_threads(opt.threads);
  chiron::runtime::set_pipeline(false);

  Report r;
  try {
    r = run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload " << opt.workload << " threw: "
              << e.what() << "\n";
    return 1;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host nproc=%d cpu=\"%s\" build=%s runtime_pool_threads=%d\n",
              host.nproc, host.cpu_model.c_str(), host.build_type.c_str(),
              opt.threads);
  for (const auto& [k, v] : r.info) std::printf("  %s=%s\n", k.c_str(), v.c_str());

  if (r.op_ms.empty() || r.unit_ops_per_s.empty() || r.setup_s.empty()) {
    r.checks.item(false, "workload measured no operation");
  }
  std::map<std::string, double> e2e;
  if (!r.op_ms.empty()) {
    e2e["ops_per_s"] = median(r.unit_ops_per_s);
    e2e["op_p50_ms"] = median(r.op_ms);
    e2e["setup_s"] = median(r.setup_s);
  }
  e2e["peak_rss_mb"] = peak_rss_mb();
  const double error_rate =
      r.checks.attempted() == 0
          ? 1.0
          : static_cast<double>(r.checks.failed()) /
                static_cast<double>(r.checks.attempted());

  std::printf("end-to-end (%s = one operation; timings are medians)\n",
              r.op_name.c_str());
  for (const NamedMetric& m : r.named) row(m.name, fmt(m.value), m.unit);
  for (const MetricDef& m : kEndToEnd) row(m.name, fmt(e2e[m.name]), m.unit);
  if (!r.op_ms.empty()) {
    row("op_p90_ms", fmt(quantile(r.op_ms, 0.90)), "ms");
    row("op_p99_ms", fmt(quantile(r.op_ms, 0.99)), "ms");
    const double p = tail_percentile(r.op_ms.size());
    if (p > 99.0) {
      row("op_p" + fmt(p) + "_ms", fmt(quantile(r.op_ms, p / 100.0)),
          "ms (highest percentile with >= 10 samples beyond it)");
    }
    row("op_samples", std::to_string(r.op_ms.size()), "count");
  }
  row("error_rate", fmt(error_rate),
      std::to_string(r.checks.failed()) + " failed of " +
          std::to_string(r.checks.attempted()) + " checked");
  for (const std::string& m : r.checks.messages()) {
    std::printf("  FAILED: %s\n", m.c_str());
  }
  std::printf("digest\n");
  for (const std::string& d : r.digest) std::printf("  %s\n", d.c_str());

  std::map<std::string, double> layer;
  if (opt.trace) {
    std::printf("layer table (traced wall %.6g s)\n", r.traced_wall_s);
    for (const LayerRow& l : r.table) {
      std::printf("  %-44s %12.6g s  %6.2f%%%s\n", l.name.c_str(), l.seconds,
                  r.traced_wall_s > 0 ? 100.0 * l.seconds / r.traced_wall_s : 0.0,
                  l.estimate ? "  (estimate from probe)" : "");
    }
    const double overhead = r.traced_op_ms - r.untraced_op_ms;
    r.layer["trace.overhead_frac"] =
        r.untraced_op_ms > 0.0 ? overhead / r.untraced_op_ms : 0.0;
    std::printf("tracing overhead: median op %.6g ms traced - %.6g ms "
                "untraced = %.6g ms\n",
                r.traced_op_ms, r.untraced_op_ms, overhead);
    std::printf("per-layer\n");
    for (const MetricDef& m : kPerLayer) {
      auto it = r.layer.find(m.name);
      layer[m.name] = it == r.layer.end() ? 0.0 : it->second;
      row(m.name, fmt(layer[m.name]), m.unit);
    }
    if (!trace_out.empty()) {
      std::ofstream out(trace_out, std::ios::trunc);
      Tracer::instance().write_jsonl(out);
    }
  }

  const bool correct = r.checks.failed() == 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.checks.attempted()) +
                     ", \"failed\": " + std::to_string(r.checks.failed()) +
                     ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m, double v) {
    json += std::string(first ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + json_number(v) +
            ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) emit(m, layer[m.name]);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  json += "}}";
  std::fflush(stdout);
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
