// The workload interface: what each workload measures and hands back to
// main.cpp, which turns it into the printed tables and the result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;  // runtime pool size: nproc, recorded
  int nproc = 1;
};

/// Correctness checks. Every operation the workload performs is one
/// attempted item; an item fails when any check on it fails. Checks on a
/// whole repetition (determinism, layer-table closure) are items too.
class Checks {
 public:
  /// One attempted item; `ok` false counts it as failed and keeps `what`.
  void item(bool ok, const std::string& what);
  /// `n` attempted items of which `failed` failed, all for reason `what`.
  void items(std::uint64_t n, std::uint64_t failed, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;  // first few failures only
};

/// A metric in the workload's own vocabulary (train.episodes_per_s,
/// serve.p99_us.r20k, ...), printed beside the result line.
struct NamedMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One row of a traced run's layer table; rows plus `residual` partition
/// the traced wall time. Probe-derived rows are estimates.
struct LayerRow {
  std::string name;
  double seconds = 0.0;
  bool estimate = false;
};

struct Report {
  // Untraced measurement.
  std::vector<double> op_ms;           // latency of every operation
  std::vector<double> unit_ops_per_s;  // throughput of each repetition
  std::vector<double> setup_s;         // each set-up performed
  std::string op_name;                 // what one operation is
  std::vector<NamedMetric> named;
  std::vector<std::string> digest;  // "label=value" lines of outputs
  std::map<std::string, std::string> info;  // thread counts, sizes, ...
  Checks checks;

  // Traced run only.
  double traced_wall_s = 0.0;
  double untraced_op_ms = 0.0;  // median op latency, tracing off
  double traced_op_ms = 0.0;    // median op latency, tracing on
  std::vector<LayerRow> table;
  std::map<std::string, double> layer;  // per-layer metric values
};

Report run_train_blobs(const Options& opt);
Report run_sweep_surrogate(const Options& opt);
/// Open loop at `rate_per_s`; with `find_max` the second half of the run
/// searches for the highest rate that meets the latency limit.
Report run_serve(const Options& opt, double rate_per_s, bool find_max);
Report run_market(const Options& opt, bool strategic);

/// Closes a traced layer table: appends the residual row (wall minus the
/// rows) and checks that the rows do not cover more than the wall by over
/// 5%, which would mean they overlap.
void close_layer_table(Report& r, double wall_s);

/// Runs `unit` repeatedly until `seconds` have passed (at least
/// `min_units` times) and returns how many times it ran.
template <typename F>
int repeat_for(double seconds, int min_units, F&& unit) {
  const std::int64_t t0 = now_ns();
  int n = 0;
  while (n < min_units || static_cast<double>(now_ns() - t0) * 1e-9 < seconds) {
    unit(n);
    ++n;
  }
  return n;
}

}  // namespace perfbench
