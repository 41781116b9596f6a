// MetricsRegistry — named counters, gauges and fixed-bucket histograms
// for round-level observability (DESIGN.md §5.9).
//
// Design constraints, in order:
//   1. Hot-path recording must be lock-free: add()/observe() write to a
//      per-thread shard reached through a thread-local cache, so spans and
//      counters inside runtime::parallel_for bodies never contend.
//   2. Aggregates must obey the determinism contract. Counter values and
//      histogram bucket/count/min/max aggregates are order-independent
//      exactly (integer sums, min/max), so they are bit-identical at any
//      --threads. Histogram `sum` is a double; it is order-independent
//      only when the observed values are integer-valued (Span observes
//      whole microseconds for precisely this reason). Gauges are
//      registry-level last-write values for serial sections.
//   3. Disabled must be ~free: every record call starts with one relaxed
//      bool test, so compiling observability in costs nothing when off.
//
// Threading protocol (mirrors runtime::set_threads): set_enabled,
// snapshot and reset are serial-section operations — call them while no
// parallel work is in flight. Registration takes the registry mutex and
// may run while other threads record. Recording may happen on any
// thread; the join at the end of every parallel_for provides the
// happens-before edge that makes a subsequent snapshot race-free.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chiron::obs {

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
  bool set = false;  // false until the first set() — value is meaningless
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          // ascending upper bounds (inclusive)
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // valid only when count > 0
  double max = 0.0;
};

/// A merged, name-sorted view of every registered metric.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every instrument in src/ records into.
  /// Tests may build private instances; ids are per-instance.
  static MetricsRegistry& instance();

  /// Master switch (default off). While disabled every record call is a
  /// single branch; registration still works so ids can be cached early.
  /// Serial-section operation.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Registers (or looks up) a metric and returns its id. Idempotent for
  /// a given name; a histogram re-registered with different bounds keeps
  /// the original bounds. Serial-section (or pre-parallel) operations.
  int counter(const std::string& name);
  int gauge(const std::string& name);
  /// `bounds` are ascending inclusive upper bounds; an implicit overflow
  /// bucket catches everything above the last bound.
  int histogram(const std::string& name, std::vector<double> bounds);

  /// Hot-path recording (lock-free; any thread). No-ops while disabled.
  void add(int counter_id, std::uint64_t n = 1);
  void observe(int histogram_id, double v);
  /// Gauge writes take the registry mutex — serial/cold sections only.
  void set(int gauge_id, double v);

  /// Merged view across all per-thread shards, name-sorted.
  MetricsSnapshot snapshot() const;

  /// Zeroes every value; registrations (names, ids, bounds) survive.
  void reset();

  /// snapshot() as one pretty-stable JSON object (sorted keys).
  void write_json(std::ostream& os) const;

 private:
  struct HistShard {
    // The histogram's bounds, copied from hist_bounds_ under mu_ on this
    // shard's first observe: hist_bounds_ may reallocate while another
    // thread registers a histogram, so the hot path never reads it.
    std::vector<double> bounds;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  struct Shard {
    // Lazily grown by the owning thread only; read by snapshot() after
    // the parallel section's join.
    std::vector<std::uint64_t> counters;
    std::vector<HistShard> hists;
  };

  Shard& local_shard();

  const std::uint64_t uid_;  // process-unique; keys the thread-local cache
  bool enabled_ = false;

  mutable std::mutex mu_;  // registration, gauges, snapshot/reset
  std::map<std::string, int> counter_ids_;
  std::map<std::string, int> gauge_ids_;
  std::map<std::string, int> hist_ids_;
  std::vector<std::vector<double>> hist_bounds_;  // by histogram id
  std::vector<std::pair<double, bool>> gauges_;   // value, ever-set
  std::vector<std::unique_ptr<Shard>> shards_;    // one per recording thread
};

}  // namespace chiron::obs
