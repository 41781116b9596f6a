// Helpers shared by the benchmark's workloads: order statistics, the
// open-loop due-time schedule, the step-up rate search, an output digest,
// host/build identification and a minimal JSON writer. Everything here is
// pure or reads only process state, so tests/selftest.cpp pins it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
/// Requires a non-empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has at
/// least ten samples beyond it in a sample of `n`; 0 when even the median
/// has fewer than ten beyond it.
double tail_percentile(std::size_t n);

/// Open-loop send schedule: request i is due at start + i / rate. The due
/// time, not the moment the generator got round to sending, is what a
/// request's latency is measured from.
struct DueSchedule {
  std::int64_t start_ns = 0;
  double rate_per_s = 1.0;
  std::int64_t due_ns(std::uint64_t i) const;
  /// Number of requests due in [start, start + seconds).
  std::uint64_t count_for(double seconds) const;
};

/// Step-up search for the highest offered rate that `meets` accepts.
/// Starts at `start`; while a rate passes it multiplies by `factor`
/// (stopping at `cap`); if `start` fails it divides instead, down to
/// `floor`. Then `refine_steps` geometric bisections between the last pass
/// and the first failure. Returns the highest passing rate (0 if none) and
/// every probe made, in order.
struct RateProbe {
  double offered = 0.0;
  bool ok = false;
};
struct RateSearchResult {
  double max_ok = 0.0;
  std::vector<RateProbe> probes;
};
RateSearchResult step_up_search(double start, double factor, double cap,
                                double floor, int refine_steps,
                                const std::function<bool(double)>& meets);

/// FNV-1a (64-bit) over the exact bytes of the values added, so two runs
/// with the same digest produced bit-identical outputs.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void add(double v);
  void add(std::int64_t v);
  void add(std::string_view s);
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

/// Steady-clock nanoseconds since an arbitrary process-local epoch.
std::int64_t now_ns();

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

struct HostInfo {
  int nproc = 1;
  std::string cpu_model;
  std::string build_type;
};
HostInfo host_info();

/// True for the build types whose numbers may be recorded.
bool is_release_build(std::string_view build_type);

/// JSON string literal (quotes included) with the mandatory escapes.
std::string json_string(std::string_view s);
/// A finite double with all 17 significant digits.
std::string json_number(double v);

}  // namespace perfbench
