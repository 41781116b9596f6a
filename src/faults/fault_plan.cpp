#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "runtime/parallel.h"

namespace chiron::faults {

namespace {

// Nodes per parallel chunk: one cell costs well under a microsecond, so
// a chunk is about a millisecond of work.
constexpr std::int64_t kPlanGrain = 2048;

void check_prob(double p, const char* name) {
  CHIRON_CHECK_MSG(p >= 0.0 && p <= 1.0,
                   name << " must be a probability, got " << p);
}

}  // namespace

FaultPlan::FaultPlan(const FaultConfig& config, int num_nodes)
    : config_(config), down_(static_cast<std::size_t>(num_nodes), 0) {
  CHIRON_CHECK(num_nodes >= 1);
  check_prob(config_.crash_prob, "crash_prob");
  check_prob(config_.straggler_prob, "straggler_prob");
  check_prob(config_.corrupt_prob, "corrupt_prob");
  check_prob(config_.persistent_prob, "persistent_prob");
  CHIRON_CHECK_MSG(config_.straggler_min >= 1.0 &&
                       config_.straggler_max >= config_.straggler_min,
                   "straggler factor range [" << config_.straggler_min << ", "
                                              << config_.straggler_max
                                              << "] invalid");
}

void FaultPlan::reset() { down_.assign(down_.size(), 0); }

std::vector<FaultEvent> FaultPlan::plan_round(int round) {
  CHIRON_CHECK(round >= 0);
  std::vector<FaultEvent> events(down_.size());
  runtime::parallel_for(
      0, static_cast<std::int64_t>(down_.size()),
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t n = lo; n < hi; ++n) {
          const std::size_t i = static_cast<std::size_t>(n);
          FaultEvent& e = events[i];
          if (down_[i]) {
            e.down = true;
            continue;
          }
          // Each (round, node) cell gets its own stream: the draw is
          // identical whether or not other nodes / rounds consumed theirs.
          CellRng rng(stream_seed(config_.seed, round, static_cast<int>(n)));
          if (rng.bernoulli(config_.crash_prob)) {
            e.crash = true;
            if (rng.bernoulli(config_.persistent_prob)) down_[i] = 1;
          } else if (rng.bernoulli(config_.straggler_prob)) {
            e.slowdown =
                rng.uniform(config_.straggler_min, config_.straggler_max);
          } else if (rng.bernoulli(config_.corrupt_prob)) {
            e.corruption = rng.bernoulli(0.5) ? Corruption::kNaN
                                              : Corruption::kNormBlowup;
          }
        }
      },
      kPlanGrain);
  return events;
}

int FaultPlan::down_count() const {
  return static_cast<int>(std::count(down_.begin(), down_.end(), 1));
}

void corrupt_upload(std::vector<float>& upload, Corruption mode) {
  if (mode == Corruption::kNone || upload.empty()) return;
  // Every 7th entry starting at 0 — enough damage that no validation can
  // miss it, deterministic so replays are exact.
  constexpr std::size_t kStride = 7;
  if (mode == Corruption::kNaN) {
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (std::size_t i = 0; i < upload.size(); i += kStride) upload[i] = nan;
  } else {
    for (std::size_t i = 0; i < upload.size(); i += kStride)
      upload[i] += 1e12f;
  }
}

bool upload_is_valid(const std::vector<float>& upload, double norm_bound) {
  double sq = 0.0;
  for (float v : upload) {
    if (!std::isfinite(v)) return false;
    sq += static_cast<double>(v) * static_cast<double>(v);
  }
  return norm_bound <= 0.0 || std::sqrt(sq) <= norm_bound;
}

}  // namespace chiron::faults
