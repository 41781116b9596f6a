#include "adversary/defense.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"

namespace chiron::adversary {

namespace {
constexpr std::uint64_t kAuditTag = 0xD6E8FEB8u;
}  // namespace

void validate(const DefenseConfig& config) {
  CHIRON_CHECK_MSG(config.reserve_price >= 0.0,
                   "reserve_price must be >= 0, got " << config.reserve_price);
  CHIRON_CHECK_MSG(config.audit_prob >= 0.0 && config.audit_prob <= 1.0,
                   "audit_prob must be a probability, got "
                       << config.audit_prob);
  CHIRON_CHECK_MSG(config.audit_tolerance >= 1.0,
                   "audit_tolerance must be >= 1, got "
                       << config.audit_tolerance);
  CHIRON_CHECK_MSG(
      config.reputation_alpha >= 0.0 && config.reputation_alpha <= 1.0,
      "reputation_alpha must be in [0, 1], got " << config.reputation_alpha);
  CHIRON_CHECK_MSG(
      config.reputation_floor >= 0.0 && config.reputation_floor <= 1.0,
      "reputation_floor must be in [0, 1], got " << config.reputation_floor);
}

bool audit_fires(const DefenseConfig& config, int round, int node) {
  if (config.audit_prob <= 0.0) return false;
  CellRng rng(stream_seed(config.seed ^ kAuditTag, round, node));
  return rng.bernoulli(config.audit_prob);
}

sysmodel::DeviceProfile reported_profile(const sysmodel::DeviceProfile& device,
                                         double factor) {
  CHIRON_CHECK(factor >= 1.0);
  sysmodel::DeviceProfile reported = device;
  reported.capacitance *= factor;       // α̂ = f·α
  reported.reserve_utility *= factor;   // μ̂ = f·μ
  return reported;
}

double reported_floor_payment(const sysmodel::DeviceProfile& reported) {
  const double e_com = reported.comm_energy_rate * reported.comm_time;
  return 2.0 * (reported.reserve_utility + e_com);
}

ReputationLedger::ReputationLedger(const DefenseConfig& config, int num_nodes)
    : config_(config),
      reputation_(static_cast<std::size_t>(num_nodes), 1.0) {
  CHIRON_CHECK(num_nodes >= 1);
  validate(config_);
}

void ReputationLedger::reset() { reputation_.assign(reputation_.size(), 1.0); }

double ReputationLedger::weight(int node) const {
  if (config_.reputation_alpha <= 0.0) return 1.0;
  return std::max(reputation(node), config_.reputation_floor);
}

double ReputationLedger::reputation(int node) const {
  CHIRON_CHECK(node >= 0 && node < num_nodes());
  if (config_.reputation_alpha <= 0.0) return 1.0;
  return reputation_[static_cast<std::size_t>(node)];
}

void ReputationLedger::update(int node, double signal) {
  CHIRON_CHECK(node >= 0 && node < num_nodes());
  CHIRON_CHECK(signal >= 0.0 && signal <= 1.0);
  if (config_.reputation_alpha <= 0.0) return;
  double& r = reputation_[static_cast<std::size_t>(node)];
  r = (1.0 - config_.reputation_alpha) * r + config_.reputation_alpha * signal;
}

}  // namespace chiron::adversary
