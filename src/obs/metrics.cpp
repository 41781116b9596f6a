#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <utility>

#include "common/error.h"
#include "obs/json.h"

namespace chiron::obs {

namespace {

// Process-unique registry ids so the per-thread shard cache can never
// confuse a new registry allocated at a dead one's address.
std::uint64_t next_uid() {
  static std::mutex mu;
  static std::uint64_t n = 0;
  std::lock_guard<std::mutex> lock(mu);
  return ++n;
}

}  // namespace

MetricsRegistry::MetricsRegistry() : uid_(next_uid()) {}
MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  // One cache per thread, keyed by registry uid. Entries for destroyed
  // registries are unreachable (uids are never reused), so a stale
  // pointer can never be dereferenced.
  thread_local std::vector<std::pair<std::uint64_t, Shard*>> cache;
  for (const auto& e : cache) {
    if (e.first == uid_) return *e.second;
  }
  std::lock_guard<std::mutex> lock(mu_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* s = shards_.back().get();
  cache.emplace_back(uid_, s);
  return *s;
}

int MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counter_ids_.find(name);
  if (it != counter_ids_.end()) return it->second;
  const int id = static_cast<int>(counter_ids_.size());
  counter_ids_.emplace(name, id);
  return id;
}

int MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauge_ids_.find(name);
  if (it != gauge_ids_.end()) return it->second;
  const int id = static_cast<int>(gauge_ids_.size());
  gauge_ids_.emplace(name, id);
  gauges_.emplace_back(0.0, false);
  return id;
}

int MetricsRegistry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  CHIRON_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                   "histogram '" << name << "' bounds must be ascending");
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hist_ids_.find(name);
  if (it != hist_ids_.end()) return it->second;
  const int id = static_cast<int>(hist_ids_.size());
  hist_ids_.emplace(name, id);
  hist_bounds_.push_back(std::move(bounds));
  return id;
}

void MetricsRegistry::add(int counter_id, std::uint64_t n) {
  if (!enabled_) return;
  Shard& s = local_shard();
  const std::size_t id = static_cast<std::size_t>(counter_id);
  if (id >= s.counters.size()) s.counters.resize(id + 1, 0);
  s.counters[id] += n;
}

void MetricsRegistry::observe(int histogram_id, double v) {
  if (!enabled_) return;
  Shard& s = local_shard();
  const std::size_t id = static_cast<std::size_t>(histogram_id);
  if (id >= s.hists.size()) s.hists.resize(id + 1);
  HistShard& h = s.hists[id];
  if (h.buckets.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    h.bounds = hist_bounds_[id];
    h.buckets.assign(h.bounds.size() + 1, 0);
  }
  const std::size_t b = static_cast<std::size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), v) -
      h.bounds.begin());
  ++h.buckets[b];
  if (h.count == 0) {
    h.min = v;
    h.max = v;
  } else {
    h.min = std::min(h.min, v);
    h.max = std::max(h.max, v);
  }
  ++h.count;
  h.sum += v;
}

void MetricsRegistry::set(int gauge_id, double v) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[static_cast<std::size_t>(gauge_id)] = {v, true};
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // std::map iteration gives name order; integer merges are
  // order-independent, so shard creation order never shows.
  for (const auto& [name, id] : counter_ids_) {
    CounterSnapshot c;
    c.name = name;
    for (const auto& s : shards_) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (i < s->counters.size()) c.value += s->counters[i];
    }
    snap.counters.push_back(std::move(c));
  }
  for (const auto& [name, id] : gauge_ids_) {
    GaugeSnapshot g;
    g.name = name;
    g.value = gauges_[static_cast<std::size_t>(id)].first;
    g.set = gauges_[static_cast<std::size_t>(id)].second;
    snap.gauges.push_back(std::move(g));
  }
  for (const auto& [name, id] : hist_ids_) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = hist_bounds_[static_cast<std::size_t>(id)];
    h.buckets.assign(h.bounds.size() + 1, 0);
    for (const auto& s : shards_) {
      const std::size_t i = static_cast<std::size_t>(id);
      if (i >= s->hists.size()) continue;
      const HistShard& hs = s->hists[i];
      if (hs.count == 0) continue;
      for (std::size_t b = 0; b < hs.buckets.size(); ++b)
        h.buckets[b] += hs.buckets[b];
      if (h.count == 0) {
        h.min = hs.min;
        h.max = hs.max;
      } else {
        h.min = std::min(h.min, hs.min);
        h.max = std::max(h.max, hs.max);
      }
      h.count += hs.count;
      h.sum += hs.sum;
    }
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& g : gauges_) g = {0.0, false};
  for (const auto& s : shards_) {
    std::fill(s->counters.begin(), s->counters.end(), 0);
    for (auto& h : s->hists) {
      std::fill(h.buckets.begin(), h.buckets.end(), 0);
      h.count = 0;
      h.sum = 0.0;
      h.min = 0.0;
      h.max = 0.0;
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  os << "{\"counters\":{";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(snap.counters[i].name)
       << "\":" << json_number(snap.counters[i].value);
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i) os << ',';
    os << '"' << json_escape(snap.gauges[i].name) << "\":";
    if (snap.gauges[i].set) {
      os << json_number(snap.gauges[i].value);
    } else {
      os << "null";
    }
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    if (i) os << ',';
    os << '"' << json_escape(h.name) << "\":{\"bounds\":"
       << json_array(h.bounds) << ",\"buckets\":" << json_array(h.buckets)
       << ",\"count\":" << json_number(h.count)
       << ",\"sum\":" << json_number(h.sum)
       << ",\"min\":" << json_number(h.min)
       << ",\"max\":" << json_number(h.max) << '}';
  }
  os << "}}\n";
}

}  // namespace chiron::obs
