#include "util.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double tail_percentile(std::size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= 10.0) best = p;
  }
  return best;
}

std::int64_t DueSchedule::due_ns(std::uint64_t i) const {
  return start_ns +
         static_cast<std::int64_t>(std::llround(static_cast<double>(i) * 1e9 /
                                                rate_per_s));
}

std::uint64_t DueSchedule::count_for(double seconds) const {
  return static_cast<std::uint64_t>(std::ceil(seconds * rate_per_s - 1e-9));
}

RateSearchResult step_up_search(double start, double factor, double cap,
                                double floor, int refine_steps,
                                const std::function<bool(double)>& meets) {
  RateSearchResult r;
  auto probe = [&](double rate) {
    const bool ok = meets(rate);
    r.probes.push_back({rate, ok});
    return ok;
  };
  double pass = 0.0;
  double fail = 0.0;
  if (probe(start)) {
    pass = start;
    for (double rate = start * factor; rate <= cap; rate *= factor) {
      if (!probe(rate)) {
        fail = rate;
        break;
      }
      pass = rate;
    }
  } else {
    fail = start;
    for (double rate = start / factor; rate >= floor; rate /= factor) {
      if (probe(rate)) {
        pass = rate;
        break;
      }
      fail = rate;
    }
  }
  if (pass > 0.0 && fail > 0.0) {
    for (int i = 0; i < refine_steps; ++i) {
      const double mid = std::sqrt(pass * fail);
      if (probe(mid)) {
        pass = mid;
      } else {
        fail = mid;
      }
    }
  }
  r.max_ok = pass;
  return r;
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add(double v) { bytes(&v, sizeof v); }
void Digest::add(std::int64_t v) { bytes(&v, sizeof v); }
void Digest::add(std::string_view s) {
  add(static_cast<std::int64_t>(s.size()));
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives execve, so it would report
  // the parent process's footprint whenever that was larger.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

HostInfo host_info() {
  HostInfo h;
  h.nproc = static_cast<int>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(" \t", colon + 1));
      }
      break;
    }
  }
  if (h.cpu_model.empty()) h.cpu_model = "unknown";
#ifdef PERFBENCH_BUILD_TYPE
  h.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifndef NDEBUG
  h.build_type += "+assertions";
#endif
  return h;
}

bool is_release_build(std::string_view build_type) {
  return build_type == "Release" || build_type == "RelWithDebInfo";
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
