#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <thread>

#include "runtime/parallel.h"
#include "runtime/runtime.h"

namespace chiron::obs {
namespace {

TEST(MetricsRegistry, DisabledRecordingIsANoOp) {
  MetricsRegistry reg;
  const int c = reg.counter("c");
  const int h = reg.histogram("h", {1.0, 10.0});
  reg.add(c, 5);
  reg.observe(h, 3.0);
  MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 1u);
  EXPECT_EQ(s.counters[0].value, 0u);
  ASSERT_EQ(s.histograms.size(), 1u);
  EXPECT_EQ(s.histograms[0].count, 0u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter("x"), reg.counter("x"));
  EXPECT_EQ(reg.gauge("g"), reg.gauge("g"));
  const int h = reg.histogram("h", {1.0, 2.0});
  // Re-registration keeps the original bounds.
  EXPECT_EQ(reg.histogram("h", {999.0}), h);
  reg.set_enabled(true);
  reg.observe(h, 1.5);
  MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.histograms[0].bounds.size(), 2u);
}

TEST(MetricsRegistry, CountersAccumulate) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const int c = reg.counter("steps");
  reg.add(c);
  reg.add(c, 9);
  MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counters[0].name, "steps");
  EXPECT_EQ(s.counters[0].value, 10u);
}

TEST(MetricsRegistry, GaugeIsLastWriteAndTracksSetState) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const int g = reg.gauge("budget");
  {
    MetricsSnapshot s = reg.snapshot();
    EXPECT_FALSE(s.gauges[0].set);
  }
  reg.set(g, 4.0);
  reg.set(g, 2.5);
  MetricsSnapshot s = reg.snapshot();
  EXPECT_TRUE(s.gauges[0].set);
  EXPECT_DOUBLE_EQ(s.gauges[0].value, 2.5);
}

TEST(MetricsRegistry, HistogramBucketsAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const int h = reg.histogram("h", {1.0, 10.0});
  for (double v : {0.5, 1.0, 1.5, 10.0, 11.0}) reg.observe(h, v);
  MetricsSnapshot s = reg.snapshot();
  const HistogramSnapshot& hist = s.histograms[0];
  ASSERT_EQ(hist.buckets.size(), 3u);  // bounds + overflow
  EXPECT_EQ(hist.buckets[0], 2u);      // 0.5, 1.0 (inclusive)
  EXPECT_EQ(hist.buckets[1], 2u);      // 1.5, 10.0
  EXPECT_EQ(hist.buckets[2], 1u);      // 11.0 overflow
  EXPECT_EQ(hist.count, 5u);
  EXPECT_DOUBLE_EQ(hist.sum, 24.0);
  EXPECT_DOUBLE_EQ(hist.min, 0.5);
  EXPECT_DOUBLE_EQ(hist.max, 11.0);
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  const int c = reg.counter("c");
  const int g = reg.gauge("g");
  const int h = reg.histogram("h", {5.0});
  reg.add(c, 3);
  reg.set(g, 1.0);
  reg.observe(h, 2.0);
  reg.reset();
  EXPECT_EQ(reg.counter("c"), c);
  MetricsSnapshot s = reg.snapshot();
  EXPECT_EQ(s.counters[0].value, 0u);
  EXPECT_FALSE(s.gauges[0].set);
  EXPECT_EQ(s.histograms[0].count, 0u);
  EXPECT_DOUBLE_EQ(s.histograms[0].sum, 0.0);
}

TEST(MetricsRegistry, SnapshotIsNameSorted) {
  MetricsRegistry reg;
  reg.counter("zeta");
  reg.counter("alpha");
  MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].name, "alpha");
  EXPECT_EQ(s.counters[1].name, "zeta");
}

// Records a fixed integer-valued workload from inside a parallel_for and
// returns the merged snapshot.
MetricsSnapshot parallel_workload(int threads) {
  runtime::set_threads(threads);
  MetricsRegistry reg;
  reg.set_enabled(true);
  const int c = reg.counter("work.items");
  const int h = reg.histogram("work.us", {10.0, 100.0, 1000.0});
  runtime::parallel_for(0, 10000, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      reg.add(c);
      // Integer-valued doubles keep the shard-merged sum exact.
      reg.observe(h, static_cast<double>((i * 37) % 2000));
    }
  });
  runtime::set_threads(0);
  return reg.snapshot();
}

TEST(MetricsRegistry, ParallelMergeIsThreadCountInvariant) {
  const MetricsSnapshot a = parallel_workload(1);
  const MetricsSnapshot b = parallel_workload(8);
  ASSERT_EQ(a.counters.size(), b.counters.size());
  EXPECT_EQ(a.counters[0].value, b.counters[0].value);
  EXPECT_EQ(a.counters[0].value, 10000u);
  const HistogramSnapshot& ha = a.histograms[0];
  const HistogramSnapshot& hb = b.histograms[0];
  EXPECT_EQ(ha.buckets, hb.buckets);
  EXPECT_EQ(ha.count, hb.count);
  EXPECT_EQ(ha.sum, hb.sum);  // bit-identical, not just close
  EXPECT_EQ(ha.min, hb.min);
  EXPECT_EQ(ha.max, hb.max);
}

TEST(MetricsRegistry, RegisteringWhileObservingIsRaceFree) {
  // Registration grows the registry's bounds table while other threads
  // observe — both an already-seen histogram and ones they register
  // mid-run. Run under TSan (tools/check_tsan.sh) this is the race check;
  // here it checks that no observation is lost or misbucketed.
  MetricsRegistry reg;
  reg.set_enabled(true);
  const int h = reg.histogram("observed", {0.0, 1.0, 2.0});
  constexpr int kObservers = 3;
  constexpr int kObservations = 20000;
  constexpr int kRegistrations = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kObservers; ++t) {
    threads.emplace_back([&reg, h, t] {
      for (int i = 0; i < kObservations; ++i) {
        reg.observe(h, static_cast<double>(i % 4));
        if (i % 100 == 0) {
          const int fresh = reg.histogram(
              "obs." + std::to_string(t) + "." + std::to_string(i), {5.0});
          reg.observe(fresh, 7.0);
        }
      }
    });
  }
  threads.emplace_back([&reg] {
    for (int i = 0; i < kRegistrations; ++i)
      reg.histogram("reg." + std::to_string(i), {0.5, 1.5});
  });
  for (std::thread& t : threads) t.join();

  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.histograms.size(),
            1u + kRegistrations + kObservers * (kObservations / 100));
  for (const HistogramSnapshot& hs : s.histograms) {
    if (hs.name == "observed") {
      EXPECT_EQ(hs.count, std::uint64_t{kObservers} * kObservations);
      const std::uint64_t quarter = kObservers * kObservations / 4;
      EXPECT_EQ(hs.buckets,
                (std::vector<std::uint64_t>{quarter, quarter, quarter,
                                            quarter}));
    } else if (hs.name.rfind("obs.", 0) == 0) {
      EXPECT_EQ(hs.count, 1u);
      EXPECT_EQ(hs.buckets, (std::vector<std::uint64_t>{0, 1}));
    } else {
      EXPECT_EQ(hs.count, 0u);
    }
  }
}

TEST(MetricsRegistry, WriteJsonEmitsSortedGroups) {
  MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(reg.counter("c"), 2);
  reg.set(reg.gauge("g"), 1.5);
  reg.observe(reg.histogram("h", {1.0}), 0.5);
  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"counters\":{\"c\":2}"), std::string::npos) << text;
  EXPECT_NE(text.find("\"g\":1.5"), std::string::npos) << text;
  EXPECT_NE(text.find("\"h\":{"), std::string::npos) << text;
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace chiron::obs
