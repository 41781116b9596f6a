// Self-tests of the benchmark's own helpers: order statistics, the
// open-loop due-time schedule, the rate search, the output digest and the
// layer-table closure. Built as perfbench_selftest; run.py runs it before
// every workload and stops on a failure.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "util.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * (1 + std::abs(b)); }

void test_quantile() {
  expect(near(median({3, 1, 2}), 2), "median of odd sample");
  expect(near(median({4, 1, 3, 2}), 2.5), "median of even sample interpolates");
  expect(near(quantile({1, 2, 3, 4, 5}, 0.0), 1), "q=0 is the minimum");
  expect(near(quantile({1, 2, 3, 4, 5}, 1.0), 5), "q=1 is the maximum");
  expect(near(quantile({10, 20}, 0.25), 12.5), "linear interpolation");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  expect(near(quantile(v, 0.99), 100), "p99 of 1..101");
  expect(near(median({7}), 7), "median of one sample");
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "quantile of an empty sample throws");
}

void test_tail_percentile() {
  expect(tail_percentile(19) == 0.0, "19 samples: no percentile has 10 beyond");
  expect(tail_percentile(20) == 50.0, "20 samples: the median");
  expect(tail_percentile(100) == 90.0, "100 samples: p90");
  expect(tail_percentile(999) == 90.0, "999 samples: p99 has 9.99 beyond");
  expect(tail_percentile(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile(100000) == 99.99, "1e5 samples: p99.99");
}

void test_schedule() {
  const DueSchedule s{1000, 20000.0};
  expect(s.due_ns(0) == 1000, "first request due at start");
  expect(s.due_ns(1) == 1000 + 50000, "20k/s is one request per 50 us");
  expect(s.due_ns(20000) == 1000 + 1'000'000'000, "20k requests span 1 s");
  expect(s.count_for(1.0) == 20000, "1 s at 20k/s is 20000 requests");
  const DueSchedule odd{0, 3.0};
  expect(odd.due_ns(1) == 333'333'333, "due times round to the nanosecond");
  expect(odd.count_for(1.0) == 3, "count_for does not round up exact counts");
  expect(odd.count_for(1.1) == 4, "count_for covers a partial interval");
  // Due times depend only on the index, never on when the caller asks.
  bool monotonic = true;
  for (std::uint64_t i = 1; i < 1000; ++i) {
    monotonic = monotonic && s.due_ns(i) > s.due_ns(i - 1);
  }
  expect(monotonic, "due times strictly increase");
}

void test_rate_search() {
  auto limit = [](double knee) {
    return [knee](double rate) { return rate <= knee; };
  };
  RateSearchResult r = step_up_search(1000, 2.0, 1e9, 1, 0, limit(5000));
  expect(near(r.max_ok, 4000), "step-up stops at the last passing rate");
  expect(r.probes.size() == 4, "1k, 2k, 4k pass, 8k fails");
  expect(!r.probes.back().ok && near(r.probes.back().offered, 8000),
         "the failing probe is recorded");

  r = step_up_search(1000, 2.0, 1e9, 1, 6, limit(5000));
  expect(r.max_ok <= 5000 && r.max_ok > 4900, "bisection closes in on the knee");
  expect(r.probes.size() == 10, "4 step-up probes then 6 bisections");

  r = step_up_search(1000, 2.0, 1e9, 1, 0, limit(300));
  expect(near(r.max_ok, 250), "a failing start steps down");

  r = step_up_search(1000, 2.0, 1e9, 100, 3, limit(10));
  expect(r.max_ok == 0.0, "nothing passes above the floor");

  r = step_up_search(1000, 2.0, 8000, 1, 3, limit(1e12));
  expect(near(r.max_ok, 8000), "the cap ends the step-up");
}

void test_digest() {
  Digest a, b;
  a.add(1.0);
  a.add(std::int64_t{2});
  a.add("three");
  b.add(1.0);
  b.add(std::int64_t{2});
  b.add("three");
  expect(a.value() == b.value(), "equal inputs give equal digests");
  expect(a.hex().size() == 16, "hex digest is 16 digits");
  Digest c;
  c.add(1.0 + 1e-15);
  Digest d;
  d.add(1.0);
  expect(c.value() != d.value(), "a one-ulp change changes the digest");
  Digest e, f;
  e.add("ab");
  e.add("c");
  f.add("a");
  f.add("bc");
  expect(e.value() != f.value(), "strings are length-delimited");
  Digest empty;
  expect(empty.hex() == "cbf29ce484222325", "FNV-1a offset basis");
  Digest fa;
  fa.bytes("a", 1);
  expect(fa.hex() == "af63dc4c8601ec8c", "FNV-1a of \"a\"");
}

void test_layer_table() {
  Report r;
  r.table = {{"a", 2.0, false}, {"b", 1.0, true}};
  close_layer_table(r, 4.0);
  expect(r.table.back().name == "residual" && near(r.table.back().seconds, 1.0),
         "the residual closes the table");
  expect(r.checks.failed() == 0, "rows within the wall pass");
  Report over;
  over.table = {{"a", 4.3, false}};
  close_layer_table(over, 4.0);
  expect(over.checks.failed() == 1, "rows over the wall by more than 5% fail");
}

void test_json() {
  expect(json_string("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "json escapes");
  expect(json_number(0.1) == "0.10000000000000001", "17 significant digits");
  expect(json_number(NAN) == "null", "non-finite numbers are null");
}

}  // namespace

int main() {
  test_quantile();
  test_tail_percentile();
  test_schedule();
  test_rate_search();
  test_digest();
  test_layer_table();
  test_json();
  if (g_failures == 0) std::fprintf(stderr, "perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
