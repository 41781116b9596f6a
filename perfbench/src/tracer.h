// Benchmark-side spans around the calls the workloads make into each
// layer. Off by default: a closed span costs two branch tests and no clock
// read. When on, every span is kept in memory (name, start, end, the span
// that enclosed it on the same thread) and summarised or written out as
// JSONL when the run ends.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  int name = 0;     // index into Tracer::names()
  int parent = -1;  // record index of the enclosing span (same thread)
  int thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct SpanTotal {
  double total_s = 0.0;
  std::uint64_t count = 0;
};

class Tracer {
 public:
  static Tracer& instance();
  ~Tracer();

  /// Serial-section switch: call while no traced thread is running.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Per-name totals over every thread's records.
  std::map<std::string, SpanTotal> totals() const;
  void write_jsonl(std::ostream& os) const;

  // Used by Span.
  int open(const char* name, std::int64_t start_ns);
  void close(int record, std::int64_t end_ns);

 private:
  struct ThreadLog;
  ThreadLog& local();

  Tracer() = default;

  bool enabled_ = false;
  std::vector<std::string> names_;
  // One per thread that traced; kept after the thread exits.
  std::vector<std::unique_ptr<ThreadLog>> logs_;
};

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int record_ = -1;
};

}  // namespace perfbench
