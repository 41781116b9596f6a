#include "tracer.h"

#include <mutex>
#include <ostream>

#include "util.h"

namespace perfbench {

namespace {
std::mutex g_mu;  // guards Tracer::names_ and Tracer::logs_
}  // namespace

struct Tracer::ThreadLog {
  int thread = 0;
  std::vector<SpanRecord> records;
  std::vector<int> open;  // stack of open record indices
};

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

Tracer::~Tracer() = default;

Tracer::ThreadLog& Tracer::local() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    logs_.push_back(std::make_unique<ThreadLog>());
    log = logs_.back().get();
    log->thread = static_cast<int>(logs_.size()) - 1;
  }
  return *log;
}

int Tracer::open(const char* name, std::int64_t start_ns) {
  // Span names are string literals, so a per-thread cache keyed on the
  // pointer keeps the lock off the steady-state path.
  thread_local std::vector<std::pair<const char*, int>> cache;
  int id = -1;
  for (const auto& [p, i] : cache) {
    if (p == name) id = i;
  }
  if (id < 0) {
    std::lock_guard<std::mutex> lock(g_mu);
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) id = static_cast<int>(i);
    }
    if (id < 0) {
      id = static_cast<int>(names_.size());
      names_.emplace_back(name);
    }
    cache.emplace_back(name, id);
  }
  ThreadLog& log = local();
  SpanRecord r;
  r.name = id;
  r.parent = log.open.empty() ? -1 : log.open.back();
  r.thread = log.thread;
  r.start_ns = start_ns;
  log.records.push_back(r);
  const int index = static_cast<int>(log.records.size()) - 1;
  log.open.push_back(index);
  return index;
}

void Tracer::close(int record, std::int64_t end_ns) {
  ThreadLog& log = local();
  log.records[static_cast<std::size_t>(record)].end_ns = end_ns;
  log.open.pop_back();
}

std::map<std::string, SpanTotal> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(g_mu);
  std::map<std::string, SpanTotal> out;
  for (const auto& log : logs_) {
    for (const SpanRecord& r : log->records) {
      SpanTotal& t = out[names_[static_cast<std::size_t>(r.name)]];
      t.total_s += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
      ++t.count;
    }
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& log : logs_) {
    for (std::size_t i = 0; i < log->records.size(); ++i) {
      const SpanRecord& r = log->records[i];
      os << "{\"span\":" << json_string(names_[static_cast<std::size_t>(r.name)])
         << ",\"thread\":" << r.thread << ",\"id\":" << i
         << ",\"parent\":" << r.parent << ",\"start_ns\":" << r.start_ns
         << ",\"end_ns\":" << r.end_ns << "}\n";
    }
  }
}

Span::Span(const char* name) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) record_ = t.open(name, now_ns());
}

Span::~Span() {
  if (record_ >= 0) Tracer::instance().close(record_, now_ns());
}

}  // namespace perfbench
