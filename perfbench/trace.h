// Spans for the traced benchmark run.
//
// The benchmark records a span around every call it makes into one of the
// engine's layers (generation, statistics, encoding, rewrite, execution,
// kernels). Spans live in memory and are written once, at the end of the
// run, as a Chrome trace-event JSON document that any trace viewer
// (chrome://tracing, Perfetto) opens offline.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Seconds since the process started (static initialisation runs before
// main, so this is the process's own clock origin).
inline const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

inline double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

struct Span {
  std::string name;
  int parent = -1;  // index of the enclosing span, -1 at top level
  double start = 0;
  double end = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Opens a span nested in the innermost open one; returns its index, or -1
  // when tracing is off.
  int Begin(std::string name) {
    if (!enabled_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = Now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[id].end = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  // Every span closed, and every child within its parent's interval.
  bool NestingHolds() const {
    for (const Span& s : spans_) {
      if (s.end < s.start) return false;
      if (s.parent < 0) continue;
      const Span& p = spans_[s.parent];
      if (s.start < p.start || s.end > p.end) return false;
    }
    return open_.empty();
  }

  // Writes the trace-event array (without the enclosing document).
  void WriteEvents(std::FILE* out) const {
    std::fprintf(out, "[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%d}}",
                   i == 0 ? "" : ",", s.name.c_str(), s.start * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
    }
    std::fprintf(out, "]");
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.Begin(std::move(name))) {}
  ~Scope() { tracer_.End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
