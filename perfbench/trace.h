#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs. Spans are
// recorded by the benchmark around each call it makes into a layer of the
// program; nothing inside the program is instrumented. A Tracer is used
// by one thread.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the parent span in the same Tracer, -1 for a root.
  int32_t parent = -1;
  /// Spans of one request (one query, one wire call) share this id.
  uint64_t request = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index, or -1 when tracing is off.
  int32_t Begin(const char* name, uint64_t request, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Records a span whose bounds the caller already knows (used for the
  /// parts of a call that the program reports as durations).
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int32_t parent,
           uint64_t request) {
    if (!enabled_) return;
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.micros());
    }
    return out;
  }

  /// Self time (us) of every span named `name`: its duration minus the
  /// part of its interval covered by its direct children.
  std::vector<double> SelfTimes(const std::string& name) const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<size_t>(s.parent)].push_back(
            {s.start_ns, s.end_ns});
      }
    }
    std::vector<double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (name != s.name) continue;
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = s.start_ns;
      for (const auto& [lo, hi] : kids) {
        const int64_t from = std::max(lo, cursor);
        const int64_t to = std::min(hi, s.end_ns);
        if (to > from) {
          covered += to - from;
          cursor = to;
        }
      }
      out.push_back(static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3);
    }
    return out;
  }

  /// Writes one span per line: name, start_ns, end_ns, parent, request.
  bool WriteTsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "name\tstart_ns\tend_ns\tparent\trequest\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\n", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request,
             int32_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
