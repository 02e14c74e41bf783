// In-memory host-time spans for the traced benchmark run.
//
// A span is recorded around each call the benchmark makes into one layer of
// the simulator (name "<layer>.<operation>"), with its parent span and the
// run id of the item it belongs to.  Nothing is written until the run ends;
// `write_chrome` then exports every span through the library's TraceWriter.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sndp.h"

namespace perfbench {

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;  // index into spans(), -1 for a root span
    int run = 0;      // 0: workload-level; i + 1: item i
  };

  SpanLog() : origin_(Clock::now()) {}

  int open(std::string name, int run) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), Clock::now(), {}, parent, run});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int index) {
    spans_[index].end = Clock::now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time per span name: each span's duration minus the durations of
  // its direct children (children never overlap: the benchmark is serial
  // wherever it records spans).
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += seconds(s);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += seconds(spans_[i]) - child[i];
    }
    return out;
  }

  // Chrome-trace export: one row per run id; nesting on a row shows the
  // parent relation.  Returns false on I/O failure.
  bool write_chrome(const std::string& path, const std::vector<std::string>& row_names) const {
    sndp::TraceWriter w;
    w.set_capacity(spans_.size() + row_names.size() + 1);
    for (std::size_t r = 0; r < row_names.size(); ++r) {
      w.name_row(static_cast<int>(r), row_names[r]);
    }
    for (const Span& s : spans_) {
      const std::string layer = s.name.substr(0, s.name.find('.'));
      w.complete(s.name, layer, s.run, to_ps(s.start), to_ps(s.end) - to_ps(s.start));
    }
    return w.write(path);
  }

 private:
  static double seconds(const Span& s) {
    return std::chrono::duration<double>(s.end - s.start).count();
  }
  sndp::TimePs to_ps(Clock::time_point t) const {
    return static_cast<sndp::TimePs>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count() * 1000);
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null log records nothing (the untraced path).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int run)
      : log_(log), index_(log != nullptr ? log->open(std::move(name), run) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace perfbench
