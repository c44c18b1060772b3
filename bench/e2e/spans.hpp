// Outside-in span recorder for gpupipe_bench's --trace runs.
//
// Spans are opened by the benchmark around its calls into each layer of the
// program (named after the module: "dsl", "core.plan.build", "sched.run", ...),
// never inside the program. They live in memory with their parent and a
// trace id (the job id for per-job spans, -1 otherwise) and are written as
// JSON lines when the run ends. A layer's self time is the time its spans
// cover minus the time covered by their child spans. With a null recorder
// every Scope is a no-op that reads no clock, so untraced runs pay nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace gpupipe::e2e {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  ///< index of the enclosing span, -1 for a root
    std::int32_t trace = -1;
  };

  /// Opens a span under the innermost open one.
  void open(std::string name, std::int32_t trace = -1) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent, trace});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  /// Closes the innermost open span (spans nest: one thread, stack order).
  void close() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns();
    open_.pop_back();
  }

  /// Seconds of self time per span name, over the tree rooted at `root`.
  std::map<std::string, double> self_seconds(int root) const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    const std::vector<int> tree = roots();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (tree[i] == root)
        out[spans_[i].name] += 1e-9 * static_cast<double>(spans_[i].end_ns -
                                                          spans_[i].start_ns - child_ns[i]);
    return out;
  }

  /// Durations in seconds of the spans named `name` in the tree at `root`.
  std::vector<double> durations(const std::string& name, int root) const {
    const std::vector<int> tree = roots();
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (tree[i] == root && spans_[i].name == name)
        out.push_back(1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
    return out;
  }

  /// One JSON object per span: name, start_ns, end_ns, parent, trace.
  void write_jsonl(std::ostream& os) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"trace\":" << s.trace
         << "}\n";
    }
  }

  /// RAII span; a null recorder makes it free.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, std::int32_t trace = -1) : rec_(rec) {
      if (rec_) rec_->open(name, trace);
    }
    ~Scope() {
      if (rec_) rec_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
  };

 private:
  /// The root span of every span (a parent is always recorded first).
  std::vector<int> roots() const {
    std::vector<int> tree(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const int p = spans_[i].parent;
      tree[i] = p < 0 ? static_cast<int>(i) : tree[static_cast<std::size_t>(p)];
    }
    return tree;
  }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace gpupipe::e2e
