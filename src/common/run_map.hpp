// A state per position, kept as runs of consecutive positions.
//
// The plan builder's ring cells and the static schedule validator both
// track a state per ring slot while copies and kernels touch whole windows
// of consecutive slots; keeping the slots as runs that share one state
// makes each touch cost the runs it covers instead of its slots.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace gpupipe {

/// A `State` for every position in [0, inf), kept as sorted runs of
/// consecutive positions that share one state (`State` needs ==). A query
/// or update of positions [lo, hi) costs a binary search plus the runs it
/// covers; an update splits runs at lo and hi and merges equal neighbours
/// after, so the run count stays the number of distinct stretches.
/// Positions must be non-negative.
template <typename State>
class RunMap {
 public:
  RunMap() { reset(); }

  /// Gives every position the default state.
  void reset() { runs_.assign(1, Run{0, State{}}); }

  /// Calls f(state, lo', hi') for each run over [lo, hi) in position
  /// order, clipped to [lo', hi').
  template <typename F>
  void each(std::int64_t lo, std::int64_t hi, F&& f) const {
    if (lo >= hi) return;
    for (std::size_t i = find(lo); i < runs_.size() && runs_[i].start < hi; ++i)
      f(runs_[i].state, std::max(runs_[i].start, lo), std::min(end(i), hi));
  }

  /// Calls f(state) once for each run over [lo, hi) in position order,
  /// after splitting runs at lo and hi; then merges equal neighbours.
  template <typename F>
  void update(std::int64_t lo, std::int64_t hi, F&& f) {
    if (lo >= hi) return;
    const std::size_t first = split(lo);
    const std::size_t last = split(hi);
    for (std::size_t i = first; i < last; ++i) f(runs_[i].state);
    merge(first, last);
  }

 private:
  struct Run {
    std::int64_t start;
    State state;
  };

  std::int64_t end(std::size_t i) const {
    return i + 1 < runs_.size() ? runs_[i + 1].start : std::numeric_limits<std::int64_t>::max();
  }

  /// The run holding position `pos`.
  std::size_t find(std::int64_t pos) const {
    const auto it = std::upper_bound(runs_.begin(), runs_.end(), pos,
                                     [](std::int64_t p, const Run& r) { return p < r.start; });
    return static_cast<std::size_t>(it - runs_.begin()) - 1;
  }

  /// Makes a run start at `pos`; returns its index.
  std::size_t split(std::int64_t pos) {
    const std::size_t i = find(pos);
    if (runs_[i].start == pos) return i;
    runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(i + 1), Run{pos, runs_[i].state});
    return i + 1;
  }

  /// Merges equal neighbours among runs [first, last) and the runs next to
  /// them.
  void merge(std::size_t first, std::size_t last) {
    const std::size_t lo = first > 0 ? first - 1 : 0;
    const std::size_t hi = std::min(last + 1, runs_.size());
    std::size_t w = lo;
    for (std::size_t i = lo + 1; i < hi; ++i) {
      if (runs_[w].state == runs_[i].state) continue;
      if (++w != i) runs_[w] = std::move(runs_[i]);
    }
    runs_.erase(runs_.begin() + static_cast<std::ptrdiff_t>(w + 1),
                runs_.begin() + static_cast<std::ptrdiff_t>(hi));
  }

  std::vector<Run> runs_;  // sorted by start; the first starts at 0
};

}  // namespace gpupipe
