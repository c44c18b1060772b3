// Shared chunk/ring layout arithmetic.
//
// The 1-D pipeline, the 2-D tile pipeline, the replay lower bound, and the
// plan builder all need the same small set of layout computations: alignment
// round-up, per-split-index byte counts, ring-length sizing (how many split
// indices a device ring must hold so no in-flight chunk's window is
// overwritten), ring-segment enumeration (wrap decomposition of an index
// range into non-wrapping slot runs), and the weighted loop partition used
// for multi-device co-scheduling. Hoisted here so the arithmetic exists
// exactly once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/spec.hpp"

namespace gpupipe::core::layout {

/// Rounds `v` up to the next multiple of `align` (align >= 1). Throws
/// instead of wrapping when the rounded value does not fit in T (byte
/// counts near the top of the type's range).
template <typename T>
inline T round_up(T v, T align) {
  require(align >= 1, "round_up alignment must be >= 1");
  if constexpr (std::is_signed_v<T>) require(v >= 0, "round_up value must be non-negative");
  const T rem = v % align;
  if (rem == 0) return v;
  const T pad = align - rem;
  require(v <= std::numeric_limits<T>::max() - pad, "round_up overflows the value type");
  return v + pad;
}

/// Bytes of one split-dim index of `a` (a slab, or one column for block2d).
inline Bytes unit_bytes(const ArraySpec& a) {
  if (a.split.dim == 0) return static_cast<Bytes>(a.inner_elems()) * a.elem_size;
  return static_cast<Bytes>(a.dims[0]) * a.elem_size;
}

/// How far a window of `window` indices extends beyond its chunk's stride.
constexpr std::int64_t halo(std::int64_t window, std::int64_t scale) {
  return std::max<std::int64_t>(0, window - scale);
}

/// Ring length (in split-dim indices) for an affine split under chunk size
/// `c` and `s` in-flight streams: consecutive chunk starts differ by
/// `stride` = scale*c and up to `s` chunks overlap, plus the halo a window
/// extends beyond its chunk's stride. Everything is kept a multiple of the
/// stride so a chunk's window never wraps mid-chunk (mid-chunk wraps would
/// split transfers into slivers far below the bandwidth saturation width).
constexpr std::int64_t ring_len_affine(std::int64_t scale, std::int64_t window,
                                       std::int64_t c, int s) {
  const std::int64_t stride = scale * c;
  return stride * s + ceil_div(halo(window, scale), stride) * stride;
}

/// Split-index window a chunk over iterations [lo, hi) touches (handles
/// both affine splits and window functions). The range must be non-empty:
/// range_of(hi - 1) is meaningless for lo == hi (a zero-iteration chunk,
/// e.g. after mem-limit shrinking or an empty partition_weighted slice).
inline std::pair<std::int64_t, std::int64_t> window_of(const ArraySpec& a, std::int64_t lo,
                                                       std::int64_t hi) {
  // Called per chunk and array while planning: the message is only built
  // when the check fails.
  if (lo >= hi) require(false, "array '" + a.name + "': chunk iteration range is empty");
  return {a.split.range_of(lo).first, a.split.range_of(hi - 1).second};
}

/// Ring length for `a` under loop range [loop_begin, loop_end): the affine
/// formula, or a scan of the loop for window-function splits (which also
/// validates monotonicity and output disjointness).
inline std::int64_t ring_len_for_spec(const ArraySpec& a, std::int64_t loop_begin,
                                      std::int64_t loop_end, std::int64_t c, int s) {
  if (loop_begin >= loop_end)
    require(false, "array '" + a.name + "': pipeline loop range is empty");
  if (!a.split.window_fn) {
    // Callers clamp the returned length to the array extent; a window that
    // steps outside the array would then wrap a chunk onto itself (the
    // for_ring_segments overlap this guard exists to prevent).
    const auto first = a.split.range_of(loop_begin);
    const auto last = a.split.range_of(loop_end - 1);
    if (first.first < 0 || last.second > a.dims[static_cast<std::size_t>(a.split.dim)])
      require(false, "array '" + a.name + "': split window touches indices outside the array");
    return ring_len_affine(a.split.start.scale, a.split.window, c, s);
  }
  // Scan the loop once per configuration: every group of `s` consecutive
  // chunks must fit in the ring simultaneously.
  std::vector<std::pair<std::int64_t, std::int64_t>> wins;
  for (std::int64_t lo = loop_begin; lo < loop_end; lo += c) {
    const std::int64_t hi = std::min(lo + c, loop_end);
    const auto w = window_of(a, lo, hi);
    require(0 <= w.first && w.first < w.second && w.second <= a.dims[a.split.dim],
            "array '" + a.name + "': window_fn returned a range outside the array");
    if (!wins.empty()) {
      require(w.first >= wins.back().first && w.second >= wins.back().second,
              "array '" + a.name + "': window_fn ranges must be non-decreasing");
      if (a.map != MapType::To)
        require(w.first >= wins.back().second,
                "array '" + a.name + "': output windows of different chunks overlap");
    }
    wins.push_back(w);
  }
  std::int64_t need = 1;
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const std::size_t j = std::min(wins.size() - 1, i + static_cast<std::size_t>(s) - 1);
    need = std::max(need, wins[j].second - wins[i].first);
  }
  return need;
}

/// One non-wrapping run of ring slots covering host indices
/// [index, index + count).
struct RingSegment {
  std::int64_t slot = 0;
  std::int64_t index = 0;
  std::int64_t count = 0;
};

/// Invokes `fn(slot, index, count)` for each non-wrapping segment of host
/// index range [a, b) in a ring of `ring_len` slots (at most two segments).
/// The range must fit in the ring: a wider range would revisit slots and
/// silently emit overlapping runs, corrupting resident data.
template <typename Fn>
void for_ring_segments(std::int64_t a, std::int64_t b, std::int64_t ring_len, Fn&& fn) {
  require(ring_len >= 1 && 0 <= a && a <= b, "ring segment range must be non-negative");
  require(b - a <= ring_len, "ring segment range is larger than the ring");
  std::int64_t idx = a;
  while (idx < b) {
    const std::int64_t slot = idx % ring_len;
    const std::int64_t count = std::min(b - idx, ring_len - slot);
    fn(slot, idx, count);
    idx += count;
  }
}

/// Materialised for_ring_segments.
inline std::vector<RingSegment> ring_segments(std::int64_t a, std::int64_t b,
                                              std::int64_t ring_len) {
  std::vector<RingSegment> out;
  for_ring_segments(a, b, ring_len, [&](std::int64_t slot, std::int64_t idx,
                                        std::int64_t count) {
    out.push_back({slot, idx, count});
  });
  return out;
}

/// Proportional integer partition of `total` items by `weights`, each part
/// rounded down to a multiple of `granule`; the remainder is granted
/// granule-at-a-time to the parts with the largest fractional share (later
/// parts win ties). Zero-weight parts always receive zero — a disabled
/// device must never be handed iterations just because it is listed last.
/// Used to slice the split loop across devices.
inline std::vector<std::int64_t> partition_weighted(std::int64_t total,
                                                    const std::vector<double>& weights,
                                                    std::int64_t granule) {
  require(!weights.empty(), "partition needs at least one weight");
  require(granule >= 1, "partition granule must be >= 1");
  require(total >= 0, "partition total must be non-negative");
  double sum = 0.0;
  for (const double w : weights) {
    require(w >= 0.0, "partition weights must be non-negative");
    sum += w;
  }
  require(sum > 0.0, "partition weights must sum to a positive value");

  std::vector<std::int64_t> parts(weights.size(), 0);
  std::vector<double> frac(weights.size(), -std::numeric_limits<double>::infinity());
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0.0) continue;
    const double exact = static_cast<double>(total) * weights[i] / sum;
    const std::int64_t floored =
        static_cast<std::int64_t>(exact) / granule * granule;
    parts[i] = floored;
    frac[i] = exact - static_cast<double>(floored);
    assigned += floored;
  }
  // Grant the leftover in granule steps to the hungriest positive-weight
  // part; the final grant may be sub-granule so the parts always sum to
  // `total` exactly.
  while (assigned < total) {
    std::size_t best = 0;
    for (std::size_t i = 0; i < weights.size(); ++i)
      if (frac[i] >= frac[best]) best = i;
    const std::int64_t grant = std::min<std::int64_t>(granule, total - assigned);
    parts[best] += grant;
    frac[best] -= static_cast<double>(granule);
    assigned += grant;
  }
  return parts;
}

}  // namespace gpupipe::core::layout
