#include "gpu/hazard.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "common/run_map.hpp"

namespace gpupipe::gpu {

namespace {
// Two operations whose windows merely touch at one instant are ordered, not
// racing; require a strictly positive overlap beyond this tolerance.
constexpr SimTime kEps = 1e-12;

// Contiguous interval [lo, hi) vs a strided range: any segment of `s`
// intersecting the interval? O(1): a segment r intersects iff its start is
// in (lo - size, hi), i.e. r in [ceil((lo - size + 1 - base)/stride),
// floor((hi - 1 - base)/stride)] clipped to [0, rows).
bool contiguous_vs_strided(const std::byte* lo, const std::byte* hi, const MemRange& s) {
  if (hi <= lo || s.size == 0) return false;
  if (s.rows <= 1 || s.stride == 0) {
    return std::max(lo, s.ptr) < std::min(hi, s.ptr + s.size);
  }
  const auto base = reinterpret_cast<std::intptr_t>(s.ptr);
  const auto ilo = reinterpret_cast<std::intptr_t>(lo);
  const auto ihi = reinterpret_cast<std::intptr_t>(hi);
  const auto stride = static_cast<std::intptr_t>(s.stride);
  const auto size = static_cast<std::intptr_t>(s.size);
  // Smallest r with base + r*stride + size > ilo  <=>  r > (ilo - size - base)/stride
  std::intptr_t r_min = (ilo - size - base) / stride + 1;
  if (base + (r_min - 1) * stride + size > ilo) --r_min;  // fix flooring of negatives
  while (base + r_min * stride + size <= ilo) ++r_min;
  // Largest r with base + r*stride < ihi
  std::intptr_t r_max = (ihi - 1 - base) / stride;
  while (base + r_max * stride >= ihi) --r_max;
  r_min = std::max<std::intptr_t>(r_min, 0);
  r_max = std::min<std::intptr_t>(r_max, static_cast<std::intptr_t>(s.rows) - 1);
  return r_min <= r_max;
}
}  // namespace

bool ranges_overlap(const MemRange& a, const MemRange& b) {
  if (a.size == 0 || b.size == 0) return false;
  // Bounding-box quick reject.
  if (a.ptr + a.span() <= b.ptr || b.ptr + b.span() <= a.ptr) return false;
  if (a.rows <= 1) return contiguous_vs_strided(a.ptr, a.ptr + a.size, b);
  if (b.rows <= 1) return contiguous_vs_strided(b.ptr, b.ptr + b.size, a);
  if (a.stride == b.stride && a.stride > 0) {
    // One stride S: segment i of `a` and segment j of `b` overlap iff
    // -b.size < d + (j - i) * S < a.size, with d = b.ptr - a.ptr. The
    // smallest k = j - i in [-(a.rows - 1), b.rows - 1] that clears the
    // lower bound is the only candidate for the upper one.
    const auto stride = static_cast<std::intptr_t>(a.stride);
    const std::intptr_t d =
        reinterpret_cast<std::intptr_t>(b.ptr) - reinterpret_cast<std::intptr_t>(a.ptr);
    const std::intptr_t low = -static_cast<std::intptr_t>(b.size) - d;
    std::intptr_t k = low / stride + 1;
    if (low % stride < 0) --k;  // floor division for a negative bound
    k = std::max(k, 1 - static_cast<std::intptr_t>(a.rows));
    return k <= static_cast<std::intptr_t>(b.rows) - 1 &&
           d + k * stride < static_cast<std::intptr_t>(a.size);
  }
  // Unequal strides: test each segment of the shorter one (exact; mixed
  // strides are rare, and benches disable hazard tracking).
  const MemRange& outer = a.rows <= b.rows ? a : b;
  const MemRange& inner = a.rows <= b.rows ? b : a;
  for (Bytes r = 0; r < outer.rows; ++r) {
    const std::byte* lo = outer.ptr + r * outer.stride;
    if (contiguous_vs_strided(lo, lo + outer.size, inner)) return true;
  }
  return false;
}

void validate_static_schedule(const std::vector<StaticOp>& ops, int num_queues) {
  require(num_queues >= 1, "static schedule needs at least one queue");
  const int n = static_cast<int>(ops.size());
  const auto nq = static_cast<std::size_t>(num_queues);
  auto malformed = [](const StaticOp& op, const char* what) {
    require(false, "static op '" + std::string(op.label) + "': " + what);
  };

  // Happens-before as per-queue ancestor frontiers: row b of `frontier`
  // holds, per queue q, the largest list position on q that strictly
  // precedes op b. Because a queue's ops are totally ordered, "a precedes b"
  // is exactly pos(a) <= frontier[b][queue(a)]. Frontiers compose
  // incrementally from the previous op on b's queue and b's explicit deps.
  std::vector<int> frontier(static_cast<std::size_t>(n) * nq, -1);
  std::vector<int> queue_tail(nq, -1);

  auto merge_from = [&](int* dst, int src) {
    const int* f = frontier.data() + static_cast<std::size_t>(src) * nq;
    for (std::size_t q = 0; q < nq; ++q) dst[q] = std::max(dst[q], f[q]);
    const auto sq = static_cast<std::size_t>(ops[static_cast<std::size_t>(src)].queue);
    dst[sq] = std::max(dst[sq], src);
  };

  // Per resource: runs of slots that share the last writer and the readers
  // since that write.
  struct SlotRun {
    int last_writer = -1;
    std::vector<int> readers;

    bool operator==(const SlotRun&) const = default;
  };
  std::vector<RunMap<SlotRun>> slots;  // indexed by resource

  for (int i = 0; i < n; ++i) {
    const StaticOp& op = ops[static_cast<std::size_t>(i)];
    if (op.queue < 0 || op.queue >= num_queues) malformed(op, "queue out of range");
    int* f = frontier.data() + static_cast<std::size_t>(i) * nq;
    if (queue_tail[static_cast<std::size_t>(op.queue)] >= 0)
      merge_from(f, queue_tail[static_cast<std::size_t>(op.queue)]);
    for (int d : op.deps) {
      if (d < 0 || d >= i) malformed(op, "dep must index an earlier op");
      merge_from(f, d);
    }
    queue_tail[static_cast<std::size_t>(op.queue)] = i;

    auto ordered_before = [&](int a) {
      return a <= f[static_cast<std::size_t>(ops[static_cast<std::size_t>(a)].queue)];
    };
    auto conflict = [&](int prior, const char* kind) {
      const StaticOp& p = ops[static_cast<std::size_t>(prior)];
      throw HazardError("static " + std::string(kind) + " hazard: '" + std::string(op.label) +
                        "' conflicts with '" + std::string(p.label) +
                        "' without an ordering dependency between them");
    };

    // Runs in slot order, the writer before the readers: the first slot
    // with an unordered pair is the one a slot-by-slot scan reports.
    for (const auto& acc : op.accesses) {
      if (acc.resource < 0 || acc.resources < 1 || acc.lo < 0 || acc.lo > acc.hi)
        malformed(op, "malformed access");
      const auto end =
          static_cast<std::size_t>(acc.resource) + static_cast<std::size_t>(acc.resources);
      if (end > slots.size()) slots.resize(end);
      for (auto res = static_cast<std::size_t>(acc.resource); res < end; ++res) {
        slots[res].update(acc.lo, acc.hi, [&](SlotRun& st) {
          if (st.last_writer >= 0 && st.last_writer != i && !ordered_before(st.last_writer))
            conflict(st.last_writer, acc.write ? "write-after-write" : "read-after-write");
          if (acc.write) {
            for (int r : st.readers)
              if (r != i && !ordered_before(r)) conflict(r, "write-after-read");
            st.last_writer = i;
            st.readers.clear();
          } else if (st.readers.empty() || st.readers.back() != i) {
            st.readers.push_back(i);
          }
        });
      }
    }
  }
}

bool HazardTracker::force_enabled() {
  static const bool forced = [] {
    const char* v = std::getenv("GPUPIPE_FORCE_HAZARDS");
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }();
  return forced;
}

std::string OpLabel::format(const StringTable& names) const {
  if (what == nullptr) return names.lookup(name);
  if (bytes > 0) return std::string(what) + "[" + std::to_string(bytes) + "B]";
  if (name != 0) return std::string(what) + "(" + names.lookup(name) + ")";
  return what;
}

void HazardTracker::begin_op(const MemEffects& effects, SimTime start, SimTime end,
                             const OpLabel& label) {
  if (!enabled_) return;
  prune(start);

  auto conflict = [&](const Record& r, const char* kind) {
    static const StringTable no_names;
    const StringTable& names = names_ ? *names_ : no_names;
    std::ostringstream os;
    os << kind << " hazard: '" << label.format(names) << "' starting at " << start
       << "s touches memory still in use by '" << r.label.format(names) << "' (completes at "
       << r.end << "s)";
    throw HazardError(os.str());
  };

  for (const auto& m : effects.reads) {
    for (const auto& r : records_) {
      if (r.is_write && r.end > start + kEps && ranges_overlap(r.range, m))
        conflict(r, "read-after-write");
    }
  }
  for (const auto& m : effects.writes) {
    for (const auto& r : records_) {
      if (r.end > start + kEps && ranges_overlap(r.range, m))
        conflict(r, r.is_write ? "write-after-write" : "write-after-read");
    }
  }

  for (const auto& m : effects.reads)
    if (m.size > 0) records_.push_back({m, end, label, false});
  for (const auto& m : effects.writes)
    if (m.size > 0) records_.push_back({m, end, label, true});
}

void HazardTracker::prune(SimTime now) {
  std::erase_if(records_, [&](const Record& r) { return r.end <= now + kEps; });
}

}  // namespace gpupipe::gpu
