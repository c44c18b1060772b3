// Timeline trace recording.
//
// While recording is on, the GPU runtime records one span per completed
// operation; the profiler and the Fig. 3 time-distribution bench aggregate
// these by category. Like a CUDA runtime without a profiler attached, a
// gpu::Gpu's trace starts off: each reader (apps::measure, the autotune
// probe, gpupipe_plan --metrics/--annotate, gpupipe_serve --export spans)
// turns it on with set_enabled(true), and the runtime formats an
// operation's label only for a span it records. A Trace built directly
// (dry runs, tests) starts on. Traces can also be dumped as a human-readable
// timeline for debugging pipelines.
//
// Spans optionally carry the id of the core::ExecutionPlan node whose
// replay produced them (-1 when the operation came from outside a plan):
// the executor publishes the node it is issuing via set_plan_node() and the
// runtime captures plan_node() at submission time, so per-node measured
// costs can be joined back onto the plan (core/telemetry.hpp). The same
// ambient mechanism carries a per-job trace id (set_trace_id): the scheduler
// publishes the id of the job whose pipeline it is enqueuing, so every span
// of a multi-tenant serve run can be attributed back to one job and joined
// with that job's flight-recorder events (common/flight_recorder.hpp).
//
// Spans are POD: lane and label are ids into the trace's intern table
// (one table per Trace, shared by lanes and labels), so recording a span at
// serve scale is a 48-byte append with no string allocation. Strings are
// resolved back only by the aggregate views and dumps; the dump formats are
// byte-identical to what the string-carrying spans produced. The intern
// table survives clear() so cached ids (streams cache their lane id) stay
// valid across trace resets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/string_table.hpp"
#include "common/units.hpp"

namespace gpupipe::sim {

/// Classification of a traced span.
enum class SpanKind { HostApi, H2D, D2H, D2D, Kernel, Sync, Other };

inline const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::HostApi: return "host-api";
    case SpanKind::H2D: return "HtoD";
    case SpanKind::D2H: return "DtoH";
    case SpanKind::D2D: return "DtoD";
    case SpanKind::Kernel: return "kernel";
    case SpanKind::Sync: return "sync";
    case SpanKind::Other: return "other";
  }
  return "?";
}

/// `s` as the body of a JSON string: quotes and backslashes escaped, and
/// control characters (invalid raw inside JSON strings) as six-character
/// unicode escapes.
inline std::string json_escape(std::string_view s) {
  static const char* hex = "0123456789abcdef";
  std::string out;
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20) {
      out += "\\u00";
      out += hex[u >> 4];
      out += hex[u & 0xf];
    } else {
      out += c;
    }
  }
  return out;
}

/// One completed operation on the timeline. `lane` and `label` are ids in
/// the owning Trace's intern table (Trace::lane / Trace::label resolve them).
struct Span {
  SpanKind kind = SpanKind::Other;
  StringId lane = 0;        // engine or stream name (interned)
  StringId label = 0;       // operation description (interned)
  std::int32_t trace = -1;  // owning job's trace id, -1 outside a traced job
  SimTime start = 0.0;
  SimTime end = 0.0;
  Bytes bytes = 0;         // payload size for transfers, 0 otherwise
  std::int64_t node = -1;  // originating ExecutionPlan node id, -1 if none

  SimTime duration() const { return end - start; }
};

/// Collects spans; cheap to disable (record() is a no-op when off).
class Trace {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Interns a lane/label string, returning the id to put in a Span. Ids are
  /// per-Trace and stay valid for the Trace's lifetime (clear() keeps the
  /// table), so hot paths intern once and reuse the id.
  StringId intern(std::string_view s) { return strings_.intern(s); }

  /// Resolves interned ids back to strings.
  const std::string& str(StringId id) const { return strings_.lookup(id); }
  const std::string& lane(const Span& s) const { return strings_.lookup(s.lane); }
  const std::string& label(const Span& s) const { return strings_.lookup(s.label); }

  /// The intern table (for observability: distinct strings, footprint).
  const StringTable& strings() const { return strings_; }

  /// Bounds the number of retained spans (0 = unbounded, the default).
  /// Once full the trace behaves as a ring keeping the newest spans; each
  /// overwritten span increments dropped_spans(). Long autotune sweeps can
  /// thus keep tracing on without growing memory without bound.
  void set_span_capacity(std::size_t cap) {
    cap_ = cap;
    if (cap_ > 0 && spans_.size() > cap_) {
      normalize();
      dropped_ += spans_.size() - cap_;
      spans_.erase(spans_.begin(), spans_.end() - static_cast<std::ptrdiff_t>(cap_));
    }
  }
  std::size_t span_capacity() const { return cap_; }
  /// Spans evicted by the capacity ring since the last clear().
  std::uint64_t dropped_spans() const { return dropped_; }

  /// Capacity hint: pre-sizes span storage for `n` spans. Callers that know
  /// the workload size up front (the serve driver knows its plan's span
  /// count, benches know their sweep) skip the geometric-growth copies —
  /// an unbounded 1M-span run otherwise copies ~2x its final footprint.
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Hot-path record: `s.lane` / `s.label` must be ids from this trace's
  /// intern().
  void record(const Span& s) {
    if (!enabled_) return;
    if (cap_ == 0 || spans_.size() < cap_) {
      spans_.push_back(s);
      return;
    }
    if (strict_drops())
      throw Error("trace span ring overflow: capacity " + std::to_string(cap_) +
                  " exceeded with GPUPIPE_TRACE_STRICT=1 (raise "
                  "set_span_capacity or disable strict mode)");
    spans_[oldest_] = s;
    oldest_ = (oldest_ + 1) % cap_;
    ++dropped_;
  }

  /// Convenience record interning the strings on the spot (tests, cold
  /// paths). Stamps the ambient trace id like the runtime path does.
  void record(SpanKind kind, std::string_view lane, std::string_view label, SimTime start,
              SimTime end, Bytes bytes = 0, std::int64_t node = -1) {
    if (!enabled_) return;
    record(Span{kind, intern(lane), intern(label), trace_id_, start, end, bytes, node});
  }

  /// The plan node currently being issued (stamped into spans the runtime
  /// records); -1 outside plan execution.
  void set_plan_node(std::int64_t id) { plan_node_ = id; }
  std::int64_t plan_node() const { return plan_node_; }

  /// The trace id of the job whose work is currently being submitted
  /// (stamped into spans like the plan node); -1 outside any job. The
  /// scheduler sets this around pipeline construction + enqueue so a span
  /// recorded at completion still carries the submitting job's id.
  void set_trace_id(std::int32_t id) { trace_id_ = id; }
  std::int32_t trace_id() const { return trace_id_; }

  /// When strict-drop mode is on (GPUPIPE_TRACE_STRICT=1, or
  /// set_strict_drops for tests), overflowing a capacity-bounded span ring
  /// throws instead of silently evicting — CI bench jobs use it so
  /// overlap-efficiency evidence cannot be quietly truncated. Process-wide.
  static bool strict_drops() { return strict_state(); }
  static void set_strict_drops(bool on) { strict_state() = on; }

  /// Retained spans in recording order (oldest first).
  const std::vector<Span>& spans() const {
    normalize();
    return spans_;
  }
  void clear() {
    spans_.clear();
    oldest_ = 0;
    dropped_ = 0;
  }

  /// Total span time per kind (sum of durations, ignoring overlap).
  std::map<SpanKind, SimTime> time_by_kind() const {
    std::map<SpanKind, SimTime> out;
    for (const auto& s : spans_) out[s.kind] += s.duration();
    return out;
  }

  /// Total span time per lane (per-stream / per-engine busy time).
  std::map<std::string, SimTime> time_by_lane() const {
    std::map<std::string, SimTime> out;
    for (const auto& s : spans_) out[strings_.lookup(s.lane)] += s.duration();
    return out;
  }

  /// Union length of [start,end) intervals of the given kind — the wall time
  /// during which at least one such operation was in flight.
  SimTime occupancy(SpanKind kind) const { return occupancy_union({kind}); }

  /// Union length over several kinds at once (e.g. "any device engine
  /// active" = occupancy_union({H2D, D2H, Kernel})).
  SimTime occupancy_union(std::initializer_list<SpanKind> kinds) const {
    std::vector<std::pair<SimTime, SimTime>> iv;
    for (const auto& s : spans_) {
      if (s.end <= s.start) continue;  // zero-length spans occupy nothing
      for (SpanKind k : kinds)
        if (s.kind == k) {
          iv.emplace_back(s.start, s.end);
          break;
        }
    }
    std::sort(iv.begin(), iv.end());
    SimTime total = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      if (cur_hi < lo) {
        if (cur_hi > cur_lo) total += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) total += cur_hi - cur_lo;
    return total;
  }

  /// Dumps the timeline in Chrome trace-event JSON ("catapult") format —
  /// loadable in chrome://tracing or https://ui.perfetto.dev. Each lane
  /// (stream/engine) becomes a thread row; span kinds become categories;
  /// plan-correlated spans carry their node id in args.
  void dump_chrome_json(std::ostream& os) const {
    normalize();
    // Stable lane -> tid mapping in order of first appearance. Keyed by the
    // resolved name (not the id) so the metadata rows keep the
    // sorted-by-name order the string-keyed map produced.
    std::map<std::string, int> tids;
    for (const auto& s : spans_)
      tids.emplace(strings_.lookup(s.lane), static_cast<int>(tids.size()) + 1);

    os << "{\"traceEvents\":[";
    bool first = true;
    for (const auto& [lane_name, tid] : tids) {
      if (!first) os << ",";
      first = false;
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
         << ",\"args\":{\"name\":\"" << json_escape(lane_name) << "\"}}";
    }
    for (const auto& s : spans_) {
      os << ",{\"name\":\"" << json_escape(strings_.lookup(s.label)) << "\",\"cat\":\""
         << to_string(s.kind) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << tids[strings_.lookup(s.lane)] << ",\"ts\":" << s.start * 1e6
         << ",\"dur\":" << s.duration() * 1e6;
      if (s.bytes > 0 || s.node >= 0 || s.trace >= 0) {
        os << ",\"args\":{";
        bool first_arg = true;
        if (s.bytes > 0) {
          os << "\"bytes\":" << s.bytes;
          first_arg = false;
        }
        if (s.node >= 0) {
          if (!first_arg) os << ",";
          os << "\"plan_node\":" << s.node;
          first_arg = false;
        }
        if (s.trace >= 0) {
          if (!first_arg) os << ",";
          os << "\"trace_id\":" << s.trace;
        }
        os << "}";
      }
      os << "}";
    }
    os << "]}";
  }

  /// Dumps a sorted timeline (for debugging).
  void dump(std::ostream& os) const {
    std::vector<Span> sorted = spans_;
    std::sort(sorted.begin(), sorted.end(),
              [](const Span& a, const Span& b) { return a.start < b.start; });
    for (const auto& s : sorted) {
      os << "[" << s.start * 1e3 << "ms - " << s.end * 1e3 << "ms] "
         << strings_.lookup(s.lane) << " " << to_string(s.kind) << " "
         << strings_.lookup(s.label) << "\n";
    }
  }

 private:
  /// Rotates the ring so spans_ is oldest-first (lazy; only after wrap).
  void normalize() const {
    if (oldest_ == 0) return;
    std::rotate(spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(oldest_),
                spans_.end());
    oldest_ = 0;
  }

  static bool& strict_state() {
    static bool strict = [] {
      const char* env = std::getenv("GPUPIPE_TRACE_STRICT");
      return env != nullptr && *env != '\0' && std::string_view(env) != "0";
    }();
    return strict;
  }

  bool enabled_ = true;
  std::size_t cap_ = 0;  // 0 = unbounded
  mutable std::size_t oldest_ = 0;
  std::uint64_t dropped_ = 0;
  std::int64_t plan_node_ = -1;
  std::int32_t trace_id_ = -1;
  mutable std::vector<Span> spans_;
  StringTable strings_;
};

/// Stream-overlap efficiency of a device timeline: the fraction of
/// *achievable* overlap that was realised. With busy = sum of per-kind
/// occupancies (H2D, D2H, Kernel), span = their union, and dominant = the
/// largest single-kind occupancy, the achievable saving is busy - dominant
/// (perfect overlap hides everything behind the longest kind) and the
/// realised saving is busy - span. Returns 0 for a fully serial timeline
/// (or when only one kind ran), 1 for perfect overlap.
inline double overlap_efficiency(const Trace& t) {
  const SimTime h2d = t.occupancy(SpanKind::H2D);
  const SimTime d2h = t.occupancy(SpanKind::D2H);
  const SimTime kernel = t.occupancy(SpanKind::Kernel);
  const SimTime busy = h2d + d2h + kernel;
  const SimTime span = t.occupancy_union({SpanKind::H2D, SpanKind::D2H, SpanKind::Kernel});
  const SimTime dominant = std::max({h2d, d2h, kernel});
  const SimTime achievable = busy - dominant;
  if (achievable <= 0.0) return 0.0;
  return std::max(0.0, busy - span) / achievable;
}

}  // namespace gpupipe::sim
