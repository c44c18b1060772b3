// Hazard (missing-dependency) detection for device memory.
//
// Every operation that touches device memory can declare the byte ranges it
// reads and writes. When an operation *starts* in virtual time, the tracker
// verifies that no in-flight operation conflicts with it:
//   * a read starting before a producing write completes  => RAW hazard
//   * a write starting before an overlapping read/write completes => WAR/WAW
//
// A correctly synchronised pipeline (stream order + events) never trips
// these checks, because dependencies force start >= producer end. A missing
// dependency puts the two operations on concurrent engines and is caught the
// moment the consumer starts. Failure-injection tests rely on this to prove
// the pipeline executor's event chaining is load-bearing.
//
// Ranges may be strided (2-D): `rows` segments of `size` bytes, `stride`
// bytes apart — the shape of pitched-buffer accesses. Overlap tests are
// exact for strided-vs-contiguous and strided-vs-strided shapes.
//
// Note: two racing operations that happen to share a capacity-1 engine
// serialise physically and are not flagged — the tracker detects hazards
// that manifest in the simulated schedule, not all latent ones.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/string_table.hpp"
#include "common/units.hpp"

namespace gpupipe::gpu {

/// Thrown when an operation consumes device data before its producer
/// completed (or overwrites data still being read).
class HazardError : public Error {
 public:
  using Error::Error;
};

/// A (possibly strided) byte range in device memory touched by an operation:
/// `rows` segments of `size` bytes starting `stride` bytes apart. A plain
/// contiguous range has rows == 1.
struct MemRange {
  const std::byte* ptr = nullptr;
  Bytes size = 0;
  Bytes stride = 0;  ///< distance between segment starts; ignored if rows==1
  Bytes rows = 1;

  /// Total extent from first byte to one past the last byte.
  Bytes span() const { return rows <= 1 ? size : (rows - 1) * stride + size; }
};

/// Declared memory effects of one operation.
struct MemEffects {
  std::vector<MemRange> reads;
  std::vector<MemRange> writes;
};

/// An operation's label kept as parts, formatted only when something reads
/// it (a recorded span or a hazard error): a copy reads `what[<bytes>B]`
/// ("h2d[4096B]"), an event `what(<name>)` ("event(stream2)"), a kernel its
/// `name`, and a label with only `what` that text. `what` has static
/// storage; `name` is an id in the table the label is formatted with.
struct OpLabel {
  const char* what = nullptr;
  Bytes bytes = 0;
  StringId name = 0;

  std::string format(const StringTable& names) const;
};

/// True when the two (possibly strided) ranges share at least one byte.
bool ranges_overlap(const MemRange& a, const MemRange& b);

/// One operation of a static schedule submitted for validation *before*
/// execution (see validate_static_schedule). Operations are listed in issue
/// order; ops sharing a queue execute in list order, and `deps` index
/// earlier list entries the op explicitly waits on. An op refers to its
/// deps, accesses and label instead of owning them: the caller keeps them
/// alive for the validation call (ExecutionPlan::validate points them into
/// its nodes and one flat access table).
struct StaticOp {
  int queue = 0;
  std::span<const int> deps;
  /// One access in abstract resources' slot space (e.g. the rows of a ring
  /// buffer, each with its slot indices): the op touches slots [lo, hi) of
  /// each of the `resources` consecutive resources from `resource`, in
  /// resource order.
  struct Access {
    int resource = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    bool write = false;
    int resources = 1;
  };
  std::span<const Access> accesses;
  std::string_view label;
};

/// Static (pre-execution) schedule validation: proves that every pair of
/// conflicting accesses (overlapping slots, at least one write) is ordered
/// by happens-before — the union of per-queue program order and the `deps`
/// edges. Throws HazardError naming the first unordered pair. A missing
/// slot-reuse edge in an execution plan is caught here before any operation
/// is issued, complementing HazardTracker's runtime detection (which only
/// sees races that manifest in one particular simulated timing).
///
/// Cost: O(ops * queues + runs touched). The happens-before closure is
/// per-queue ancestor frontiers in one flat ops x queues table (exact
/// because each queue is totally ordered). The conflict scan keeps, per
/// resource, sorted runs of slots that share the last writer and the
/// readers since it, and checks and updates each run an access covers once
/// (a binary search and at most two splits per access and resource),
/// whatever the number of slots. Messages, labels included, are formatted
/// only when it throws.
void validate_static_schedule(const std::vector<StaticOp>& ops, int num_queues);

/// Tracks in-flight accesses and validates new ones against them.
class HazardTracker {
 public:
  /// `names` resolves the names in op labels when a conflict is reported (a
  /// device context passes its task arena's label table).
  explicit HazardTracker(const StringTable* names = nullptr) : names_(names) {}

  /// Disabling is ignored while GPUPIPE_FORCE_HAZARDS is set in the
  /// environment (CI runs the suite with tracking forced on so code paths
  /// that suspend the tracker still get checked).
  void set_enabled(bool on) { enabled_ = on || force_enabled(); }
  bool enabled() const { return enabled_; }

  /// True when the GPUPIPE_FORCE_HAZARDS environment variable is set to a
  /// non-empty value other than "0" (read once per process).
  static bool force_enabled();

  /// Validates `effects` for an operation starting at `start` and finishing
  /// at `end`, then records its accesses. Throws HazardError on conflict;
  /// only then are the labels of the two operations formatted.
  void begin_op(const MemEffects& effects, SimTime start, SimTime end, const OpLabel& label);
  /// As above with a fixed-text label (a string literal: records keep the
  /// pointer).
  void begin_op(const MemEffects& effects, SimTime start, SimTime end, const char* label) {
    begin_op(effects, start, end, OpLabel{label});
  }

  /// Drops records of accesses that completed at or before `now`.
  void prune(SimTime now);

  /// Number of live access records (for tests).
  std::size_t live_records() const { return records_.size(); }

  void clear() { records_.clear(); }

 private:
  struct Record {
    MemRange range;
    SimTime end;
    OpLabel label;
    bool is_write;
  };

  const StringTable* names_;
  bool enabled_ = true;
  std::vector<Record> records_;
};

}  // namespace gpupipe::gpu
