// Plan optimization passes — plan-to-plan transforms over a built
// ExecutionPlan, and the report of what building and optimizing saved.
//
// PlanBuilder (core/plan.hpp) already emits the optimized schedule of
// levels 0 and 1: at opt_level >= 1 its ring-cell tracker uploads only the
// indices a chunk's window lacks, with kernels depending on the copy that
// landed each resident slice and slot-reuse guards over exactly the cells
// overwritten (the report's `halo-reuse` entry, measured against the naive
// full-window schedule); and at every level an array wired to a handoff
// link moves through DeviceHandoff nodes instead of the host (the `stitch`
// entry — a lowering of the scheduler's placement, not an optimization).
// What is left for optimize_plan are the level-2 passes:
//
//   1. stream rebalance: greedily re-assigns transfer nodes (with their
//      guarding SlotReuse nodes) to the least-loaded stream by byte cost.
//      Not on by default: it reshapes the schedule beyond the paper's
//      round-robin placement;
//   2. kernel fusion: merges adjacent same-stream kernel nodes with
//      contiguous iteration ranges and compatible access shapes into one
//      launch, when no intervening transfer or drain hazard orders between
//      them. Cost-gated: when a device profile is supplied the pass keeps
//      the fused plan only if a dry run predicts it faster (fusing can erase
//      launch rounds but also delay drains past long kernels).
//
// Every pass preserves ExecutionPlan::validate() — it would be cheating to
// skip the guards the builder proved necessary.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/plan.hpp"

namespace gpupipe::core {

/// What one pass did to the plan.
struct PassStats {
  std::string pass;
  std::int64_t nodes_removed = 0;  ///< nodes dropped from the plan
  std::int64_t nodes_changed = 0;  ///< nodes shrunk / merged / re-assigned
  Bytes bytes_saved = 0;           ///< transfer bytes eliminated
  /// Per-array share of bytes_saved (plan array order, zero entries kept).
  std::vector<std::pair<std::string, Bytes>> bytes_saved_by_array;
  /// Wall time optimize_plan spent in the pass; 0 for the entries the
  /// builder reports (their work is part of the build). Never serialized:
  /// reports read back from disk or a bundle carry 0, so records stay
  /// reproducible.
  double elapsed_s = 0.0;
};

/// Before/after accounting of a build (PlanBuilder's `report` argument),
/// of one optimize_plan call, or of both in sequence (append).
struct OptReport {
  std::vector<PassStats> passes;
  Bytes h2d_bytes_before = 0;
  Bytes h2d_bytes_after = 0;
  Bytes d2h_bytes_before = 0;
  Bytes d2h_bytes_after = 0;
  std::int64_t nodes_before = 0;
  std::int64_t nodes_after = 0;
  /// Naive-schedule host transfer bytes the builder moved through
  /// device-resident handoffs instead (both directions; counted once per
  /// naive node).
  Bytes stitched_bytes = 0;
  /// Kernel launches erased by the fusion pass.
  std::int64_t fused_kernels = 0;

  /// Continues this report with `later`'s, which ran on the plan this one
  /// ends with: its passes follow, the after-numbers become its, and the
  /// before-numbers stay.
  void append(const OptReport& later);
};

/// Runs the level-2 passes (stream rebalance, then kernel fusion) over a
/// plan PlanBuilder built at `opt_level`, in place; levels 0 and 1 leave it
/// as built. Halo reuse happens only in the builder: a plan built at level
/// 0 stays naive whatever level it is optimized at, so build at the level
/// you want. `profile`/`cost` (optional) let the fusion pass arbitrate with
/// a cost-model dry run — without a profile fusion is gated on
/// launch-overhead savings alone. The report's before-numbers describe the
/// plan as passed in; append it to the builder's report for the naive
/// baseline.
OptReport optimize_plan(ExecutionPlan& plan, int opt_level,
                        const gpu::DeviceProfile* profile = nullptr,
                        const DryRunCost& cost = {});

}  // namespace gpupipe::core
