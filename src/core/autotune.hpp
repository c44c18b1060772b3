// Autotuning scheduler (extension).
//
// The paper closes with "we will further study how the other parameters
// affect our design and integrate a performance model in an autotuning
// scheduler". This module does both: it sweeps (chunk_size, num_streams)
// candidates and returns the best one together with the full exploration
// record. The measured sweep runs each configuration on the device,
// optionally pre-filtered by the analytic CostModel (an approximation: it
// may drop a winner). The dry-run sweep replays each candidate's plan
// instead, in ascending order of a sound lower bound on that replay
// (core/model.hpp dry_run_lower_bound), and stops once no remaining bound
// can beat the best — the model only prunes, so the pick is exactly the
// full sweep's.
//
// Measurement uses the virtual clock, so tuning is exact and deterministic;
// on a real system the same procedure would measure wall time.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/pipeline.hpp"

namespace gpupipe::core {

/// One explored configuration.
struct TuneCandidate {
  std::int64_t chunk_size = 0;
  int num_streams = 0;
  /// Region time; +inf when the config was skipped: infeasible, or pruned
  /// by the dry-run sweep's lower bound.
  SimTime measured = 0.0;
  bool feasible = true;  ///< false when buffers did not fit the limit

  /// Feasible, but the dry-run sweep never replayed it: its lower bound
  /// exceeded the best makespan found.
  bool pruned() const {
    return feasible && measured == std::numeric_limits<SimTime>::infinity();
  }
};

/// Result of an autotuning sweep.
struct TuneResult {
  std::int64_t chunk_size = 1;
  int num_streams = 1;
  SimTime best_time = 0.0;
  std::vector<TuneCandidate> explored;
};

/// Analytic kernel cost per loop iteration (roofline inputs) for dry-run
/// tuning without a probe execution.
struct KernelCostHint {
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
};

/// Sweep options.
struct TuneOptions {
  std::vector<std::int64_t> chunk_candidates = {1, 2, 4, 8, 16, 32, 64};
  std::vector<int> stream_candidates = {1, 2, 3, 4, 6, 8};
  /// Measured sweep only: when true, the CostModel (seeded by a one-chunk
  /// probe) prunes chunk candidates predicted to be > prune_factor x the
  /// predicted best before any measurement. Specs the model cannot
  /// describe (window_fn splits) sweep every candidate, without the probe.
  bool model_prefilter = true;
  double prune_factor = 3.0;
  /// Cost-model-only mode: score each candidate by replaying its
  /// ExecutionPlan through a private simulation (core/plan.hpp dry_run)
  /// instead of executing the workload — no buffers are allocated and no
  /// kernels run. With kernel_cost also set, not even the probe executes,
  /// so tuning touches the device not at all. The approximate prefilter is
  /// not used; instead candidates replay in ascending order of their exact
  /// lower bound and the sweep stops once no remaining one can beat the
  /// best, so the result equals replaying every candidate. Skipped
  /// candidates stay in `explored` as pruned().
  bool dry_run = false;
  /// Kernel roofline inputs for dry runs; when absent, a one-chunk probe
  /// execution measures seconds-per-iteration instead.
  std::optional<KernelCostHint> kernel_cost;
  /// Threads for the dry-run sweep: it replays waves of up to this many
  /// candidates in bound order concurrently (each replay is a private
  /// simulation). 1 = serial; 0 = one per hardware thread (capped at 8).
  /// The returned TuneResult — explored order, replayed and pruned entries
  /// included — is bit-identical for every value. The measured sweep shares
  /// the device's virtual clock and always runs serially.
  int tune_jobs = 1;
};

/// Measures candidate configurations of `spec` on `g` and returns the best.
/// The spec's own chunk_size/num_streams are ignored; its schedule must be
/// static. The workload runs once per surviving candidate — unless
/// options.dry_run is set, in which case candidates are scored by plan
/// replay without executing (and without allocating) anything, and only
/// those whose lower bound does not exceed the best so far are replayed.
///
/// Candidate lists are normalized before the sweep: duplicates are dropped
/// (first occurrence wins) and chunk candidates above the loop trip count
/// collapse to one trip-sized candidate (they all plan the identical single
/// chunk). The one-chunk probe only executes when something consumes it:
/// a dry sweep without kernel_cost, or a measured sweep whose model
/// prefilter applies and has more than one distinct chunk to rank.
TuneResult autotune(gpu::Gpu& g, PipelineSpec spec, const KernelFactory& make_kernel,
                    const TuneOptions& options = {});

}  // namespace gpupipe::core
