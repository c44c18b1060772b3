// Autotuning scheduler (extension).
//
// The paper closes with "we will further study how the other parameters
// affect our design and integrate a performance model in an autotuning
// scheduler". This module does both, with plan replay as the performance
// model: it scores (chunk_size, num_streams) candidates by replaying each
// one's ExecutionPlan through a private simulation (core/plan.hpp dry_run)
// and returns the best together with the full exploration record. Nothing
// executes and nothing is allocated. Candidates replay in ascending order
// of a sound lower bound on that replay (core/model.hpp
// dry_run_lower_bound), and the sweep stops once no remaining bound can
// beat the best — the bound only prunes, so the pick is exactly the full
// sweep's.
//
// autotune seeds the kernel term from an analytic hint or a one-chunk probe
// execution; the adaptive schedule (core/pipeline.hpp) re-chunks through
// the same sweep, seeded from its own probe. Replays never read the
// device's clock and a probe reads its kernel task's service time, so a
// sweep's result is bit-identical on every call.
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
  /// Replayed region makespan; +inf when the config was skipped: infeasible,
  /// or pruned by the lower bound.
  SimTime measured = 0.0;
  bool feasible = true;  ///< false when buffers did not fit the limit

  /// Feasible, but never replayed: its lower bound exceeded the best
  /// makespan found.
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

/// Analytic kernel cost per loop iteration (roofline inputs) for tuning
/// without a probe execution.
struct KernelCostHint {
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
};

/// Sweep options.
struct TuneOptions {
  std::vector<std::int64_t> chunk_candidates = {1, 2, 4, 8, 16, 32, 64};
  std::vector<int> stream_candidates = {1, 2, 3, 4, 6, 8};
  /// Must be true: plan replay is the only sweep, and autotune rejects
  /// false with an Error. Kept only because bench/e2e/paper.cpp and
  /// bench/e2e/replay.cpp still assign it.
  bool dry_run = true;
  /// Kernel roofline inputs for the replays; when absent, a one-chunk probe
  /// execution measures seconds-per-iteration instead.
  std::optional<KernelCostHint> kernel_cost;
  /// Threads for the sweep: it replays waves of up to this many candidates
  /// in bound order concurrently (each replay is a private simulation).
  /// 1 = serial; 0 = one per hardware thread (capped at 8). The returned
  /// TuneResult — explored order, replayed and pruned entries included — is
  /// bit-identical for every value.
  int tune_jobs = 1;
};

/// Scores candidate configurations of `spec` on `g` by plan replay and
/// returns the best. The spec's own chunk_size/num_streams are ignored; its
/// schedule must be static. Buffers are solved against the spec's memory
/// limit capped by the device's free memory.
///
/// Candidate lists are normalized before the sweep: duplicates are dropped
/// (first occurrence wins) and chunk candidates above the loop trip count
/// collapse to one trip-sized candidate (they all plan the identical single
/// chunk). Without options.kernel_cost, the spec's first iteration runs once
/// on `g` (one chunk, one stream) to measure the kernel's seconds per
/// iteration; with it, tuning touches the device not at all.
TuneResult autotune(gpu::Gpu& g, PipelineSpec spec, const KernelFactory& make_kernel,
                    const TuneOptions& options = {});

/// A probe kernel's device time per loop iteration, the seed both probes
/// hand the sweep (autotune's one-chunk probe and the adaptive schedule's
/// first chunk): its service time `kernel_time` over `iters` iterations,
/// less what dry_run adds back to every replayed kernel itself — the
/// stream-arbitration charge of the streams live on `g` (read at once after
/// the probe ran) and the launch latency.
SimTime probe_seconds_per_iter(const gpu::Gpu& g, SimTime kernel_time, std::int64_t iters);

/// The sweep behind autotune and the adaptive re-chunk: every (chunk,
/// streams) pair of `chunks` x `streams` (distinct values, chunks at most
/// the trip count) in explored order, chunks outer. A candidate is
/// infeasible when solving its buffers against `limit` would reshape it.
/// Feasible ones replay `spec` at their shape under `cost`, with
/// cost.live_streams set to the candidate's stream count, in ascending
/// order of their lower bound, in waves of up to `jobs` (see
/// TuneOptions::tune_jobs), until no bound can beat the best. The pick is
/// the first of the fastest in explored order. `spec` must be a valid
/// static spec; throws when no candidate is feasible.
TuneResult replay_sweep(const gpu::Gpu& g, const PipelineSpec& spec,
                        const std::vector<std::int64_t>& chunks,
                        const std::vector<int>& streams, const DryRunCost& cost, Bytes limit,
                        int jobs);

}  // namespace gpupipe::core
