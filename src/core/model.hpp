// Analytic pipeline cost model.
//
// Predicts per-chunk engine times and the region makespan for a pipeline
// spec on a given device profile. Used by the adaptive schedule (probe the
// kernel, model the rest) and by the measured autotuner's candidate
// pre-filtering; also exposed publicly so users can reason about
// configurations without running them. The model is deliberately simple —
// steady-state bottleneck analysis over the copy/compute engines plus host
// enqueue cost — and is validated against the simulator in tests.
//
// dry_run_lower_bound is the model's exact counterpart: not an estimate but
// a makespan no plan replay can beat, which lets the dry-run autotuner skip
// candidates without changing its pick.
#pragma once

#include <algorithm>

#include "core/plan.hpp"
#include "core/spec.hpp"
#include "gpu/gpu.hpp"

namespace gpupipe::core {

/// Per-chunk cost breakdown under one configuration.
struct ChunkCost {
  SimTime copy_in = 0.0;   ///< H2D engine time per steady-state chunk
  SimTime kernel = 0.0;    ///< compute engine time per chunk
  SimTime copy_out = 0.0;  ///< D2H engine time per chunk
  SimTime host = 0.0;      ///< host enqueue time per chunk

  /// The pipeline's steady-state rate limiter for a unified copy engine.
  SimTime bottleneck_unified() const {
    return std::max({copy_in + copy_out, kernel, host});
  }
  /// ... and for split copy engines.
  SimTime bottleneck_split() const { return std::max({copy_in, kernel, copy_out, host}); }
};

/// Cost model bound to one device profile and one spec.
class CostModel {
 public:
  /// `per_iter_kernel` is the kernel's duration per loop iteration
  /// (excluding launch latency) — measured from a probe or estimated.
  CostModel(const gpu::DeviceProfile& profile, const PipelineSpec& spec,
            SimTime per_iter_kernel);

  /// Whether the model can describe `spec`: affine splits only (a
  /// window_fn's ranges are opaque to the window arithmetic).
  static bool supports(const PipelineSpec& spec);

  /// Engine/host time of one steady-state chunk of `c` iterations.
  ChunkCost chunk_cost(std::int64_t c) const;

  /// Predicted region makespan with chunk size `c` (streams affect only
  /// buffer sizing; the engine bottleneck analysis assumes enough streams
  /// to keep the pipeline full, i.e. >= 2).
  SimTime region_time(std::int64_t c) const;

  /// The chunk size among powers of two (plus the given candidates) that
  /// minimises predicted region time, subject to ring buffers fitting
  /// `mem_limit` with `streams` streams.
  std::int64_t best_chunk(const gpu::Gpu& g, Bytes mem_limit, int streams) const;

 private:
  const gpu::DeviceProfile& profile_;
  const PipelineSpec& spec_;
  SimTime per_iter_kernel_;
};

/// A sound lower bound on the dry-run makespan of `spec` at its own
/// chunk_size/num_streams: never above PlanCache::estimate(g, spec, cost),
/// i.e. dry_run of the compiled plan. Closed form over three chunk classes
/// (chunk 0, the steady chunks, the last chunk), so it costs O(arrays) and
/// builds no plan. Every copy and kernel pays the per-stream scheduling
/// overhead dry_run charges, and nothing starts before the first API call.
/// The bound is the largest of:
///   1. the copy engine(s): every copy at its cheapest, summed per engine
///      (one sum for a unified engine) and spread over its channels;
///   2. compute: the cheapest upload, then every kernel spread over
///      max_concurrent_kernels, then the cheapest drain;
///   3. at opt_level <= 1: the busiest stream, which runs its round-robin
///      chunks' copies and kernels in series;
///   4. at opt_level <= 1: the host's API calls (copies, kernels, recorded
///      events, one drain per stream).
/// Opt level 2 may rebalance copies across streams and fuse kernels, so it
/// keeps terms 1 and 2 with a single kernel launch. Uploads count what the
/// builder's halo reuse cannot elide: chunk 0's full window, then the indices no
/// earlier window touched (every window at opt_level 0). The result is
/// already shrunk by a 1e-9 relative margin, so summation-order rounding
/// never lifts it above the replay. Returns 0 (prunes nothing) for
/// window_fn splits, shard halos and handoffs.
SimTime dry_run_lower_bound(const gpu::Gpu& g, const PipelineSpec& spec,
                            const DryRunCost& cost);

}  // namespace gpupipe::core
