// A lower bound on plan replay.
//
// dry_run_lower_bound is not an estimate but a makespan no replay of the
// compiled plan can beat, in closed form. It lets the replay sweep
// (core/autotune.hpp) skip candidates without changing its pick.
#pragma once

#include "core/plan.hpp"
#include "core/spec.hpp"
#include "gpu/gpu.hpp"

namespace gpupipe::core {

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
