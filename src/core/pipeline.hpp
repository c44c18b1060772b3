// The pipeline executor — the paper's core contribution.
//
// Given a PipelineSpec (schedule, chunk_size, num_streams, pipeline_map
// clauses, optional memory limit) and a per-chunk kernel factory, a Pipeline
//   1. sizes and pre-allocates one device ring buffer per mapped array,
//      shrinking chunk_size/num_streams until the footprint fits the memory
//      limit (pipeline_mem_limit) or free device memory,
//   2. compiles the split loop into an ExecutionPlan (core/plan.hpp): per
//      chunk, sliding-window H2D copies of newly required input slices, the
//      user's kernel, and D2H copies of produced output slices — round-robin
//      across num_streams GPU streams — with explicit slot-reuse and
//      copy/kernel dependency edges,
//   3. delegates execution to the shared PlanExecutor, which replays the
//      node graph against the Gpu (events, waits, stats) — the Pipeline
//      itself never issues raw stream operations,
//   4. statically validates the plan against the hazard checker before the
//      first node is issued (when hazard tracking is enabled), in addition
//      to the tracker's runtime verification.
//
// The adaptive schedule (the paper's stated future work, implemented here as
// an extension) probes the first chunk, then re-chunks the remaining
// iterations at the chunk size the autotuner's replay sweep picks
// (core/autotune.hpp), seeded with the probe kernel's time per iteration,
// and reconfigures the ring buffers before planning them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hpp"
#include "common/name_index.hpp"
#include "core/buffer.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"
#include "core/spec.hpp"
#include "gpu/gpu.hpp"

namespace gpupipe::core {

class Pipeline;

/// Per-chunk information handed to the kernel factory.
class ChunkContext {
 public:
  /// Zero-based chunk number.
  std::int64_t chunk_index() const { return chunk_; }
  /// The chunk's loop-iteration subrange [begin, end).
  std::int64_t begin() const { return begin_; }
  std::int64_t end() const { return end_; }
  std::int64_t iterations() const { return end_ - begin_; }

  /// Addressing view of a mapped array's ring buffer, by clause name.
  const BufferView& view(std::string_view array_name) const;

 private:
  friend class Pipeline;
  ChunkContext(const Pipeline& p, std::int64_t chunk, std::int64_t begin, std::int64_t end)
      : pipeline_(&p), chunk_(chunk), begin_(begin), end_(end) {}
  const Pipeline* pipeline_;
  std::int64_t chunk_;
  std::int64_t begin_;
  std::int64_t end_;
};

/// Builds the kernel for one chunk. The returned KernelDesc's body reads and
/// writes device data exclusively through the chunk's BufferViews (and any
/// persistent device pointers the caller manages itself). The runtime fills
/// in the kernel's memory effects for the mapped arrays.
using KernelFactory = std::function<gpu::KernelDesc(const ChunkContext&)>;

/// A reusable pipelined offload region bound to one simulated GPU.
class Pipeline {
 public:
  /// Validates the spec, solves the memory limit, pre-allocates ring
  /// buffers, and creates the GPU streams. Throws on an unsatisfiable spec
  /// (e.g. one window alone exceeds the memory limit).
  Pipeline(gpu::Gpu& gpu, PipelineSpec spec);
  ~Pipeline();
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Executes the region once: every chunk's transfers and kernel are
  /// enqueued and the host blocks until the region completes (the
  /// synchronous semantics of a `target` region). May be called repeatedly;
  /// buffers, streams, and the compiled plan are reused.
  void run(const KernelFactory& make_kernel);

  /// Split-phase variant for co-scheduling across devices: enqueue() issues
  /// every chunk without blocking; wait() drains the region and resets the
  /// dependency bookkeeping. Only the static schedule supports split-phase
  /// execution (the adaptive probe needs an intermediate drain).
  void enqueue(const KernelFactory& make_kernel);
  void wait();

  /// Prints execution_plan() one chunk per line: the chunk's iteration
  /// subrange, its kernel's stream, and its transfer nodes by label (h2d,
  /// p2p-recv, handoff-in, p2p-send, d2h, handoff-out) around "kernel".
  /// Useful for debugging directives.
  void print_plan(std::ostream& os) const;

  /// The compiled op graph run() executes (static schedule; the adaptive
  /// schedule re-plans around its probe). Rebuilt whenever buffers are
  /// reconfigured; fingerprintable static specs share the immutable plan
  /// object with the process-wide PlanCache (and with other pipelines of
  /// the same shape).
  const ExecutionPlan& execution_plan() const { return *plan_; }

  /// Pass statistics of the most recent plan compilation.
  const OptReport& opt_report() const { return opt_report_; }

  /// Derives a telemetry snapshot from this pipeline's plan, stats,
  /// optimization report, and ring buffers into `reg` (metric names get
  /// `prefix` prepended — used by MultiPipeline for per-device namespaces).
  /// Pull-based: nothing is recorded during execution.
  void collect_metrics(telemetry::Registry& reg, const std::string& prefix = {}) const;

  /// Re-points a mapped array at a different host allocation of identical
  /// shape (e.g. ping-pong buffers between Jacobi sweeps). Takes effect for
  /// subsequent run() calls; device buffers are reused.
  void rebind_host(std::string_view array_name, std::byte* host);

  /// Service time of the last kernel this pipeline issued (0 before the
  /// first): the probe time the adaptive schedule and autotune's one-chunk
  /// probe read. Exact, unlike a span's end - start on a late clock.
  SimTime last_kernel_time() const {
    return executor_.last_kernel() ? executor_.last_kernel()->duration() : 0.0;
  }

  /// Chunk size actually in use (after memory-limit shrinking / adaptive
  /// tuning).
  std::int64_t effective_chunk_size() const { return chunk_size_; }
  /// Stream count actually in use.
  int effective_streams() const { return static_cast<int>(streams_.size()); }
  /// The GPU streams this pipeline issues on — the scheduler records
  /// completion events on them to track a job without draining the device.
  const std::vector<gpu::Stream*>& streams() const { return streams_; }
  /// Binds the device links mapped array `ai` (spec order) pushes into and
  /// pulls from — see DeviceLink; either may be null. Sharded sub-regions
  /// (src/sched/shard.*) and stitched lineage jobs (src/sched/scheduler.*)
  /// bind them. Static schedule only, so the ring they address is never
  /// reallocated; the links must outlive every enqueue()/run() using them.
  void bind_link(std::size_t ai, DeviceLink* push, DeviceLink* pull);
  /// Total device bytes held by the pre-allocated ring buffers.
  Bytes buffer_footprint() const;
  const PipelineStats& stats() const { return stats_; }
  const PipelineSpec& spec() const { return spec_; }
  gpu::Gpu& device() { return gpu_; }

  /// Ring length (in split-dim indices) the executor provisions for an
  /// array under chunk size `c` and `s` streams: enough for all in-flight
  /// chunk windows plus the dependency window (exposed for tests).
  static std::int64_t ring_len_for(const ArraySpec& a, std::int64_t c, int s);

  /// Ring length for `a` under this spec's loop range: the affine formula,
  /// or a scan of the loop for window-function splits (which also validates
  /// monotonicity and output disjointness).
  std::int64_t ring_len_for_spec(const ArraySpec& a, std::int64_t c, int s) const;

 private:
  struct ArrayState {
    ArraySpec spec;
    std::unique_ptr<RingBuffer> ring;
    std::unique_ptr<RingBufferBinding> binding;
  };

  /// (Re)allocates ring buffers, recompiles the plan, and re-binds the
  /// executor for the current chunk_size/stream count.
  void configure_buffers();
  /// Compiles iterations [from, to) against the current buffers.
  ExecutionPlan build_plan(std::int64_t from, std::int64_t to, std::int64_t first_chunk) const;
  /// Statically validates `p` when hazards are enabled — once per plan
  /// object, so every Pipeline sharing a cached plan reuses the first proof.
  void maybe_validate(const ExecutionPlan& p) const;
  /// Adapts the KernelFactory to the executor's node-level interface.
  PlanKernelMaker maker(const KernelFactory& make_kernel) const;
  /// Adaptive extension: the replay sweep's chunk size for a probe kernel
  /// of `probe_kernel_time` over `probe_chunk` iterations.
  std::int64_t adaptive_chunk_size(SimTime probe_kernel_time,
                                   std::int64_t probe_chunk) const;

  friend class ChunkContext;
  const BufferView& view_of(std::string_view name) const;

  gpu::Gpu& gpu_;
  PipelineSpec spec_;
  Bytes mem_limit_ = 0;
  std::int64_t chunk_size_ = 1;
  std::vector<gpu::Stream*> streams_;
  std::vector<ArrayState> arrays_;
  NameIndex index_;  ///< array name -> arrays_ position (view_of/rebind_host)
  PipelineStats stats_;
  /// Compiled full-loop plan for the current shape — immutable and possibly
  /// shared with the PlanCache and other same-shape pipelines.
  std::shared_ptr<const ExecutionPlan> plan_;
  /// Report of the latest optimize_plan call (build_plan is const but
  /// compilation is observable state, hence mutable).
  mutable OptReport opt_report_;
  PlanExecutor executor_;
};

}  // namespace gpupipe::core
