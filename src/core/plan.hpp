// The plan/execute split: an explicit op-graph IR for pipelined regions.
//
// The paper's runtime is a scheduler over a graph of H2D copies, kernel
// launches, and D2H copies with ring-buffer slot-reuse dependencies. This
// header reifies that graph as an ExecutionPlan — a DAG of typed nodes with
// explicit dependency edges, stream assignments, ring-slot bindings, and
// per-node byte/flop costs — so that
//   * one generic PlanExecutor replays any plan against gpu::Gpu (Pipeline,
//     TilePipeline, and MultiPipeline all delegate to it; none issues raw
//     stream operations itself),
//   * the hazard checker can statically prove the schedule race-free before
//     a single operation is issued (ExecutionPlan::validate),
//   * the autotuner can score (chunk_size, num_streams) candidates with a
//     cost-model dry run over the plan — no kernels, no buffers (dry_run),
//   * tools can dump the graph as DOT or a planned timeline as Chrome-trace
//     JSON (to_dot / dry_run's trace) for inspection.
//
// Node order is host-enqueue order, every chunk's copies share one recorded
// event (the node with records_event=true; the others point at it through
// event_node), and the executor reproduces the original wait deduplication
// rules. Builders emit the naive schedule (every chunk uploads its full
// window); the pass pipeline in core/plan_opt.hpp then elides resident halo
// bytes, coalesces segments, and optionally rebalances streams — at the
// default opt level the optimized plan matches the legacy hand-issued
// schedule node for node, so stats and virtual-clock timings are unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/spec.hpp"
#include "gpu/gpu.hpp"
#include "sim/trace.hpp"

namespace gpupipe::core {

struct TileSpec;

/// Operation type of one plan node.
enum class PlanOp {
  H2D,       ///< host->device transfer of a split-index range
  Kernel,    ///< one chunk's (or tile's) kernel launch
  D2H,       ///< device->host transfer of a split-index range
  SlotReuse, ///< waits guarding a ring-slot overwrite (no device work)
  Barrier,   ///< cross-stream join (tile band transition; no device work)
  P2pSend,   ///< device->peer-device halo push of this plan's ring data
  P2pRecv,   ///< peer-device->ring halo landing (replaces a host upload)
  DeviceHandoff, ///< device-resident inter-job handoff (replaces D2H/H2D)
};

inline const char* to_string(PlanOp op) {
  switch (op) {
    case PlanOp::H2D: return "H2D";
    case PlanOp::Kernel: return "Kernel";
    case PlanOp::D2H: return "D2H";
    case PlanOp::SlotReuse: return "SlotReuse";
    case PlanOp::Barrier: return "Barrier";
    case PlanOp::P2pSend: return "P2pSend";
    case PlanOp::P2pRecv: return "P2pRecv";
    case PlanOp::DeviceHandoff: return "DeviceHandoff";
  }
  return "?";
}

/// One physical transfer piece of an H2D/D2H node after ring-wrap
/// decomposition: `count` split indices landing in slots
/// [slot, slot + count), shipped as `height` rows of `width` bytes.
struct PlanSegment {
  std::int64_t slot = 0;
  std::int64_t index = 0;
  std::int64_t count = 0;
  std::int64_t row_slot = 0;  ///< tile plans: first buffer row of the piece
  std::int64_t row = 0;       ///< tile plans: first host row of the piece
  std::int64_t rows = 1;      ///< tile plans: rows in this piece
  Bytes width = 0;            ///< contiguous bytes per row
  Bytes height = 1;           ///< rows the copy engine sees
  Bytes bytes() const { return width * height; }
};

/// One declared access of a kernel node, in split-index space (and, for
/// tile plans, a host row range). The executor turns it into precise device
/// MemRanges through the array binding; validate() reduces it to ring-slot
/// ranges.
struct PlanAccess {
  int array = -1;
  std::int64_t lo = 0;  ///< split-index (column) range [lo, hi)
  std::int64_t hi = 0;
  std::int64_t row_lo = 0;  ///< tile plans: host row range [row_lo, row_hi)
  std::int64_t row_hi = 0;
  bool write = false;
};

/// One node of the op graph.
struct PlanNode {
  int id = 0;
  PlanOp op = PlanOp::Kernel;
  int stream = 0;   ///< issuing stream (round-robin slot, not a gpu id)
  int array = -1;   ///< mapped-array index for H2D/D2H/SlotReuse
  std::int64_t chunk = -1;  ///< chunk (or tile) counter the node belongs to
  /// H2D/D2H: the split-index range moved. Kernel: the loop-iteration
  /// subrange. SlotReuse: the incoming range whose slots are being reused.
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t row_begin = 0;  ///< tile plans: host row range of the block
  std::int64_t row_end = 0;
  std::int64_t tile_i = -1;  ///< tile plans: tile coordinates
  std::int64_t tile_j = -1;
  /// Ids of earlier nodes this node waits on, in wait-issue order.
  std::vector<int> deps;
  std::vector<PlanSegment> segments;  ///< transfer pieces (H2D/D2H)
  std::vector<PlanAccess> accesses;   ///< declared effects (Kernel)
  double flops = 0.0;  ///< optional cost annotation
  Bytes bytes = 0;     ///< payload bytes (transfers; feeds stats/costs)
  /// True on the node that records this group's completion event (one per
  /// chunk copy group / kernel / drain group).
  bool records_event = false;
  /// Id of the node whose recorded event represents this node's completion
  /// (a chunk's copies all share the last copy's event); -1 for nodes with
  /// no device work (SlotReuse/Barrier).
  int event_node = -1;
  /// P2pSend/P2pRecv: the neighbouring shard on the other end of the halo
  /// link (a shard index, not a device id — the exchange resolves it).
  int peer = -1;
  std::string label;
};

/// Per-array metadata a plan carries (enough to validate and cost it
/// without the spec that produced it).
struct PlanArrayInfo {
  std::string name;
  MapType map = MapType::To;
  std::int64_t ring_len = 1;   ///< ring slots (columns for tile plans)
  std::int64_t ring_rows = 1;  ///< buffer rows (tile plans; 1 for 1-D rings)
  Bytes unit_bytes = 0;        ///< bytes per split index
  bool pinned = true;          ///< host side pinned (transfer bandwidth)
  /// Inter-job stitching wiring: >= 0 marks the array as flowing through a
  /// device-resident handoff link instead of the host (see spec.hpp's
  /// ArrayHandoff). The stitch pass rewrites this array's D2H tail
  /// (handoff_out) or H2D head (!handoff_out) into DeviceHandoff nodes.
  int handoff_link = -1;
  bool handoff_out = false;    ///< true: produce side; false: consume side
};

/// Execution counters for one or more run() calls.
struct PipelineStats {
  std::int64_t chunks = 0;
  std::int64_t h2d_copies = 0;
  std::int64_t d2h_copies = 0;
  Bytes h2d_bytes = 0;
  Bytes d2h_bytes = 0;
  std::int64_t kernels = 0;
  std::int64_t events = 0;
  std::int64_t stream_waits = 0;
  std::int64_t p2p_copies = 0;  ///< P2pSend/P2pRecv nodes issued
  Bytes p2p_bytes = 0;          ///< halo bytes pushed device-to-device
  std::int64_t handoff_copies = 0;  ///< DeviceHandoff nodes issued
  Bytes handoff_bytes = 0;          ///< bytes kept device-resident per side
};

/// The complete op graph of one region execution. Nodes are listed in
/// host-enqueue order (every dep precedes its dependent); nodes sharing a
/// stream execute in list order.
struct ExecutionPlan {
  std::vector<PlanNode> nodes;
  std::vector<PlanArrayInfo> arrays;
  int num_streams = 1;
  std::int64_t chunk_size = 1;
  std::string origin = "pipeline";  ///< builder tag (DOT title)

  /// Total payload bytes of the nodes with the given op (e.g. the plan's
  /// post-optimization H2D volume). After optimization node bytes equal the
  /// sum of their segment bytes, so this matches what executing the plan
  /// actually transfers.
  Bytes transfer_bytes(PlanOp op) const {
    Bytes total = 0;
    for (const PlanNode& n : nodes)
      if (n.op == op) total += n.bytes;
    return total;
  }

  /// Static hazard validation: proves every pair of conflicting ring-slot
  /// accesses is ordered by stream order + dependency edges. Throws
  /// gpu::HazardError on a missing edge (e.g. a deleted slot-reuse
  /// dependency) — before anything executes.
  void validate() const;

  /// validate() at most once per plan object: the first call that returns
  /// marks this object proven, later calls return at once. A throw leaves it
  /// unproven, so a hazardous plan fails every call. Copies start unproven,
  /// and the mark is never serialized or fingerprinted. Meant for plans no
  /// longer mutated, such as the plan-cache-shared ones every same-shape
  /// Pipeline enqueues; two threads may race to prove one (both validate).
  void validate_once() const {
    if (proven_.test()) return;
    validate();
    proven_.set();
  }
  /// Whether validate_once() has proven this object.
  bool proven() const { return proven_.test(); }

  /// Writes the op graph in Graphviz DOT form (one cluster per stream,
  /// dependency edges between nodes).
  void to_dot(std::ostream& os) const;

 private:
  /// validate_once()'s mark. It stays with the object it was set on:
  /// copies and moves start cleared, and assigning a plan over a proven one
  /// clears it. Atomic, so threads sharing a const plan may set it.
  class ProofMark {
   public:
    ProofMark() = default;
    ProofMark(const ProofMark&) noexcept {}
    ProofMark& operator=(const ProofMark&) noexcept {
      set_.store(false, std::memory_order_relaxed);
      return *this;
    }
    bool test() const noexcept { return set_.load(std::memory_order_acquire); }
    void set() const noexcept { set_.store(true, std::memory_order_release); }

   private:
    mutable std::atomic<bool> set_{false};
  };
  ProofMark proven_;
};

/// Executor-state inputs PlanBuilder::pipeline needs to mirror the real
/// buffers: the (clamped) ring length and host pinned-ness per array, plus
/// the chunk-counter offset (non-zero when planning the remainder of an
/// adaptively re-chunked loop).
struct PipelineBuildState {
  std::vector<std::int64_t> ring_lens;
  std::vector<bool> pinned;
  std::int64_t first_chunk = 0;
};

/// Same for PlanBuilder::tiles: the 2-D ring extents per array.
struct TileBuildState {
  std::vector<std::int64_t> ring_rows;
  std::vector<std::int64_t> ring_cols;
  std::vector<bool> pinned;
};

/// A multi-device region: one PipelineSpec plus the per-device share of the
/// split loop (positive weights, one per device).
struct MultiSpec {
  PipelineSpec spec;
  std::vector<double> weights;
};

/// Compiles region specs into ExecutionPlans. Pure arithmetic — never
/// touches a device.
class PlanBuilder {
 public:
  /// Plans iterations [from, to) of `spec` at the given chunk/stream shape,
  /// against buffers described by `state`.
  static ExecutionPlan pipeline(const PipelineSpec& spec, std::int64_t chunk_size,
                                int num_streams, std::int64_t from, std::int64_t to,
                                const PipelineBuildState& state);

  /// Predicted-buffer convenience: plans the full loop of `spec` at its own
  /// chunk_size/num_streams, with ring lengths derived from the layout
  /// formulas and hosts assumed pinned (no device needed — used by tools
  /// and the dry-run autotuner before any allocation exists).
  static ExecutionPlan pipeline(const PipelineSpec& spec);
  /// Same, but reads host pinned-ness from `g` (still no allocations).
  static ExecutionPlan pipeline(const gpu::Gpu& g, const PipelineSpec& spec);

  /// Plans a 2-D tiled region (declared in core/tile_pipeline.hpp).
  static ExecutionPlan tiles(const TileSpec& spec, const TileBuildState& state);

  /// Plans a multi-device region: slices the split loop by `weights` (see
  /// layout::partition_weighted) and returns one predicted plan per device
  /// (empty plan for an empty slice).
  static std::vector<ExecutionPlan> multi(const MultiSpec& ms);
};

/// One shard of a multi-device decomposition: a contiguous slice
/// [begin, end) of the split loop plus the sub-spec (shard halos wired)
/// whose plan runs it on one device.
struct ShardSlice {
  int shard = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  PipelineSpec spec;
};

/// Slices `spec`'s loop across shards by `weights` (granule = chunk_size;
/// zero-weight / empty slices are dropped and shard indices renumbered) and
/// wires ShardHalo entries between neighbours for every input array whose
/// window overhangs its stride: the overhang of shard s's trailing windows
/// lands via P2P from shard s+1 instead of a host upload, and shard s+1
/// pushes the overlapping head of its own (host-uploaded) first window.
/// Requires a static schedule and dim-0 affine splits throughout.
std::vector<ShardSlice> shard_pipeline_specs(const PipelineSpec& spec,
                                             const std::vector<double>& weights);

/// Mirrors Pipeline's memory-limit solving without allocating anything:
/// shrinks chunk_size (then num_streams) until the predicted ring
/// footprints fit `limit`. Throws gpu::OomError when even (1, 1) does not.
std::pair<std::int64_t, int> solve_pipeline_memory(const gpu::Gpu& g,
                                                   const PipelineSpec& spec, Bytes limit);

/// A memory-solved pipeline shape plus the footprint it was accepted at.
struct SolvedShape {
  std::int64_t chunk_size = 1;
  int num_streams = 1;
  Bytes footprint = 0;  ///< predicted footprint at (chunk_size, num_streams)
};

/// solve_pipeline_memory, but also returns the footprint of the final shape
/// so callers that need both (the admission controller commits exactly what
/// the solver accepted) pay for one lookup instead of two.
SolvedShape solve_pipeline_shape(const gpu::Gpu& g, const PipelineSpec& spec, Bytes limit);

/// Predicted total device ring-buffer footprint of `spec` at the given
/// chunk/stream shape — exactly what constructing a Pipeline at that shape
/// would allocate. Pure arithmetic; the admission controller uses it to
/// commit memory before any buffer exists.
Bytes predicted_pipeline_footprint(const gpu::Gpu& g, const PipelineSpec& spec,
                                   std::int64_t chunk_size, int num_streams);

/// How a PlanExecutor reaches one mapped array's device buffer.
class PlanArrayBinding {
 public:
  virtual ~PlanArrayBinding() = default;
  /// Issues the transfers of an H2D/D2H node on `s`; returns the number of
  /// copy calls made.
  virtual int transfer(gpu::Stream& s, const PlanNode& n, bool to_device) = 0;
  /// Appends the device ranges a kernel access covers (hazard effects).
  virtual void append_ranges(std::vector<gpu::MemRange>& out, const PlanAccess& a) const = 0;
};

/// Binding for the 1-D pipeline's RingBuffer.
class RingBufferBinding final : public PlanArrayBinding {
 public:
  explicit RingBufferBinding(RingBuffer& ring) : ring_(&ring) {}
  int transfer(gpu::Stream& s, const PlanNode& n, bool to_device) override {
    // Segment-driven: optimized nodes may cover less than [begin, end) (the
    // resident halo was elided) or fuse wrap pieces differently, so the
    // segments are the authoritative description of what moves.
    for (const auto& seg : n.segments) {
      if (to_device)
        ring_->copy_in_run(s, seg.slot, seg.index, seg.count);
      else
        ring_->copy_out_run(s, seg.slot, seg.index, seg.count);
    }
    return static_cast<int>(n.segments.size());
  }
  void append_ranges(std::vector<gpu::MemRange>& out, const PlanAccess& a) const override {
    ring_->append_ranges(out, a.lo, a.hi);
  }

 private:
  RingBuffer* ring_;
};

/// Builds the KernelDesc for a Kernel node (the executor adds the mapped
/// arrays' memory effects and the default name itself).
using PlanKernelMaker = std::function<gpu::KernelDesc(const PlanNode&)>;

/// Issues the device work of P2pSend/P2pRecv/DeviceHandoff nodes. The
/// executor cannot do this itself — a halo or handoff link crosses plans
/// (and possibly devices), so the sharding runtime (src/sched/shard.*) or
/// the stitching runtime (src/sched/scheduler.*) binds an exchange that
/// knows both ends' buffers and the staging area between them. Executing a
/// plan containing such nodes without an exchange bound is an error.
class PlanExchange {
 public:
  virtual ~PlanExchange() = default;
  /// Called in enqueue order on the node's own stream; must issue the
  /// copies asynchronously (stream-ordered) like any other plan node.
  virtual void issue(gpu::Gpu& g, gpu::Stream& s, const PlanNode& n) = 0;
};

/// Replays an ExecutionPlan against a Gpu: issues transfers through the
/// array bindings, records/waits events exactly as the node graph
/// prescribes, and accumulates PipelineStats. One executor instance is
/// reused across runs; bind() re-points it at the current streams/buffers.
class PlanExecutor {
 public:
  PlanExecutor(gpu::Gpu& gpu, PipelineStats* stats) : gpu_(gpu), stats_(stats) {}

  /// Binds the stream set and per-array buffers the next enqueue() uses
  /// (plan array/stream indices index into these vectors).
  void bind(std::vector<gpu::Stream*> streams, std::vector<PlanArrayBinding*> arrays);

  /// Binds the halo exchange P2pSend/P2pRecv nodes dispatch to (nullptr to
  /// unbind). The exchange must outlive every enqueue() that uses it.
  void set_exchange(PlanExchange* exchange) { exchange_ = exchange; }

  /// Issues every node of `plan` without blocking.
  void enqueue(const ExecutionPlan& plan, const PlanKernelMaker& make_kernel);
  /// Drains the bound streams (in order) and drops event bookkeeping.
  void wait();
  void run(const ExecutionPlan& plan, const PlanKernelMaker& make_kernel) {
    enqueue(plan, make_kernel);
    wait();
  }

  /// The most recent kernel task (adaptive probe reads its duration).
  const sim::TaskPtr& last_kernel() const { return last_kernel_; }

 private:
  void issue_waits(const ExecutionPlan& plan, const PlanNode& n, gpu::Stream& s);

  gpu::Gpu& gpu_;
  PipelineStats* stats_;
  PlanExchange* exchange_ = nullptr;
  std::vector<gpu::Stream*> streams_;
  std::vector<PlanArrayBinding*> arrays_;
  std::vector<gpu::EventPtr> events_;  // indexed by node id
  std::vector<const gpu::GpuEvent*> seen_;
  sim::TaskPtr last_kernel_;
};

/// Kernel-cost inputs for a cost-model dry run. Transfer and API costs come
/// from the DeviceProfile; the kernel term is either a roofline over
/// per-iteration flops/bytes or a measured per-iteration time.
struct DryRunCost {
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
  /// Used when flops_per_iter and bytes_per_iter are both zero (e.g. seeded
  /// from a probe kernel's measured duration).
  SimTime seconds_per_iter = 0.0;
  /// Machine-wide live stream count during the region (feeds the per-stream
  /// scheduling overhead); 0 means plan.num_streams.
  int live_streams = 0;
};

/// Result of a dry run: the predicted host makespan of the region and the
/// planned timeline (lanes "s0", "s1", ... — one per plan stream).
struct DryRunResult {
  SimTime makespan = 0.0;
  sim::Trace trace;
};

/// What a dry run records besides its makespan.
enum class DryRunTrace {
  Spans,         ///< the planned timeline: one labelled span per task
  MakespanOnly,  ///< no labels formatted or interned, no spans recorded
};

/// Replays `plan` through a private discrete-event simulation using the
/// same engine topology, API overheads, transfer-bandwidth curve, and
/// event/wait semantics as gpu::Gpu — but with zero device interaction: no
/// allocations, no kernels, no copies. The returned makespan matches what
/// executing the plan on an idle Gpu with the same profile would measure.
/// DryRunTrace::MakespanOnly leaves `trace` empty and skips all span
/// bookkeeping (callers that keep only the number: the plan cache's
/// estimate memo, the fusion gate); the makespan is bit-identical.
DryRunResult dry_run(const ExecutionPlan& plan, const gpu::DeviceProfile& profile,
                     const DryRunCost& cost = {}, DryRunTrace mode = DryRunTrace::Spans);

/// Solo-runtime estimate of `spec` on `g`: solves the memory limit under
/// `limit` (0 = the device's free memory), plans the region at the solved
/// shape, and scores it with a cost-model dry run. No allocations, no
/// kernels. The shortest-job-first queue policy and least-loaded placement
/// in src/sched rank jobs with this number.
SimTime estimate_pipeline_runtime(const gpu::Gpu& g, PipelineSpec spec,
                                  const DryRunCost& cost = {}, Bytes limit = 0);

/// estimate_pipeline_runtime against a budget fixed earlier: solves the
/// shape under exactly `budget` (the device's free memory is not read) and
/// scores it. `spec` must already be validated. The scheduler records each
/// job's budget at submit() and estimates at arrival, when other tenants'
/// rings already hold device memory.
SimTime estimate_pipeline_runtime_at(const gpu::Gpu& g, PipelineSpec spec,
                                     const DryRunCost& cost, Bytes budget);

}  // namespace gpupipe::core
