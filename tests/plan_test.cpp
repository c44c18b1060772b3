// Tests for the ExecutionPlan IR: executed timelines respect the plan's
// dependency edges across chunk/stream/window sweeps, static validation
// rejects tampered plans, the builders reject out-of-range blocks and halo
// wiring with their messages, the introspection dumps are well-formed, and
// makespan-only dry runs match traced ones bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/layout.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"
#include "core/tile_pipeline.hpp"
#include "gpu/device_profile.hpp"
#include "gpu/hazard.hpp"

namespace gpupipe::core {
namespace {

bool has_device_work(const PlanNode& n) {
  return n.op == PlanOp::H2D || n.op == PlanOp::Kernel || n.op == PlanOp::D2H;
}

// Start/end time of every device-work node, recovered by zipping the plan's
// per-stream node order with the per-lane trace spans (streams are FIFO, so
// span start order == issue order).
struct NodeTimes {
  std::vector<SimTime> start, end;
};

NodeTimes recover_node_times(const ExecutionPlan& plan, const sim::Trace& trace,
                             const std::string& lane_prefix) {
  // Per-lane spans of real device work, in execution order.
  std::map<std::string, std::vector<const sim::Span*>> by_lane;
  for (const auto& s : trace.spans()) {
    if (s.kind == sim::SpanKind::H2D || s.kind == sim::SpanKind::D2H ||
        s.kind == sim::SpanKind::Kernel)
      by_lane[trace.lane(s)].push_back(&s);
  }
  for (auto& [lane, spans] : by_lane)
    std::sort(spans.begin(), spans.end(),
              [](const sim::Span* a, const sim::Span* b) { return a->start < b->start; });

  NodeTimes t;
  t.start.assign(plan.nodes.size(), 0.0);
  t.end.assign(plan.nodes.size(), 0.0);
  std::map<std::string, std::size_t> cursor;
  for (const auto& n : plan.nodes) {
    if (!has_device_work(n)) continue;
    const std::string lane = lane_prefix + std::to_string(n.stream);
    const auto& spans = by_lane[lane];
    const std::size_t count = n.op == PlanOp::Kernel ? 1 : n.segments.size();
    std::size_t& at = cursor[lane];
    EXPECT_LE(at + count, spans.size()) << "missing spans for node " << n.label;
    if (at + count > spans.size()) break;
    t.start[static_cast<std::size_t>(n.id)] = spans[at]->start;
    t.end[static_cast<std::size_t>(n.id)] = spans[at + count - 1]->end;
    at += count;
  }
  // Every span must be accounted for by exactly one node.
  for (const auto& [lane, spans] : by_lane)
    EXPECT_EQ(cursor[lane], spans.size()) << "unclaimed spans in " << lane;
  return t;
}

// Resolves a dependency to the device-work ancestors it stands for,
// following through SlotReuse/Barrier nodes (which have no spans).
void device_ancestors(const ExecutionPlan& plan, int id, std::vector<int>& out) {
  const PlanNode& n = plan.nodes[static_cast<std::size_t>(id)];
  if (has_device_work(n)) {
    out.push_back(id);
    return;
  }
  for (int d : n.deps) device_ancestors(plan, d, out);
}

PipelineSpec sweep_spec(std::byte* in, std::byte* out, std::int64_t n, std::int64_t m,
                        std::int64_t window) {
  PipelineSpec spec;
  if (window == 1) {
    spec.loop_begin = 0;
    spec.loop_end = n;
    spec.arrays = {ArraySpec{"in", MapType::To, in, sizeof(double), {n, m},
                             SplitSpec{0, Affine{1, 0}, 1}},
                   ArraySpec{"out", MapType::From, out, sizeof(double), {n, m},
                             SplitSpec{0, Affine{1, 0}, 1}}};
  } else {
    // Stencil-style halo: iteration k reads in[k-1 .. k+window-2].
    spec.loop_begin = 1;
    spec.loop_end = n - 1;
    spec.arrays = {ArraySpec{"in", MapType::To, in, sizeof(double), {n, m},
                             SplitSpec{0, Affine{1, -1}, window}},
                   ArraySpec{"out", MapType::From, out, sizeof(double), {n, m},
                             SplitSpec{0, Affine{1, 0}, 1}}};
  }
  return spec;
}

KernelFactory plain_kernel(std::int64_t m) {
  return [m](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.flops = static_cast<double>(ctx.iterations() * m);
    k.bytes = static_cast<Bytes>(ctx.iterations() * m) * 8;
    return k;
  };
}

class PlanOrdering
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int, std::int64_t>> {};

// The property the whole IR hangs on: replaying the plan on the simulated
// device never starts a node before any of its dependencies finished.
TEST_P(PlanOrdering, ExecutedEventOrderingIsConsistentWithPlanEdges) {
  const auto [chunk, streams, window] = GetParam();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.trace().set_enabled(true);
  const std::int64_t n = 24, m = 64;
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = sweep_spec(in, out, n, m, window);
  spec.chunk_size = chunk;
  spec.num_streams = streams;

  Pipeline p(g, spec);
  g.trace().clear();
  p.run(plain_kernel(m));

  const ExecutionPlan& plan = p.execution_plan();
  const NodeTimes t = recover_node_times(plan, g.trace(), "pipe");
  std::size_t checked = 0;
  for (const auto& node : plan.nodes) {
    if (!has_device_work(node)) continue;
    std::vector<int> ancestors;
    for (int d : node.deps) device_ancestors(plan, d, ancestors);
    for (int a : ancestors) {
      EXPECT_LE(t.end[static_cast<std::size_t>(a)],
                t.start[static_cast<std::size_t>(node.id)])
          << plan.nodes[static_cast<std::size_t>(a)].label << " -> " << node.label;
      ++checked;
    }
  }
  if (plan.nodes.size() > 2) {
    EXPECT_GT(checked, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkStreamWindowSweep, PlanOrdering,
                         ::testing::Combine(::testing::Values(std::int64_t{1}, std::int64_t{2},
                                                              std::int64_t{3}, std::int64_t{5}),
                                            ::testing::Values(1, 2, 4),
                                            ::testing::Values(std::int64_t{1},
                                                              std::int64_t{3})));

TEST(PlanValidate, AcceptsTheBuiltPlan) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  const std::int64_t n = 16, m = 8;
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = sweep_spec(in, out, n, m, 1);
  spec.chunk_size = 2;
  spec.num_streams = 2;
  Pipeline p(g, spec);
  EXPECT_NO_THROW(p.execution_plan().validate());
}

// Halo'd input: slot reuse must wait for the *other* stream's reader, so
// deleting that edge leaves a genuinely unordered overwrite.
PipelineSpec halo_spec(gpu::Gpu& g) {
  const std::int64_t n = 16, m = 8;
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = sweep_spec(in, out, n, m, 3);
  spec.chunk_size = 2;
  spec.num_streams = 2;
  return spec;
}

// Deletes the deps of the first cross-stream guarded SlotReuse node.
bool delete_cross_stream_slot_reuse(ExecutionPlan& plan) {
  for (auto& node : plan.nodes) {
    if (node.op != PlanOp::SlotReuse) continue;
    const bool cross_stream = std::any_of(node.deps.begin(), node.deps.end(), [&](int d) {
      return plan.nodes[static_cast<std::size_t>(d)].stream != node.stream;
    });
    if (cross_stream) {
      node.deps.clear();
      return true;
    }
  }
  return false;
}

TEST(PlanValidate, RejectsAPlanWithADeletedSlotReuseEdge) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  Pipeline p(g, halo_spec(g));
  ExecutionPlan tampered = p.execution_plan();
  ASSERT_TRUE(delete_cross_stream_slot_reuse(tampered))
      << "expected a cross-stream guarded slot reuse";
  EXPECT_THROW(tampered.validate(), gpu::HazardError);
}

TEST(PlanValidate, NamesBothOpsOfTheUnorderedPair) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  Pipeline p(g, halo_spec(g));
  ExecutionPlan tampered = p.execution_plan();
  ASSERT_TRUE(delete_cross_stream_slot_reuse(tampered));
  try {
    tampered.validate();
    FAIL() << "the tampered plan validated";
  } catch (const gpu::HazardError& e) {
    EXPECT_STREQ(e.what(),
                 "static write-after-read hazard: 'h2d in[8,10)' conflicts with 'chunk0' "
                 "without an ordering dependency between them");
  }
}

TEST(PlanValidateOnce, HazardousPlanFailsEveryCall) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  Pipeline p(g, halo_spec(g));
  ExecutionPlan tampered = p.execution_plan();
  ASSERT_TRUE(delete_cross_stream_slot_reuse(tampered));
  EXPECT_THROW(tampered.validate_once(), gpu::HazardError);
  EXPECT_FALSE(tampered.proven());
  EXPECT_THROW(tampered.validate_once(), gpu::HazardError);
  EXPECT_FALSE(tampered.proven());
}

TEST(PlanValidateOnce, CopiesAndAssignmentsStartUnproven) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  Pipeline p(g, halo_spec(g));
  const ExecutionPlan& shared = p.execution_plan();
  shared.validate_once();
  ASSERT_TRUE(shared.proven());

  // The proof covers the object it ran on, not the graph it held: a copy
  // edited into a hazard must still be caught.
  ExecutionPlan copy = shared;
  EXPECT_FALSE(copy.proven());
  ASSERT_TRUE(delete_cross_stream_slot_reuse(copy));
  EXPECT_THROW(copy.validate_once(), gpu::HazardError);

  ExecutionPlan proven = shared;
  proven.validate_once();
  ASSERT_TRUE(proven.proven());
  proven = copy;  // now holds the hazardous graph
  EXPECT_FALSE(proven.proven());
  EXPECT_THROW(proven.validate_once(), gpu::HazardError);
}

// --- Builder rejections -----------------------------------------------------

/// The message of the Error `fn` throws, without its kind and source
/// location ("" when it throws none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    const std::string what = e.what();
    const std::size_t from = what.find(": ") + 2;
    return what.substr(from, what.rfind(" [") - from);
  }
  return "";
}

TEST(PlanBuilderRejects, TileBlockOutsideTheHostMatrixNamesTheFirstFailingArray) {
  // 2 x 2 tiles of 4 x 4 over 8 x 8 matrices. A matrix only 6 columns wide
  // fails at tile (0, 1), one only 6 rows high at tile (1, 0). Each step
  // checks its inputs at upload, then its outputs at drain, in array order.
  std::byte host[8];
  auto array = [&host](const char* name, MapType map, std::int64_t rows, std::int64_t cols) {
    return TileArraySpec{name,       map, host, sizeof(double), rows, cols,
                         TileDimSpec{Affine{4, 0}, 4}, TileDimSpec{Affine{4, 0}, 4}};
  };
  auto build = [](std::vector<TileArraySpec> arrays) {
    TileSpec spec;
    spec.num_streams = 2;
    spec.ni = 2;
    spec.nj = 2;
    spec.arrays = std::move(arrays);
    TileBuildState state;
    state.ring_rows.assign(spec.arrays.size(), 4);
    state.ring_cols.assign(spec.arrays.size(), 8);
    return error_of([&] { PlanBuilder::tiles(spec, state); });
  };
  const std::string outside = "': block outside the host matrix";
  EXPECT_EQ(build({array("in", MapType::To, 8, 8), array("out", MapType::From, 8, 8)}), "");
  // Same tile: the input's upload comes before the output's drain, even
  // when the output is listed first.
  EXPECT_EQ(build({array("out", MapType::From, 8, 6), array("in", MapType::To, 8, 6)}),
            "tile array 'in" + outside);
  // An earlier tile wins: the output fails at (0, 1), the input at (1, 0).
  EXPECT_EQ(build({array("in", MapType::To, 6, 8), array("out", MapType::From, 8, 6)}),
            "tile array 'out" + outside);
  // Two inputs failing at one tile: the first in array order.
  EXPECT_EQ(build({array("ok", MapType::To, 8, 8), array("a", MapType::To, 8, 6),
                   array("b", MapType::To, 8, 6), array("out", MapType::From, 8, 8)}),
            "tile array 'a" + outside);
  // Two outputs failing at one tile, after inputs that pass.
  EXPECT_EQ(build({array("in", MapType::To, 8, 8), array("x", MapType::From, 6, 8),
                   array("y", MapType::ToFrom, 6, 8)}),
            "tile array 'y" + outside);
}

TEST(PlanBuilderRejects, ShardHaloSendRangeOutsideTheFirstChunkWindow) {
  // The right shard of a two-way split pushes the head of its first input
  // window to its left neighbour; a send range reaching past that window,
  // or an empty one, is rejected.
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  const std::vector<ShardSlice> slices = shard_pipeline_specs(halo_spec(g), {1.0, 1.0});
  ASSERT_EQ(slices.size(), 2u);
  auto build = [&](std::int64_t send_hi) {
    PipelineSpec right = slices[1].spec;
    for (ShardHalo& h : right.halos)
      if (h.send_peer >= 0) h.send_hi = send_hi;
    return error_of([&] {
      PlanBuilder::pipeline(right, right.chunk_size, right.num_streams, right.loop_begin,
                            right.loop_end, PipelineBuildState::predicted(right));
    });
  };
  const ArraySpec& in = slices[1].spec.arrays[0];
  const auto [w_lo, w_hi] = layout::window_of(in, slices[1].begin,
                                              slices[1].begin + slices[1].spec.chunk_size);
  const std::string message =
      "array 'in': shard halo send range must sit inside the first chunk's window";
  EXPECT_EQ(build(w_hi), "");
  EXPECT_EQ(build(w_hi + 1), message);
  EXPECT_EQ(build(w_lo), message);
}

TEST(PlanIntrospection, DotAndChromeTraceDumpsAreWellFormed) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  const std::int64_t n = 12, m = 16;
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = sweep_spec(in, out, n, m, 1);
  spec.chunk_size = 2;
  spec.num_streams = 2;
  Pipeline p(g, spec);
  const ExecutionPlan& plan = p.execution_plan();

  std::ostringstream dot;
  plan.to_dot(dot);
  EXPECT_NE(dot.str().find("digraph"), std::string::npos);
  EXPECT_NE(dot.str().find("h2d in"), std::string::npos);
  EXPECT_NE(dot.str().find("reuse"), std::string::npos);

  const DryRunResult dry = dry_run(plan, g.profile());
  EXPECT_GT(dry.makespan, 0.0);
  std::ostringstream json;
  dry.trace.dump_chrome_json(json);
  EXPECT_NE(json.str().find("traceEvents"), std::string::npos);
  EXPECT_NE(json.str().find("h2d"), std::string::npos);
}

// The planned (dry-run) makespan and the executed virtual-clock region time
// come from the same op graph; they must agree when the dry run is seeded
// with the kernel's true per-iteration cost.
TEST(PlanDryRun, TracksExecutedRegionTime) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 32, m = 4096;
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = sweep_spec(in, out, n, m, 1);
  spec.chunk_size = 4;
  spec.num_streams = 2;

  Pipeline p(g, spec);
  const SimTime t0 = g.host_now();
  p.run(plain_kernel(m));
  const SimTime executed = g.host_now() - t0;

  DryRunCost cost;
  cost.flops_per_iter = static_cast<double>(m);
  cost.bytes_per_iter = static_cast<double>(m) * 8.0;
  cost.live_streams = spec.num_streams;
  const SimTime planned = dry_run(p.execution_plan(), g.profile(), cost).makespan;
  EXPECT_GT(planned, 0.8 * executed);
  EXPECT_LT(planned, 1.25 * executed);
}

// --- Makespan-only dry runs ----------------------------------------------

std::byte dummy_in[8];
std::byte dummy_out[8];

/// sweep_spec over `nz` planes at a shape; plan building never dereferences
/// the host pointers.
PipelineSpec grid_spec(std::int64_t nz, std::int64_t plane, std::int64_t window,
                       std::int64_t chunk, int streams, int opt) {
  PipelineSpec spec = sweep_spec(dummy_in, dummy_out, nz, plane, window);
  spec.chunk_size = chunk;
  spec.num_streams = streams;
  spec.opt_level = opt;
  return spec;
}

int count_op(const ExecutionPlan& plan, PlanOp op) {
  return static_cast<int>(std::count_if(plan.nodes.begin(), plan.nodes.end(),
                                        [op](const PlanNode& n) { return n.op == op; }));
}

// The trace-free replay must land on the traced makespan to the bit, and
// record nothing: no spans, no interned lane or label.
void expect_makespan_only_matches(const ExecutionPlan& plan, const gpu::DeviceProfile& profile,
                                  const DryRunCost& cost) {
  const DryRunResult traced = dry_run(plan, profile, cost);
  const DryRunResult bare = dry_run(plan, profile, cost, DryRunTrace::MakespanOnly);
  EXPECT_GT(traced.makespan, 0.0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(bare.makespan),
            std::bit_cast<std::uint64_t>(traced.makespan))
      << profile.name << ": " << bare.makespan << " vs " << traced.makespan;
  EXPECT_FALSE(traced.trace.spans().empty());
  EXPECT_TRUE(bare.trace.spans().empty());
  EXPECT_EQ(bare.trace.strings().size(), 1u) << "only the table's own empty string";
}

std::vector<gpu::DeviceProfile> dry_run_profiles() {
  // Both paper devices, plus a split-DMA variant so the separate D2H engine
  // path of the replay is covered too.
  gpu::DeviceProfile split = gpu::nvidia_k40m();
  split.unified_copy_engine = false;
  return {gpu::nvidia_k40m(), gpu::amd_hd7970(), split};
}

DryRunCost roofline_cost(std::int64_t plane, int live_streams) {
  DryRunCost cost;
  cost.flops_per_iter = 8.0 * static_cast<double>(plane);
  cost.bytes_per_iter = 16.0 * static_cast<double>(plane);
  cost.live_streams = live_streams;
  return cost;
}

TEST(PlanDryRunMakespanOnly, MatchesTracedOnPaperShapes) {
  // Fig. 4's stencil (256 x 256 x 64 grid, chunk 4) and Fig. 7's
  // convolution (256^3 volume, chunk 1), unoptimized and optimized.
  for (int opt : {0, 1}) {
    for (const PipelineSpec& spec : {grid_spec(64, 256 * 256, 3, 4, 3, opt),
                                     grid_spec(256, 256 * 256, 3, 1, 4, opt)}) {
      const ExecutionPlan plan = PlanBuilder::pipeline(spec);
      for (const gpu::DeviceProfile& profile : dry_run_profiles()) {
        expect_makespan_only_matches(plan, profile, {});
        expect_makespan_only_matches(plan, profile,
                                     roofline_cost(256 * 256, spec.num_streams + 2));
      }
    }
  }
}

TEST(PlanDryRunMakespanOnly, MatchesTracedOnShardedStitchedAndFusedPlans) {
  const DryRunCost cost = roofline_cost(4096, 0);

  // Two shards of one region: each side carries P2P halo nodes.
  const std::vector<ShardSlice> slices =
      shard_pipeline_specs(grid_spec(96, 4096, 3, 8, 2, 1), {1.0, 1.0});
  ASSERT_EQ(slices.size(), 2u);
  const ExecutionPlan recv_side = PlanBuilder::pipeline(slices[0].spec);
  const ExecutionPlan send_side = PlanBuilder::pipeline(slices[1].spec);
  ASSERT_GT(count_op(recv_side, PlanOp::P2pRecv), 0);
  ASSERT_GT(count_op(send_side, PlanOp::P2pSend), 0);

  // A mid-chain stitched job: its input lands from one handoff link and its
  // output is stashed into another.
  PipelineSpec mid = grid_spec(48, 4096, 1, 4, 2, 1);
  mid.handoffs = {{0, 0, false}, {1, 1, true}};
  const ExecutionPlan stitched = PlanBuilder::pipeline(mid);
  ASSERT_GT(count_op(stitched, PlanOp::DeviceHandoff), 0);

  // Opt level 2 without a profile fuses adjacent launches of an output-only
  // region planned against a full-length ring.
  PipelineSpec sink = grid_spec(16, 4096, 1, 2, 1, 2);
  sink.arrays = {sink.arrays[1]};
  PipelineBuildState state;
  state.ring_lens = {16};
  state.pinned = {true};
  ExecutionPlan fused = PlanBuilder::pipeline(sink, 2, 1, 0, 16, state);
  ASSERT_GT(optimize_plan(fused, 2).fused_kernels, 0);

  const std::vector<const ExecutionPlan*> plans = {&recv_side, &send_side, &stitched, &fused};
  for (const ExecutionPlan* plan : plans)
    for (const gpu::DeviceProfile& profile : dry_run_profiles())
      expect_makespan_only_matches(*plan, profile, cost);
}

}  // namespace
}  // namespace gpupipe::core
