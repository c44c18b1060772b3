// Unit tests for the device ring buffers and the one PlanArrayBinding that
// moves plan segments through them: layout, addressing, footprint
// prediction, slab and block2d round trips, wrap splits, range errors on
// tampered 1-D and tile segments, effect ranges, and host rebinding.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/layout.hpp"
#include "core/plan.hpp"
#include "core/tile_pipeline.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

gpu::DeviceProfile profile() { return gpu::nvidia_k40m(); }

ArraySpec slab_spec(std::byte* host, std::int64_t rows, std::int64_t cols) {
  ArraySpec a;
  a.name = "A";
  a.map = MapType::To;
  a.host = host;
  a.elem_size = sizeof(double);
  a.dims = {rows, cols};
  a.split = SplitSpec{0, Affine{1, 0}, 1};
  return a;
}

ArraySpec block2d_spec(std::byte* host, std::int64_t rows, std::int64_t cols) {
  ArraySpec a = slab_spec(host, rows, cols);
  a.split = SplitSpec{1, Affine{1, 0}, 1};
  return a;
}

/// A transfer node moving split indices [a, b) of `spec`'s 1-D ring, one
/// segment per run between ring wraps — the pieces PlanBuilder emits.
PlanNode run_node(const RingBuffer& rb, const ArraySpec& spec, std::int64_t a,
                  std::int64_t b) {
  PlanNode n;
  const bool slab = spec.split.dim == 0;
  layout::for_ring_segments(a, b, rb.ring_len(), [&](std::int64_t slot, std::int64_t idx,
                                                     std::int64_t count) {
    PlanSegment seg;
    seg.slot = slot;
    seg.index = idx;
    seg.count = count;
    seg.width = static_cast<Bytes>(count) * (slab ? rb.view().slab : spec.elem_size);
    seg.height = slab ? 1 : static_cast<Bytes>(spec.dims[0]);
    n.segments.push_back(seg);
  });
  return n;
}

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

TEST(RingBuffer, SlabLayoutAndAddressing) {
  gpu::Gpu g(profile());
  std::vector<double> host(20 * 4);
  RingBuffer rb(g, slab_spec(reinterpret_cast<std::byte*>(host.data()), 20, 4), 6);
  EXPECT_EQ(rb.ring_len(), 6);
  EXPECT_EQ(rb.footprint(), 6u * 4 * sizeof(double));
  const BufferView v = rb.view();
  EXPECT_FALSE(v.block2d);
  EXPECT_EQ(v.slab, 4 * sizeof(double));
  EXPECT_EQ(v.slot(7), 1);
  EXPECT_EQ(reinterpret_cast<std::byte*>(v.slab_ptr(7)), v.base + 1 * v.slab);
}

TEST(RingBuffer, RingNeverExceedsArrayExtent) {
  gpu::Gpu g(profile());
  std::vector<double> host(5 * 4);
  RingBuffer rb(g, slab_spec(reinterpret_cast<std::byte*>(host.data()), 5, 4), 100);
  EXPECT_EQ(rb.ring_len(), 5);
}

TEST(RingBuffer, SlabRoundTripThroughRing) {
  gpu::Gpu g(profile());
  const std::int64_t rows = 20, cols = 8;
  std::vector<double> in(rows * cols), out(rows * cols, 0.0);
  std::iota(in.begin(), in.end(), 0.0);
  ArraySpec in_spec = slab_spec(reinterpret_cast<std::byte*>(in.data()), rows, cols);
  ArraySpec out_spec = slab_spec(reinterpret_cast<std::byte*>(out.data()), rows, cols);
  out_spec.map = MapType::From;
  RingBuffer rin(g, in_spec, 4);
  RingBuffer rout(g, out_spec, 4);
  PlanArrayBinding bin(g, rin.geometry(in_spec));
  PlanArrayBinding bout(g, rout.geometry(out_spec));

  // Stream rows through the 4-slot rings in blocks of 2, copying in, then
  // device-to-device via views, then out.
  for (std::int64_t lo = 0; lo < rows; lo += 2) {
    EXPECT_EQ(bin.transfer(g.default_stream(), run_node(rin, in_spec, lo, lo + 2), true), 1);
    gpu::KernelDesc k;
    k.flops = 1;
    const BufferView vi = rin.view(), vo = rout.view();
    k.body = [vi, vo, lo, cols] {
      for (std::int64_t r = lo; r < lo + 2; ++r)
        for (std::int64_t c = 0; c < cols; ++c) vo.slab_ptr(r)[c] = vi.slab_ptr(r)[c];
    };
    g.launch(g.default_stream(), std::move(k));
    bout.transfer(g.default_stream(), run_node(rout, out_spec, lo, lo + 2), false);
  }
  g.synchronize();
  EXPECT_EQ(in, out);
  // The binding counts one copy per segment and the bytes they moved.
  EXPECT_EQ(bin.h2d_copies(), rows / 2);
  EXPECT_EQ(bout.d2h_copies(), rows / 2);
  EXPECT_EQ(bin.h2d_bytes(), static_cast<Bytes>(rows * cols) * sizeof(double));
  EXPECT_EQ(bout.d2h_bytes(), bin.h2d_bytes());
  EXPECT_EQ(bin.d2h_copies(), 0);
}

TEST(RingBuffer, WrappingRangeSplitsIntoTwoTransfers) {
  // The builder splits a window that wraps the ring into two segments, and
  // the binding ships each as one copy.
  gpu::Gpu g(profile());
  std::vector<double> host(20 * 4);
  PipelineSpec spec;
  spec.arrays = {slab_spec(reinterpret_cast<std::byte*>(host.data()), 20, 4)};
  spec.loop_begin = 0;
  spec.loop_end = 20;
  spec.opt_level = 0;
  PipelineBuildState state;
  state.ring_lens = {6};
  const ExecutionPlan plan = PlanBuilder::pipeline(spec, 4, 1, 0, 20, state);
  RingBuffer rb(g, spec.arrays[0], 6);
  PlanArrayBinding b(g, rb.geometry(spec.arrays[0]));
  std::vector<int> transfers;
  for (const PlanNode& n : plan.nodes)
    if (n.op == PlanOp::H2D) transfers.push_back(b.transfer(g.default_stream(), n, true));
  // Windows [0,4) [4,8) [8,12) [12,16) [16,20) on a 6-slot ring: [4,8) and
  // [16,20) wrap at slot 6.
  EXPECT_EQ(transfers, (std::vector<int>{1, 2, 1, 1, 2}));
  EXPECT_EQ(b.h2d_copies(), 7);
  EXPECT_EQ(b.h2d_bytes(), 20u * 4 * sizeof(double));
  g.synchronize();
}

TEST(RingBuffer, RangeLargerThanRingThrows) {
  gpu::Gpu g(profile());
  std::vector<double> host(20 * 4);
  const ArraySpec spec = slab_spec(reinterpret_cast<std::byte*>(host.data()), 20, 4);
  RingBuffer rb(g, spec, 4);
  PlanArrayBinding b(g, rb.geometry(spec));
  auto ship = [&](std::int64_t slot, std::int64_t index, std::int64_t count) {
    PlanNode n = run_node(rb, spec, 0, 1);
    PlanSegment& seg = n.segments[0];
    seg.slot = slot;
    seg.index = index;
    seg.count = count;
    seg.width = static_cast<Bytes>(count) * rb.view().slab;
    return error_of([&] { b.transfer(g.default_stream(), n, true); });
  };
  EXPECT_EQ(ship(0, 0, 5), "transfer run does not fit the ring");
  EXPECT_EQ(ship(-1, 0, 2), "transfer run does not fit the ring");
  EXPECT_EQ(ship(0, -1, 2), "transfer run exceeds array extent");
  EXPECT_EQ(ship(2, 18, 3), "transfer run does not fit the ring");
  EXPECT_EQ(ship(0, 18, 3), "transfer run exceeds array extent");  // beyond extent
  EXPECT_EQ(b.h2d_copies(), 0);
}

TEST(RingBuffer, Block2dLayoutUsesPitchedAllocation) {
  gpu::Gpu g(profile());
  std::vector<double> host(16 * 32);
  RingBuffer rb(g, block2d_spec(reinterpret_cast<std::byte*>(host.data()), 16, 32), 8);
  const BufferView v = rb.view();
  EXPECT_TRUE(v.block2d);
  EXPECT_EQ(v.height, 16);
  EXPECT_GE(v.pitch, 8 * sizeof(double));
  // Element (row 3, col 10) lives at slot 10 % 8 = 2 of buffer row 3.
  EXPECT_EQ(reinterpret_cast<std::byte*>(v.elem_ptr(3, 10)),
            v.base + 3 * v.pitch + 2 * sizeof(double));
}

TEST(RingBuffer, Block2dRoundTrip) {
  gpu::Gpu g(profile());
  const std::int64_t rows = 8, cols = 24;
  std::vector<double> in(rows * cols), out(rows * cols, -1.0);
  std::iota(in.begin(), in.end(), 0.0);
  const ArraySpec in_spec = block2d_spec(reinterpret_cast<std::byte*>(in.data()), rows, cols);
  RingBuffer rb(g, in_spec, 6);
  PlanArrayBinding b(g, rb.geometry(in_spec));
  const PlanNode cols_6_12 = run_node(rb, in_spec, 6, 12);  // columns 6..11 -> slots 0..5
  EXPECT_EQ(b.transfer(g.default_stream(), cols_6_12, true), 1);
  g.synchronize();
  const BufferView v = rb.view();
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 6; c < 12; ++c)
      ASSERT_DOUBLE_EQ(*v.elem_ptr(r, c), in[static_cast<std::size_t>(r * cols + c)]);
  // And back out into a second host matrix of the same shape.
  b.rebind_host(reinterpret_cast<std::byte*>(out.data()));
  b.transfer(g.default_stream(), cols_6_12, false);
  g.synchronize();
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::size_t x = static_cast<std::size_t>(r * cols + c);
      ASSERT_DOUBLE_EQ(out[x], c >= 6 && c < 12 ? in[x] : -1.0) << r << "," << c;
    }
  EXPECT_EQ(b.d2h_bytes(), b.h2d_bytes());
  EXPECT_EQ(b.h2d_bytes(), static_cast<Bytes>(rows * 6) * sizeof(double));
}

TEST(RingBuffer, PredictFootprintMatchesActual) {
  gpu::Gpu g(profile());
  std::vector<double> host(64 * 16);
  auto s = slab_spec(reinterpret_cast<std::byte*>(host.data()), 64, 16);
  RingBuffer rb(g, s, 10);
  EXPECT_EQ(RingBuffer::predict_footprint(g, s, 10), rb.footprint());
  auto b = block2d_spec(reinterpret_cast<std::byte*>(host.data()), 64, 16);
  RingBuffer rb2(g, b, 10);
  EXPECT_EQ(RingBuffer::predict_footprint(g, b, 10), rb2.footprint());
}

TEST(RingBuffer, AppendRangesCoversCopiedBytes) {
  gpu::Gpu g(profile());
  std::vector<double> host(20 * 4);
  const ArraySpec slab = slab_spec(reinterpret_cast<std::byte*>(host.data()), 20, 4);
  RingBuffer rb(g, slab, 6);
  std::vector<gpu::MemRange> ranges;
  // A 1-D kernel access names no rows; [4, 8) wraps: [slot 4..6) + [slot 0..2).
  PlanArrayBinding(g, rb.geometry(slab)).append_effects(ranges, {0, 4, 8, 0, 0, false});
  ASSERT_EQ(ranges.size(), 2u);
  Bytes total = 0;
  for (const auto& r : ranges) total += r.size * r.rows;
  EXPECT_EQ(total, 4u * 4 * sizeof(double));
  EXPECT_EQ(ranges[0].ptr, rb.view().base + 4 * rb.view().slab);
  EXPECT_EQ(ranges[1].ptr, rb.view().base);
  auto effects_error = [&](std::int64_t lo, std::int64_t hi) {
    std::vector<gpu::MemRange> out;
    return error_of([&] {
      PlanArrayBinding(g, rb.geometry(slab)).append_effects(out, {0, lo, hi, 0, 0, false});
    });
  };
  EXPECT_EQ(effects_error(3, 3), "split index range must be non-empty and non-negative");
  EXPECT_EQ(effects_error(18, 21), "split index range exceeds array extent");
  EXPECT_EQ(effects_error(0, 7), "ring segment range is larger than the ring");

  // A column-block access covers every buffer row of its columns.
  const ArraySpec cols = block2d_spec(reinterpret_cast<std::byte*>(host.data()), 4, 20);
  RingBuffer rc(g, cols, 6);
  ranges.clear();
  PlanArrayBinding(g, rc.geometry(cols)).append_effects(ranges, {0, 4, 8, 0, 0, true});
  ASSERT_EQ(ranges.size(), 2u);
  for (const auto& r : ranges) {
    EXPECT_EQ(r.rows, 4u);
    EXPECT_EQ(r.stride, rc.view().pitch);
  }
  EXPECT_EQ(ranges[0].size, 2 * sizeof(double));
}

TEST(RingBuffer, FreesDeviceMemoryOnDestruction) {
  gpu::Gpu g(profile());
  std::vector<double> host(64 * 16);
  const Bytes before = g.device_mem_stats().current;
  {
    RingBuffer rb(g, slab_spec(reinterpret_cast<std::byte*>(host.data()), 64, 16), 8);
    EXPECT_GT(g.device_mem_stats().current, before);
  }
  EXPECT_EQ(g.device_mem_stats().current, before);
}

TEST(RingBuffer, RebindHostSwitchesSourceArray) {
  gpu::Gpu g(profile());
  std::vector<double> a(8 * 2, 1.0), b(8 * 2, 2.0);
  const ArraySpec spec = slab_spec(reinterpret_cast<std::byte*>(a.data()), 8, 2);
  RingBuffer rb(g, spec, 4);
  PlanArrayBinding bind(g, rb.geometry(spec));
  bind.transfer(g.default_stream(), run_node(rb, spec, 0, 1), true);
  g.synchronize();
  EXPECT_DOUBLE_EQ(rb.view().slab_ptr(0)[0], 1.0);
  bind.rebind_host(reinterpret_cast<std::byte*>(b.data()));
  bind.transfer(g.default_stream(), run_node(rb, spec, 1, 2), true);
  g.synchronize();
  EXPECT_DOUBLE_EQ(rb.view().slab_ptr(1)[0], 2.0);
  EXPECT_THROW(bind.rebind_host(nullptr), Error);
}

// --- Tampered plan segments ---------------------------------------------

/// Replays `plan` through `bindings` on the default stream; returns the
/// Error message ("" when none).
std::string replay_error(gpu::Gpu& g, const ExecutionPlan& plan,
                         std::vector<PlanArrayBinding*> bindings) {
  PlanExecutor ex(g, nullptr);
  ex.bind({&g.default_stream()}, std::move(bindings));
  return error_of(
      [&] { ex.run(plan, [](const PlanNode&) { return gpu::KernelDesc{}; }); });
}

/// The first segment of `plan`'s first node with op `op`.
PlanSegment& first_segment(ExecutionPlan& plan, PlanOp op) {
  for (PlanNode& n : plan.nodes)
    if (n.op == op && !n.segments.empty()) return n.segments.front();
  throw Error("plan has no segment of that op");
}

TEST(PlanArrayBinding, RejectsOutOfRingAndOutOfExtentRunsOfAOneDimensionalPlan) {
  gpu::Gpu g(profile(), gpu::ExecMode::Modeled);
  std::vector<double> in(20 * 4), out(20 * 4);
  PipelineSpec spec;
  spec.arrays = {slab_spec(reinterpret_cast<std::byte*>(in.data()), 20, 4),
                 slab_spec(reinterpret_cast<std::byte*>(out.data()), 20, 4)};
  spec.arrays[1].name = "B";
  spec.arrays[1].map = MapType::From;
  spec.loop_begin = 0;
  spec.loop_end = 20;
  PipelineBuildState state;
  state.ring_lens = {4, 4};
  const ExecutionPlan plan = PlanBuilder::pipeline(spec, 2, 1, 0, 20, state);
  RingBuffer ra(g, spec.arrays[0], 4), rb(g, spec.arrays[1], 4);
  PlanArrayBinding a(g, ra.geometry(spec.arrays[0])), b(g, rb.geometry(spec.arrays[1]));
  EXPECT_EQ(replay_error(g, plan, {&a, &b}), "");
  for (const PlanOp op : {PlanOp::H2D, PlanOp::D2H}) {
    ExecutionPlan ring = plan;
    first_segment(ring, op).slot = 3;  // a 2-index run from slot 3 of 4
    EXPECT_EQ(replay_error(g, ring, {&a, &b}), "transfer run does not fit the ring");
    ExecutionPlan extent = plan;
    first_segment(extent, op).index = 19;  // a 2-index run from index 19 of 20
    EXPECT_EQ(replay_error(g, extent, {&a, &b}), "transfer run exceeds array extent");
  }
  g.synchronize();
}

TEST(PlanArrayBinding, RejectsOutOfRingAndOutOfExtentRunsOfATilePlan) {
  gpu::Gpu g(profile(), gpu::ExecMode::Modeled);
  std::vector<double> host(12 * 12);
  TileSpec spec;
  spec.num_streams = 1;
  spec.ni = 3;
  spec.nj = 3;
  spec.arrays = {TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(host.data()),
                               sizeof(double), 12, 12, TileDimSpec{Affine{4, 0}, 4},
                               TileDimSpec{Affine{4, 0}, 4}}};
  TileBuildState state;
  state.ring_rows = {4};
  state.ring_cols = {8};
  const ExecutionPlan plan = PlanBuilder::tiles(spec, state);
  const gpu::Pitched p = g.device_malloc_pitched(8 * sizeof(double), 4);
  RingGeometry ring;
  ring.base = p.ptr;
  ring.pitch = p.pitch;
  ring.unit = sizeof(double);
  ring.cols = 8;
  ring.rows = 4;
  ring.host = reinterpret_cast<std::byte*>(host.data());
  ring.host_pitch = 12 * sizeof(double);
  ring.host_cols = 12;
  ring.host_rows = 12;
  PlanArrayBinding b(g, ring);
  EXPECT_EQ(replay_error(g, plan, {&b}), "");
  EXPECT_EQ(b.h2d_copies(), 9);

  ExecutionPlan cols = plan;
  first_segment(cols, PlanOp::H2D).slot = 5;  // 4 columns from slot 5 of 8
  EXPECT_EQ(replay_error(g, cols, {&b}), "transfer run does not fit the ring");
  ExecutionPlan rows = plan;
  first_segment(rows, PlanOp::H2D).row_slot = 1;  // 4 rows from ring row 1 of 4
  EXPECT_EQ(replay_error(g, rows, {&b}), "transfer run does not fit the ring");
  ExecutionPlan host_cols = plan;
  first_segment(host_cols, PlanOp::H2D).index = 10;  // 4 columns from 10 of 12
  EXPECT_EQ(replay_error(g, host_cols, {&b}), "transfer run exceeds array extent");
  ExecutionPlan host_rows = plan;
  first_segment(host_rows, PlanOp::H2D).row = 9;  // 4 rows from 9 of 12
  EXPECT_EQ(replay_error(g, host_rows, {&b}), "transfer run exceeds array extent");
  g.synchronize();
  g.device_free(p.ptr);
}

}  // namespace
}  // namespace gpupipe::core
