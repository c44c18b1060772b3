// Tests for the 2-D (nested-loop) tile pipeline extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/plan.hpp"
#include "core/tile_pipeline.hpp"
#include "gpu/device_profile.hpp"
#include "gpu/hazard.hpp"

namespace gpupipe::core {
namespace {

/// Tiled doubling: out tile (i,j) = 2 * in tile (i,j), Th x Tw tiles.
TileSpec double_spec(std::vector<double>& in, std::vector<double>& out, std::int64_t rows,
                     std::int64_t cols, std::int64_t th, std::int64_t tw, int streams) {
  TileSpec spec;
  spec.num_streams = streams;
  spec.ni = rows / th;
  spec.nj = cols / tw;
  spec.arrays = {
      TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()),
                    sizeof(double), rows, cols, TileDimSpec{Affine{th, 0}, th},
                    TileDimSpec{Affine{tw, 0}, tw}},
      TileArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()),
                    sizeof(double), rows, cols, TileDimSpec{Affine{th, 0}, th},
                    TileDimSpec{Affine{tw, 0}, tw}},
  };
  return spec;
}

TileKernelFactory doubler(std::int64_t th, std::int64_t tw) {
  return [th, tw](const TileContext& ctx) {
    gpu::KernelDesc k;
    k.flops = static_cast<double>(th * tw);
    k.bytes = static_cast<Bytes>(th * tw) * 16;
    const TileBufferView in = ctx.view("in");
    const TileBufferView out = ctx.view("out");
    const std::int64_t r0 = ctx.i() * th, c0 = ctx.j() * tw;
    k.body = [in, out, r0, c0, th, tw] {
      for (std::int64_t r = r0; r < r0 + th; ++r)
        for (std::int64_t c = c0; c < c0 + tw; ++c) *out.at(r, c) = 2.0 * *in.at(r, c);
    };
    return k;
  };
}

TEST(TilePipeline, TiledDoublingIsCorrect) {
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t rows = 24, cols = 36, th = 4, tw = 6;
  std::vector<double> in(rows * cols), out(rows * cols, -1.0);
  std::iota(in.begin(), in.end(), 0.0);
  TilePipeline p(g, double_spec(in, out, rows, cols, th, tw, 2));
  p.run(doubler(th, tw));
  for (std::int64_t x = 0; x < rows * cols; ++x) ASSERT_DOUBLE_EQ(out[x], 2.0 * in[x]) << x;
}

class TileSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TileSweep, CorrectAcrossTileShapesAndStreams) {
  const auto [tile, streams] = GetParam();
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t rows = 24, cols = 24;
  std::vector<double> in(rows * cols), out(rows * cols, -1.0);
  std::iota(in.begin(), in.end(), 1.0);
  TilePipeline p(g, double_spec(in, out, rows, cols, tile, tile, streams));
  p.run(doubler(tile, tile));
  for (std::int64_t x = 0; x < rows * cols; ++x) ASSERT_DOUBLE_EQ(out[x], 2.0 * in[x]);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TileSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4, 6, 12, 24),
                                            ::testing::Values(1, 2, 3, 4)));

TEST(TilePipeline, HaloedBlurMatchesReference) {
  // 3x3 box blur over interior tiles: input windows carry a 1-element halo
  // in both dimensions (window = tile + 2), crossing band boundaries.
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t rows = 20, cols = 28, th = 4, tw = 4;
  std::vector<double> in(rows * cols), out(rows * cols, 0.0);
  for (std::int64_t x = 0; x < rows * cols; ++x)
    in[static_cast<std::size_t>(x)] = static_cast<double>((x * 7) % 23);

  TileSpec spec;
  spec.num_streams = 2;
  spec.ni = (rows - 2) / th;  // interior bands
  spec.nj = (cols - 2) / tw;
  spec.arrays = {
      TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()),
                    sizeof(double), rows, cols, TileDimSpec{Affine{th, 0}, th + 2},
                    TileDimSpec{Affine{tw, 0}, tw + 2}},
      TileArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()),
                    sizeof(double), rows, cols, TileDimSpec{Affine{th, 1}, th},
                    TileDimSpec{Affine{tw, 1}, tw}},
  };
  TilePipeline p(g, spec);
  p.run([th, tw](const TileContext& ctx) {
    gpu::KernelDesc k;
    const TileBufferView vin = ctx.view("in");
    const TileBufferView vout = ctx.view("out");
    const std::int64_t r0 = ctx.i() * th + 1, c0 = ctx.j() * tw + 1;
    k.body = [vin, vout, r0, c0, th, tw] {
      for (std::int64_t r = r0; r < r0 + th; ++r) {
        for (std::int64_t c = c0; c < c0 + tw; ++c) {
          double acc = 0.0;
          for (int dr = -1; dr <= 1; ++dr)
            for (int dc = -1; dc <= 1; ++dc) acc += *vin.at(r + dr, c + dc);
          *vout.at(r, c) = acc / 9.0;
        }
      }
    };
    return k;
  });

  for (std::int64_t r = 1; r < 1 + spec.ni * th; ++r) {
    for (std::int64_t c = 1; c < 1 + spec.nj * tw; ++c) {
      double acc = 0.0;
      for (int dr = -1; dr <= 1; ++dr)
        for (int dc = -1; dc <= 1; ++dc) acc += in[(r + dr) * cols + (c + dc)];
      ASSERT_DOUBLE_EQ(out[r * cols + c], acc / 9.0) << r << "," << c;
    }
  }
}

TEST(TilePipeline, BufferIsASmallWindowOfTheMatrix) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  const std::int64_t rows = 4096, cols = 4096, tile = 64;
  std::byte* in = g.host_alloc(static_cast<Bytes>(rows * cols) * 8);
  std::byte* out = g.host_alloc(static_cast<Bytes>(rows * cols) * 8);
  TileSpec spec;
  spec.num_streams = 2;
  spec.ni = rows / tile;
  spec.nj = cols / tile;
  spec.arrays = {
      TileArraySpec{"in", MapType::To, in, 8, rows, cols, TileDimSpec{Affine{tile, 0}, tile},
                    TileDimSpec{Affine{tile, 0}, tile}},
      TileArraySpec{"out", MapType::From, out, 8, rows, cols,
                    TileDimSpec{Affine{tile, 0}, tile}, TileDimSpec{Affine{tile, 0}, tile}},
  };
  TilePipeline p(g, spec);
  const Bytes full = 2u * rows * cols * 8;
  EXPECT_LT(p.buffer_footprint(), full / 500);
}

TEST(TilePipeline, ColumnHaloIsElidedWithinABand) {
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t rows = 8, cols = 32, th = 8, tw = 4;
  std::vector<double> in(rows * cols, 1.0), out(rows * cols);
  // One band, column windows with a 2-column halo: [j*tw, j*tw + tw + 2).
  TileSpec spec;
  spec.num_streams = 2;
  spec.ni = 1;
  spec.nj = (cols - 2) / tw;
  spec.arrays = {TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()),
                               sizeof(double), rows, cols, TileDimSpec{Affine{th, 0}, th},
                               TileDimSpec{Affine{tw, 0}, tw + 2}}};
  TilePipeline p(g, spec);
  p.run([](const TileContext&) { return gpu::KernelDesc{}; });
  // Each column crosses the bus once despite overlapping windows:
  // columns [0, nj*tw + 2) x 8 rows x 8 bytes.
  const Bytes expected = static_cast<Bytes>((spec.nj * tw + 2) * rows) * sizeof(double);
  EXPECT_EQ(p.h2d_bytes(), expected);
}

TEST(TilePipeline, HazardTrackerAcceptsTheSchedule) {
  gpu::Gpu g(gpu::nvidia_k40m());
  ASSERT_TRUE(g.hazards().enabled());
  const std::int64_t rows = 16, cols = 16, t = 4;
  std::vector<double> in(rows * cols, 1.0), out(rows * cols);
  TilePipeline p(g, double_spec(in, out, rows, cols, t, t, 3));
  EXPECT_NO_THROW(p.run(doubler(t, t)));
}

/// A haloed 3x3-band tile plan on two streams (the HaloedBlur shape), with
/// ring extents as TilePipeline allocates them.
ExecutionPlan haloed_tile_plan() {
  static double in[20 * 28], out[20 * 28];
  TileSpec spec;
  spec.num_streams = 2;
  spec.ni = 3;
  spec.nj = 4;
  spec.arrays = {
      TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in), sizeof(double), 20, 28,
                    TileDimSpec{Affine{4, 0}, 6}, TileDimSpec{Affine{4, 0}, 6}},
      TileArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out), sizeof(double), 20,
                    28, TileDimSpec{Affine{4, 1}, 4}, TileDimSpec{Affine{4, 1}, 4}},
  };
  TileBuildState st;
  st.ring_rows = {6, 4};
  st.ring_cols = {12, 8};
  return PlanBuilder::tiles(spec, st);
}

/// Clears the deps of the first node of kind `op` that waits on another
/// stream.
bool drop_cross_stream_edge(ExecutionPlan& plan, PlanOp op) {
  for (PlanNode& n : plan.nodes) {
    if (n.op != op) continue;
    if (std::any_of(n.deps.begin(), n.deps.end(), [&](int d) {
          return plan.nodes[static_cast<std::size_t>(d)].stream != n.stream;
        })) {
      n.deps.clear();
      return true;
    }
  }
  return false;
}

std::string hazard_text(const ExecutionPlan& plan) {
  try {
    plan.validate();
  } catch (const gpu::HazardError& e) {
    return e.what();
  }
  return "validated";
}

TEST(TilePlanValidate, NamesThePairBehindADeletedBarrier) {
  ExecutionPlan plan = haloed_tile_plan();
  EXPECT_NO_THROW(plan.validate());
  ASSERT_TRUE(drop_cross_stream_edge(plan, PlanOp::Barrier));
  EXPECT_EQ(hazard_text(plan),
            "static write-after-read hazard: 'h2d in[4,10)x[0,6)' conflicts with 'tile(0,3)' "
            "without an ordering dependency between them");
}

TEST(TilePlanValidate, NamesThePairBehindADeletedSlotReuseEdge) {
  ExecutionPlan plan = haloed_tile_plan();
  ASSERT_TRUE(drop_cross_stream_edge(plan, PlanOp::SlotReuse));
  EXPECT_EQ(hazard_text(plan),
            "static write-after-read hazard: 'h2d in[14,18)' conflicts with 'tile(0,0)' "
            "without an ordering dependency between them");
}

TEST(TilePlanValidate, RejectsACopyRowOutsideTheRing) {
  // Each ring row is a resource of its own: a copy row past the ring of
  // 'in' (rows [0, 6)) must not alias the first row of 'out'.
  ExecutionPlan plan = haloed_tile_plan();
  const auto h2d = std::find_if(plan.nodes.begin(), plan.nodes.end(),
                                [](const PlanNode& n) { return n.op == PlanOp::H2D; });
  ASSERT_NE(h2d, plan.nodes.end());
  h2d->segments.front().row_slot = 6;
  std::string what = "validated";
  try {
    plan.validate();
  } catch (const Error& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("plan access row lies outside the ring"), std::string::npos) << what;
}

TEST(TilePlanValidate, ChecksEveryBufferRowOfAPiece) {
  // An upload of buffer rows 2-3 and an unordered reader that shares
  // only one row of it: the second row of the upload's segment (a
  // copy-out of row 3), then the second row of a kernel access (rows 1-2).
  auto two_node_plan = [](PlanNode second) {
    ExecutionPlan plan;
    plan.num_streams = 2;
    plan.arrays.push_back(PlanArrayInfo{.name = "in", .ring_len = 4, .ring_rows = 4});
    PlanNode h2d;
    h2d.op = PlanOp::H2D;
    h2d.array = 0;
    h2d.label = "h2d";
    h2d.segments.push_back(PlanSegment{.count = 4, .row_slot = 2, .rows = 2});
    plan.nodes.push_back(h2d);
    second.stream = 1;
    second.array = 0;
    plan.nodes.push_back(std::move(second));
    return plan;
  };
  PlanNode d2h;
  d2h.op = PlanOp::D2H;
  d2h.label = "d2h";
  d2h.segments.push_back(PlanSegment{.count = 4, .row_slot = 3, .rows = 1});
  EXPECT_EQ(hazard_text(two_node_plan(d2h)),
            "static read-after-write hazard: 'd2h' conflicts with 'h2d' without an ordering "
            "dependency between them");

  PlanNode kernel;
  kernel.op = PlanOp::Kernel;
  kernel.label = "tile";
  kernel.accesses.push_back({0, 0, 4, 1, 3, false});  // rows 1-2
  EXPECT_EQ(hazard_text(two_node_plan(kernel)),
            "static read-after-write hazard: 'tile' conflicts with 'h2d' without an ordering "
            "dependency between them");
}

TEST(TilePipeline, ValidatesSpecs) {
  gpu::Gpu g(gpu::nvidia_k40m());
  TileSpec empty;
  EXPECT_THROW(TilePipeline(g, empty), Error);

  std::vector<double> data(16, 1.0);
  TileSpec bad;
  bad.ni = bad.nj = 1;
  bad.arrays = {TileArraySpec{"out", MapType::From,
                              reinterpret_cast<std::byte*>(data.data()), sizeof(double), 4, 4,
                              TileDimSpec{Affine{1, 0}, 2},  // overlapping output rows
                              TileDimSpec{Affine{1, 0}, 1}}};
  EXPECT_THROW(TilePipeline(g, bad), Error);
}

TEST(TilePipeline, OutOfBoundsTileIsRejectedAtRuntime) {
  gpu::Gpu g(gpu::nvidia_k40m());
  std::vector<double> in(16, 1.0);
  TileSpec spec;
  spec.ni = 2;
  spec.nj = 1;
  spec.arrays = {TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()),
                               sizeof(double), 4, 4, TileDimSpec{Affine{3, 0}, 3},
                               TileDimSpec{Affine{4, 0}, 4}}};
  TilePipeline p(g, spec);  // tile i=1 needs rows [3,6) of a 4-row matrix
  EXPECT_THROW(p.run([](const TileContext&) { return gpu::KernelDesc{}; }), Error);
}

}  // namespace
}  // namespace gpupipe::core
