// Tests for plan optimization — halo reuse in the builders and the level-2
// passes of core/plan_opt.hpp: byte accounting and hazard validity of
// optimized plans, idempotence, the paper-config transfer savings, kernels
// depending on the copy of a resident slice, and opt-vs-no-opt execution
// equivalence across the four evaluation applications.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "apps/conv3d.hpp"
#include "apps/matmul.hpp"
#include "apps/qcd.hpp"
#include "apps/stencil.hpp"
#include "core/model.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"
#include "core/tile_pipeline.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

std::byte dummy_in[8];
std::byte dummy_out[8];

/// Stencil-shaped region (window 3 input, window 1 output, split dim 0);
/// plan building never dereferences the host pointers.
PipelineSpec stencil_like(std::int64_t nz, std::int64_t ny, std::int64_t nx,
                          std::int64_t chunk, int streams, int opt) {
  PipelineSpec spec;
  spec.chunk_size = chunk;
  spec.num_streams = streams;
  spec.opt_level = opt;
  spec.loop_begin = 1;
  spec.loop_end = nz - 1;
  spec.arrays = {
      ArraySpec{"A0", MapType::To, dummy_in, sizeof(double), {nz, ny, nx},
                SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"Anext", MapType::From, dummy_out, sizeof(double), {nz, ny, nx},
                SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

/// Builds the full loop of `spec` at its own level, reporting what the
/// build saved against the naive schedule.
ExecutionPlan build(const PipelineSpec& spec, OptReport* report) {
  return PlanBuilder::pipeline(spec, spec.chunk_size, spec.num_streams, spec.loop_begin,
                               spec.loop_end, PipelineBuildState::predicted(spec), report);
}

Bytes h2d_bytes(const ExecutionPlan& plan) {
  Bytes total = 0;
  for (const auto& n : plan.nodes)
    if (n.op == PlanOp::H2D) total += n.bytes;
  return total;
}

Bytes d2h_bytes(const ExecutionPlan& plan) {
  Bytes total = 0;
  for (const auto& n : plan.nodes)
    if (n.op == PlanOp::D2H) total += n.bytes;
  return total;
}

TEST(PlanOpt, NaivePlanUploadsFullWindowsAndHaloReuseElidesThem) {
  const std::int64_t ny = 4, nx = 3;
  const Bytes plane = ny * nx * sizeof(double);
  // 5 chunks of 2 iterations over loop [1, 11): each input window spans
  // chunk+2 planes naively; reuse pays the 2-plane halo only once.
  const ExecutionPlan naive = PlanBuilder::pipeline(stencil_like(12, ny, nx, 2, 2, 0));
  EXPECT_EQ(h2d_bytes(naive), 5 * 4 * plane);
  const ExecutionPlan opt = PlanBuilder::pipeline(stencil_like(12, ny, nx, 2, 2, 1));
  EXPECT_EQ(h2d_bytes(opt), 12 * plane);  // the distinct planes [0, 12)
  // Output traffic is untouched by the input-halo pass.
  EXPECT_EQ(d2h_bytes(naive), 10 * plane);
  EXPECT_EQ(d2h_bytes(opt), 10 * plane);
  EXPECT_LT(opt.nodes.size(), naive.nodes.size());
}

TEST(PlanOpt, KernelsDependOnTheCopyOfEachResidentSlice) {
  // With halo reuse a chunk's window is partly landed by earlier chunks'
  // uploads: its kernel must wait on whichever copy landed each index.
  const ExecutionPlan plan = PlanBuilder::pipeline(stencil_like(20, 4, 3, 2, 3, 1));
  int earlier = 0;
  for (const PlanNode& k : plan.nodes) {
    if (k.op != PlanOp::Kernel) continue;
    for (const PlanAccess& acc : k.accesses) {
      if (acc.write) continue;
      for (std::int64_t idx = acc.lo; idx < acc.hi; ++idx) {
        // The latest upload before the kernel whose pieces cover idx.
        int landed = -1;
        for (const PlanNode& h : plan.nodes) {
          if (h.id >= k.id) break;
          if (h.op != PlanOp::H2D || h.array != acc.array) continue;
          for (const PlanSegment& seg : h.segments)
            if (seg.index <= idx && idx < seg.index + seg.count) landed = h.id;
        }
        ASSERT_GE(landed, 0) << k.label << " reads " << idx << " that nothing uploaded";
        EXPECT_NE(std::find(k.deps.begin(), k.deps.end(), landed), k.deps.end())
            << k.label << " does not wait on "
            << plan.nodes[static_cast<std::size_t>(landed)].label;
        if (plan.nodes[static_cast<std::size_t>(landed)].chunk != k.chunk) ++earlier;
      }
    }
  }
  EXPECT_GT(earlier, 0) << "no kernel read a slice an earlier chunk uploaded";
  EXPECT_NO_THROW(plan.validate());
}

class PlanOptSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PlanOptSweep, OptimizedPlansValidateAndNeverMoveMoreBytes) {
  const auto [chunk, streams] = GetParam();
  const ExecutionPlan naive = PlanBuilder::pipeline(stencil_like(14, 5, 4, chunk, streams, 0));
  Bytes prev = h2d_bytes(naive);
  for (int opt = 0; opt <= 2; ++opt) {
    const ExecutionPlan plan = PlanBuilder::pipeline(stencil_like(14, 5, 4, chunk, streams, opt));
    EXPECT_NO_THROW(plan.validate()) << "chunk " << chunk << " streams " << streams
                                     << " opt " << opt;
    EXPECT_LE(h2d_bytes(plan), prev);  // never increases with the level
    EXPECT_EQ(d2h_bytes(plan), d2h_bytes(naive));
    prev = h2d_bytes(plan);
  }
}

INSTANTIATE_TEST_SUITE_P(ChunkStream, PlanOptSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5),
                                            ::testing::Values(1, 2, 4)));

TEST(PlanOpt, Fig4StencilConfigSavesAtLeastTwentyPercent) {
  // The paper's Fig. 4 stencil shape: 256 x 256 x 64 grid, chunk_size 4.
  OptReport report;
  const ExecutionPlan plan = build(stencil_like(64, 256, 256, 4, 3, 1), &report);
  EXPECT_NO_THROW(plan.validate());
  EXPECT_GT(report.h2d_bytes_before, 0);
  // h2d_after <= 0.8 * h2d_before, in integer arithmetic.
  EXPECT_LE(report.h2d_bytes_after * 5, report.h2d_bytes_before * 4);
}

TEST(PlanOpt, Fig7Conv3dConfigSavesAtLeastTwentyPercent) {
  // The paper's Fig. 7 convolution shape: 256^3 volume, chunk_size 1 (the
  // stream sweep's chunk), window-3 input like the stencil.
  OptReport report;
  const ExecutionPlan plan = build(stencil_like(256, 256, 256, 1, 4, 1), &report);
  EXPECT_NO_THROW(plan.validate());
  EXPECT_LE(report.h2d_bytes_after * 5, report.h2d_bytes_before * 4);
}

TEST(PlanOpt, ReportAccountingIsConsistent) {
  const std::int64_t naive_nodes =
      static_cast<std::int64_t>(build(stencil_like(20, 6, 5, 2, 2, 0), nullptr).nodes.size());
  OptReport report;
  const ExecutionPlan plan = build(stencil_like(20, 6, 5, 2, 2, 1), &report);
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].pass, "halo-reuse");
  Bytes saved = 0;
  for (const auto& p : report.passes) {
    Bytes by_array = 0;
    for (const auto& [name, bytes] : p.bytes_saved_by_array) by_array += bytes;
    EXPECT_EQ(by_array, p.bytes_saved) << p.pass;
    saved += p.bytes_saved;
  }
  EXPECT_EQ(report.h2d_bytes_before + report.d2h_bytes_before,
            report.h2d_bytes_after + report.d2h_bytes_after + saved);
  EXPECT_EQ(report.nodes_before, naive_nodes);
  EXPECT_EQ(report.nodes_after, static_cast<std::int64_t>(plan.nodes.size()));
  EXPECT_LE(report.nodes_after, report.nodes_before);
}

TEST(PlanOpt, OptimizerIsIdempotent) {
  // Re-optimizing an optimized plan, at its own level, changes nothing.
  for (int opt = 1; opt <= 2; ++opt) {
    ExecutionPlan plan = PlanBuilder::pipeline(stencil_like(16, 4, 4, 2, 2, opt));
    const Bytes h2d = h2d_bytes(plan);
    const std::size_t nodes = plan.nodes.size();
    const OptReport again = optimize_plan(plan, opt);
    EXPECT_EQ(h2d_bytes(plan), h2d) << "opt " << opt;
    EXPECT_EQ(plan.nodes.size(), nodes) << "opt " << opt;
    EXPECT_EQ(again.h2d_bytes_before, again.h2d_bytes_after);
    EXPECT_EQ(again.fused_kernels, 0);
    for (const auto& p : again.passes) {
      EXPECT_EQ(p.nodes_removed, 0) << p.pass;
      EXPECT_EQ(p.bytes_saved, 0) << p.pass;
    }
  }
}

TEST(PlanOpt, RejectsUnknownOptLevels) {
  ExecutionPlan plan = PlanBuilder::pipeline(stencil_like(12, 4, 4, 2, 2, 0));
  EXPECT_THROW(optimize_plan(plan, -1), Error);
  EXPECT_THROW(optimize_plan(plan, 3), Error);
}

TEST(PlanOpt, SingleChunkLoopIsUnchanged) {
  // One chunk covers the whole loop: nothing is resident beforehand, so
  // halo reuse finds nothing to elide.
  const Bytes before = h2d_bytes(build(stencil_like(6, 4, 4, 8, 2, 0), nullptr));
  OptReport report;
  const ExecutionPlan plan = build(stencil_like(6, 4, 4, 8, 2, 1), &report);
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(h2d_bytes(plan), before);
  EXPECT_EQ(report.nodes_before, report.nodes_after);
}

/// Number of `k`'s dependencies that are D2H nodes of `plan`.
int d2h_deps(const ExecutionPlan& plan, const PlanNode& k) {
  return static_cast<int>(std::count_if(k.deps.begin(), k.deps.end(), [&](int d) {
    return plan.nodes[static_cast<std::size_t>(d)].op == PlanOp::D2H;
  }));
}

TEST(PlanOpt, KernelsWaitOnNoMoreDrainsThanUnoptimized) {
  // An output slot's drains are chained (each kernel write waits on the
  // previous drain, each drain on its kernel), so the latest one implies
  // the rest: halo reuse must not make kernels wait on every drain their
  // output slots ever had. 96 rows through rings of a few chunks wrap each
  // output slot many times.
  for (const MapType out_map : {MapType::From, MapType::ToFrom}) {
    for (int streams = 1; streams <= 4; ++streams) {
      PipelineSpec spec = stencil_like(98, 4, 3, 4, streams, 0);
      spec.arrays[1].map = out_map;
      const ExecutionPlan naive = PlanBuilder::pipeline(spec);
      spec.opt_level = 1;
      const ExecutionPlan opt = PlanBuilder::pipeline(spec);
      std::vector<const PlanNode*> naive_kernels, opt_kernels;
      for (const PlanNode& n : naive.nodes)
        if (n.op == PlanOp::Kernel) naive_kernels.push_back(&n);
      for (const PlanNode& n : opt.nodes)
        if (n.op == PlanOp::Kernel) opt_kernels.push_back(&n);
      ASSERT_EQ(opt_kernels.size(), naive_kernels.size());
      int total_naive = 0, total_opt = 0;
      for (std::size_t i = 0; i < opt_kernels.size(); ++i) {
        const int n0 = d2h_deps(naive, *naive_kernels[i]);
        const int n1 = d2h_deps(opt, *opt_kernels[i]);
        EXPECT_LE(n1, n0) << to_string(out_map) << ", " << streams << " streams, "
                          << opt_kernels[i]->label;
        total_naive += n0;
        total_opt += n1;
      }
      EXPECT_GT(total_naive, 0) << "the rings must wrap for the check to bite";
      EXPECT_LE(total_opt, total_naive);
    }
  }
}

TEST(PlanOpt, StreamRebalanceKeepsBytesAndValidity) {
  const ExecutionPlan level1 = PlanBuilder::pipeline(stencil_like(24, 8, 8, 1, 3, 1));
  const ExecutionPlan level2 = PlanBuilder::pipeline(stencil_like(24, 8, 8, 1, 3, 2));
  EXPECT_NO_THROW(level2.validate());
  EXPECT_EQ(h2d_bytes(level2), h2d_bytes(level1));
  EXPECT_EQ(d2h_bytes(level2), d2h_bytes(level1));
  EXPECT_EQ(level2.nodes.size(), level1.nodes.size());
}

TEST(PlanOpt, CostModelChargesHaloOnlyWhenUnoptimized) {
  // CostModel keeps references to its profile and spec: they must outlive it.
  const SimTime per_iter = 1e-5;
  const gpu::DeviceProfile profile = gpu::nvidia_k40m();
  const PipelineSpec unopt_spec = stencil_like(32, 16, 16, 2, 2, 0);
  const PipelineSpec opt_spec = stencil_like(32, 16, 16, 2, 2, 1);
  const CostModel unopt(profile, unopt_spec, per_iter);
  const CostModel opt(profile, opt_spec, per_iter);
  EXPECT_GT(unopt.chunk_cost(2).copy_in, opt.chunk_cost(2).copy_in);
  EXPECT_EQ(unopt.chunk_cost(2).copy_out, opt.chunk_cost(2).copy_out);
}

// --- execution equivalence: the optimizer must never change results ---

class StencilOptSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(StencilOptSweep, ChecksumIdenticalOptVsNoOpt) {
  apps::StencilConfig cfg;
  cfg.nx = 10;
  cfg.ny = 9;
  cfg.nz = 12;
  cfg.sweeps = 2;
  cfg.chunk_size = std::get<0>(GetParam());
  cfg.num_streams = std::get<1>(GetParam());
  cfg.opt_level = 0;
  gpu::Gpu g0(gpu::nvidia_k40m()), g1(gpu::nvidia_k40m());
  const auto noopt = apps::stencil_pipelined_buffer(g0, cfg);
  cfg.opt_level = 1;
  const auto opt = apps::stencil_pipelined_buffer(g1, cfg);
  EXPECT_NE(opt.checksum, 0u);
  EXPECT_EQ(opt.checksum, noopt.checksum);
}

INSTANTIATE_TEST_SUITE_P(ChunkStream, StencilOptSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values(1, 2, 4)));

TEST(PlanOptApps, AllFourAppsAgreeAcrossOptLevels) {
  std::uint64_t checksums[4][3] = {};
  for (int opt = 0; opt <= 2; ++opt) {
    gpu::Gpu g1(gpu::nvidia_k40m()), g2(gpu::nvidia_k40m()), g3(gpu::nvidia_k40m()),
        g4(gpu::nvidia_k40m());
    apps::StencilConfig sc;
    sc.nx = 8;
    sc.ny = 7;
    sc.nz = 10;
    sc.sweeps = 2;
    sc.chunk_size = 2;
    sc.opt_level = opt;
    checksums[0][opt] = apps::stencil_pipelined_buffer(g1, sc).checksum;
    apps::Conv3dConfig cc;
    cc.ni = 10;
    cc.nj = 8;
    cc.nk = 8;
    cc.chunk_size = 2;
    cc.opt_level = opt;
    checksums[1][opt] = apps::conv3d_pipelined_buffer(g2, cc).checksum;
    apps::MatmulConfig mc;
    mc.n = 24;
    mc.chunk_cols = 8;
    mc.opt_level = opt;
    checksums[2][opt] = apps::matmul_pipeline_buffer(g3, mc).checksum;
    apps::QcdConfig qc;
    qc.n = 6;
    qc.chunk_size = 2;
    qc.opt_level = opt;
    checksums[3][opt] = apps::qcd_pipelined_buffer(g4, qc).checksum;
  }
  for (int app = 0; app < 4; ++app) {
    EXPECT_NE(checksums[app][0], 0u) << "app " << app;
    EXPECT_EQ(checksums[app][0], checksums[app][1]) << "app " << app;
    EXPECT_EQ(checksums[app][0], checksums[app][2]) << "app " << app;
  }
}

TEST(PlanOptApps, StencilTransfersFewerBytesWhenOptimized) {
  apps::StencilConfig cfg;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.nz = 32;
  cfg.sweeps = 1;
  cfg.chunk_size = 2;
  cfg.opt_level = 0;
  gpu::Gpu g0(gpu::nvidia_k40m()), g1(gpu::nvidia_k40m());
  const auto noopt = apps::stencil_pipelined_buffer(g0, cfg);
  cfg.opt_level = 1;
  const auto opt = apps::stencil_pipelined_buffer(g1, cfg);
  EXPECT_EQ(opt.checksum, noopt.checksum);
  // More H2D traffic costs more virtual transfer time.
  EXPECT_GT(noopt.h2d_time, opt.h2d_time);
}

TEST(PlanOptTiles, TilePipelineAgreesAcrossOptLevels) {
  const std::int64_t rows = 24, cols = 36, th = 4, tw = 6;
  std::vector<double> in(static_cast<std::size_t>(rows * cols));
  for (std::size_t x = 0; x < in.size(); ++x) in[x] = static_cast<double>(x % 31) - 15.0;
  Bytes h2d_by_level[3] = {};
  for (int opt = 0; opt <= 2; ++opt) {
    gpu::Gpu g(gpu::nvidia_k40m());
    std::vector<double> out(in.size(), -1.0);
    TileSpec spec;
    spec.num_streams = 2;
    spec.ni = rows / th;
    spec.nj = cols / tw;
    spec.opt_level = opt;
    spec.arrays = {
        TileArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()),
                      sizeof(double), rows, cols, TileDimSpec{Affine{th, 0}, th},
                      TileDimSpec{Affine{tw, 0}, tw}},
        TileArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()),
                      sizeof(double), rows, cols, TileDimSpec{Affine{th, 0}, th},
                      TileDimSpec{Affine{tw, 0}, tw}},
    };
    TilePipeline p(g, spec);
    p.run([](const TileContext& ctx) {
      gpu::KernelDesc k;
      const TileBufferView vin = ctx.view("in");
      const TileBufferView vout = ctx.view("out");
      const std::int64_t r0 = ctx.i() * 4, c0 = ctx.j() * 6;
      k.body = [vin, vout, r0, c0] {
        for (std::int64_t r = r0; r < r0 + 4; ++r)
          for (std::int64_t c = c0; c < c0 + 6; ++c) *vout.at(r, c) = 2.0 * *vin.at(r, c);
      };
      return k;
    });
    for (std::size_t x = 0; x < in.size(); ++x)
      ASSERT_DOUBLE_EQ(out[x], 2.0 * in[x]) << "opt " << opt << " elem " << x;
    h2d_by_level[opt] = p.h2d_bytes();
  }
  EXPECT_LE(h2d_by_level[1], h2d_by_level[0]);
  EXPECT_EQ(h2d_by_level[2], h2d_by_level[1]);
}

}  // namespace
}  // namespace gpupipe::core
