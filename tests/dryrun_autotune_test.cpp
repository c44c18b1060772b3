// Replay autotuning fidelity: the sweep (plan replay, no execution, no
// allocations) must select the same configuration as executing every
// candidate on the paper's Fig. 4 / Fig. 7 style workloads. Its pruning
// lower bound must never exceed a replay, and the pruned sweep must pick
// exactly what replaying every candidate picks.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/conv3d.hpp"
#include "apps/matmul.hpp"
#include "apps/qcd.hpp"
#include "apps/stencil.hpp"
#include "common/rng.hpp"
#include "core/autotune.hpp"
#include "core/model.hpp"
#include "core/plan_cache.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

// Lattice-QCD-shaped region (Fig. 4): spinor + gauge planes in with a halo,
// result planes out, t the split dimension.
PipelineSpec qcd_spec(gpu::Gpu& g, std::int64_t n) {
  const std::int64_t v = n * n * n * 24;  // spinor doubles per t-plane
  const std::int64_t u = n * n * n * 72;  // gauge doubles per t-plane
  std::byte* psi = g.host_alloc(static_cast<Bytes>(n * v) * 8);
  std::byte* gauge = g.host_alloc(static_cast<Bytes>(n * u) * 8);
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * v) * 8);
  PipelineSpec spec;
  spec.loop_begin = 1;
  spec.loop_end = n - 1;
  spec.arrays = {
      ArraySpec{"psi", MapType::To, psi, 8, {n, v}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"U", MapType::To, gauge, 8, {n, u}, SplitSpec{0, Affine{1, -1}, 2}},
      ArraySpec{"out", MapType::From, out, 8, {n, v}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

// Stencil-shaped region (Fig. 7): one halo'd input grid, one output grid.
PipelineSpec stencil_spec(gpu::Gpu& g, std::int64_t nz, std::int64_t plane) {
  std::byte* in = g.host_alloc(static_cast<Bytes>(nz * plane) * 8);
  std::byte* out = g.host_alloc(static_cast<Bytes>(nz * plane) * 8);
  PipelineSpec spec;
  spec.loop_begin = 1;
  spec.loop_end = nz - 1;
  spec.arrays = {
      ArraySpec{"in", MapType::To, in, 8, {nz, plane}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"out", MapType::From, out, 8, {nz, plane}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

// A kernel whose cost is exactly linear in the iteration count, so the
// analytic hint reproduces the measured kernel term bit-for-bit.
KernelFactory linear_kernel(double flops_per_iter, double bytes_per_iter) {
  return [=](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.flops = flops_per_iter * static_cast<double>(ctx.iterations());
    k.bytes = static_cast<Bytes>(bytes_per_iter * static_cast<double>(ctx.iterations()));
    return k;
  };
}

// The executed reference: runs every candidate through a Pipeline on `g`
// and returns the first of the fastest, chunks outer like the sweep.
std::pair<std::int64_t, int> executed_pick(gpu::Gpu& g, const PipelineSpec& spec,
                                           const KernelFactory& kernel,
                                           const std::vector<std::int64_t>& chunks,
                                           const std::vector<int>& streams) {
  SimTime best = std::numeric_limits<SimTime>::infinity();
  std::pair<std::int64_t, int> pick{0, 0};
  for (std::int64_t c : chunks) {
    for (int s : streams) {
      PipelineSpec trial = spec;
      trial.chunk_size = c;
      trial.num_streams = s;
      Pipeline p(g, trial);
      const SimTime t0 = g.host_now();
      p.run(kernel);
      const SimTime t = g.host_now() - t0;
      if (t < best) {
        best = t;
        pick = {c, s};
      }
    }
  }
  return pick;
}

void expect_same_pick(gpu::Gpu& g, const PipelineSpec& spec, const KernelCostHint& hint,
                      const std::vector<std::int64_t>& chunks,
                      const std::vector<int>& streams) {
  TuneOptions dry;
  dry.chunk_candidates = chunks;
  dry.stream_candidates = streams;
  dry.kernel_cost = hint;

  const KernelFactory kernel = linear_kernel(hint.flops_per_iter, hint.bytes_per_iter);
  const std::uint64_t allocs_before = g.device_mem_stats().total_allocations;
  const TuneResult predicted = autotune(g, spec, kernel, dry);
  // The whole sweep must not have touched device memory at all.
  EXPECT_EQ(g.device_mem_stats().total_allocations, allocs_before);
  EXPECT_EQ(predicted.explored.size(), chunks.size() * streams.size());

  const auto [chunk, streams_picked] = executed_pick(g, spec, kernel, chunks, streams);
  EXPECT_EQ(predicted.chunk_size, chunk);
  EXPECT_EQ(predicted.num_streams, streams_picked);
}

TEST(DryRunAutotune, MatchesExecutedPickOnFig4QcdSweep) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 36;  // the paper's large lattice
  const PipelineSpec spec = qcd_spec(g, n);
  // Wilson dslash, 24 applications per transferred dataset (see apps/qcd).
  KernelCostHint hint;
  hint.flops_per_iter = static_cast<double>(n * n * n) * 1320.0 * 24.0;
  hint.bytes_per_iter = static_cast<double>(n * n * n) * 120.0 * 8.0;
  expect_same_pick(g, spec, hint, {1, 2, 4, 8}, {1, 2, 3, 4, 5});
}

TEST(DryRunAutotune, MatchesExecutedPickOnFig7StencilSweep) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t nz = 64, plane = 256 * 256;  // Fig. 7's K40m dataset
  const PipelineSpec spec = stencil_spec(g, nz, plane);
  KernelCostHint hint;
  hint.flops_per_iter = static_cast<double>(plane) * 8.0;
  hint.bytes_per_iter = static_cast<double>(plane) * 24.0;
  expect_same_pick(g, spec, hint, {2, 4}, {1, 2, 3, 4, 8});
}

TEST(DryRunAutotune, InfeasibleCandidatesAreMarkedNotDropped) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 1024, m = 65536;  // 512 KiB rows
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * 8);
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * 8);
  PipelineSpec spec;
  spec.loop_begin = 0;
  spec.loop_end = n;
  spec.arrays = {
      ArraySpec{"in", MapType::To, in, 8, {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
      ArraySpec{"out", MapType::From, out, 8, {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  spec.mem_limit = 32 * MiB;  // chunk 64 with 2 streams would need > 128 MiB

  TuneOptions dry;
  dry.chunk_candidates = {1, 4, 64};
  dry.stream_candidates = {2};
  dry.kernel_cost = KernelCostHint{static_cast<double>(m), static_cast<double>(m) * 16.0};
  const TuneResult r = autotune(g, spec, linear_kernel(0, 0), dry);
  EXPECT_LE(r.chunk_size, 4);
  EXPECT_EQ(r.explored.size(), 3u);
  bool infeasible_seen = false;
  for (const auto& c : r.explored) infeasible_seen = infeasible_seen || !c.feasible;
  EXPECT_TRUE(infeasible_seen);
}

// --- The lower bound behind the pruned sweep ---

// Split copy engines and concurrent kernels: no stock profile has either.
gpu::DeviceProfile split_engine_profile() {
  gpu::DeviceProfile p = gpu::nvidia_k40m();
  p.name = "split-engine test device";
  p.unified_copy_engine = false;
  p.h2d_engines = 2;
  p.d2h_engines = 1;
  p.max_concurrent_kernels = 4;
  return p;
}

// API calls slower than the device work they enqueue: the host-call term
// binds (it never does on the stock profiles).
gpu::DeviceProfile host_bound_profile() {
  gpu::DeviceProfile p = gpu::nvidia_k40m();
  p.name = "host-bound test device";
  p.api_call_host_overhead = usec(400.0);
  return p;
}

// One seeded region: 1-3 arrays (to / from / tofrom), split on dim 0 or on
// dim 1 of a 2-D array, varied scale, offset, window and element size,
// pinned or pageable hosts.
PipelineSpec random_spec(gpu::Gpu& g, Rng& rng) {
  auto pick = [&](std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo + 1);
    return lo + static_cast<std::int64_t>(rng.next_below(span));
  };
  PipelineSpec spec;
  spec.loop_begin = pick(0, 2);
  spec.loop_end = spec.loop_begin + pick(1, 24);
  spec.opt_level = static_cast<int>(pick(0, 2));
  const std::int64_t arrays = pick(1, 3);
  for (std::int64_t i = 0; i < arrays; ++i) {
    ArraySpec a;
    a.name = "a" + std::to_string(i);
    a.map = static_cast<MapType>(pick(0, 2));
    const std::int64_t scale = pick(1, 3);
    const std::int64_t window = a.map == MapType::To ? pick(1, 4) : pick(1, scale);
    const std::int64_t offset = pick(-scale * spec.loop_begin, 2);
    const std::int64_t extent = scale * (spec.loop_end - 1) + offset + window + pick(0, 3);
    a.split = SplitSpec{static_cast<int>(pick(0, 1)), Affine{scale, offset}, window};
    // Widths from a few bytes to past the PCIe half-saturation size.
    const std::int64_t other = std::int64_t{1} << pick(0, 15);
    a.dims = a.split.dim == 0 ? std::vector<std::int64_t>{extent, other}
                              : std::vector<std::int64_t>{std::min<std::int64_t>(other, 512),
                                                          extent};
    a.elem_size = Bytes{8} << (3 * pick(0, 3));  // 8 B .. 4 KiB: wide 2-D rows too
    a.host = g.host_alloc(a.total_bytes(), rng.next_below(2) == 0);
    spec.arrays.push_back(std::move(a));
  }
  spec.chunk_size = pick(1, spec.iterations());
  spec.num_streams = static_cast<int>(pick(1, 8));
  return spec;
}

TEST(DryRunBound, NeverExceedsTheReplayedMakespan) {
  // Seeded property test over shapes, opt levels, profiles, host memory
  // kinds and both kernel cost forms: the (margin-scaled) bound must stay at
  // or below the replay of the compiled plan.
  std::vector<std::unique_ptr<gpu::Gpu>> devices;
  for (const gpu::DeviceProfile& p :
       {gpu::nvidia_k40m(), gpu::amd_hd7970(), gpu::intel_xeonphi(), split_engine_profile(),
        host_bound_profile()})
    devices.push_back(std::make_unique<gpu::Gpu>(p, gpu::ExecMode::Modeled));
  Rng rng(0xb0b0u);
  int tight = 0;  // cases within 1 % of the replay
  constexpr int kCases = 2500;
  for (int i = 0; i < kCases; ++i) {
    gpu::Gpu& g = *devices[static_cast<std::size_t>(i) % devices.size()];
    const PipelineSpec spec = random_spec(g, rng);
    DryRunCost cost;
    if (rng.next_below(2) == 0) {
      cost.flops_per_iter = rng.uniform(0.0, 2e9);
      cost.bytes_per_iter = rng.uniform(0.0, 4e8);
    } else {
      cost.seconds_per_iter = rng.uniform(0.0, 2e-4);
    }
    cost.live_streams = spec.num_streams;
    const SimTime bound = dry_run_lower_bound(g, spec, cost);
    const SimTime replay =
        dry_run(*PlanCache::instance().compile(g, spec).plan, g.profile(), cost,
                DryRunTrace::MakespanOnly)
            .makespan;
    ASSERT_GT(bound, 0.0) << "case " << i;
    ASSERT_LE(bound, replay) << "case " << i << " on " << g.profile().name << ": opt "
                             << spec.opt_level << ", chunk " << spec.chunk_size << ", streams "
                             << spec.num_streams << ", trip " << spec.iterations();
    if (bound >= 0.99 * replay) ++tight;
    for (const ArraySpec& a : spec.arrays) g.host_free(a.host);
  }
  // A bound that decays toward 0 would pass the check above and prune
  // nothing; many cases must sit right at the replay.
  EXPECT_GT(tight, kCases / 10);
}

TEST(DryRunBound, BoundsNothingWhereItCannotReason) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  PipelineSpec spec = stencil_spec(g, 16, 64);
  const DryRunCost cost{64.0 * 8.0, 64.0 * 24.0, 0.0, 2};
  EXPECT_GT(dry_run_lower_bound(g, spec, cost), 0.0);

  PipelineSpec fn = spec;
  fn.arrays[1].split.window_fn = [](std::int64_t k) { return std::pair{k, k + 1}; };
  EXPECT_EQ(dry_run_lower_bound(g, fn, cost), 0.0);

  PipelineSpec halo = spec;
  halo.halos.push_back(ShardHalo{0, 10, 1, -1, -1});
  EXPECT_EQ(dry_run_lower_bound(g, halo, cost), 0.0);

  PipelineSpec handoff = spec;
  handoff.handoffs.push_back(ArrayHandoff{1, 0, true});
  EXPECT_EQ(dry_run_lower_bound(g, handoff, cost), 0.0);
}

// The shapes the pruned sweep must tune exactly: Fig. 4's QCD and Fig. 7's
// stencil, and the directive shapes of the paper_regions variants at their
// base sizes (3dconv, stencil, qcd, matmul column blocks), with the apps'
// calibrated per-iteration costs.
struct TunedShape {
  std::string name;
  PipelineSpec spec;
  KernelCostHint hint;
};

std::vector<TunedShape> tuned_shapes(gpu::Gpu& g) {
  std::vector<TunedShape> shapes;
  {
    const std::int64_t n = 36;
    KernelCostHint hint{static_cast<double>(n * n * n) * 1320.0 * 24.0,
                        static_cast<double>(n * n * n) * 120.0 * 8.0};
    shapes.push_back({"fig4-qcd", qcd_spec(g, n), hint});
  }
  {
    const std::int64_t plane = 256 * 256;
    KernelCostHint hint{static_cast<double>(plane) * 8.0, static_cast<double>(plane) * 24.0};
    shapes.push_back({"fig7-stencil", stencil_spec(g, 64, plane), hint});
  }
  auto array = [&](const char* name, MapType map, std::vector<std::int64_t> dims,
                   SplitSpec split) {
    std::int64_t elems = 1;
    for (std::int64_t d : dims) elems *= d;
    return ArraySpec{name, map, g.host_alloc(static_cast<Bytes>(elems) * 8), 8, std::move(dims),
                     split};
  };
  {
    const apps::Conv3dModel m;
    const std::int64_t n = 128;
    PipelineSpec spec;
    spec.loop_begin = 1;
    spec.loop_end = n - 1;
    spec.arrays = {array("A", MapType::To, {n, n, n}, SplitSpec{0, Affine{1, -1}, 3}),
                   array("B", MapType::From, {n, n, n}, SplitSpec{0, Affine{1, 0}, 1})};
    const double elems = static_cast<double>(n * n) * m.buffer_overhead;
    shapes.push_back({"3dconv-variant", spec,
                      {m.flops_per_elem * elems, m.bytes_per_elem * elems}});
  }
  {
    const apps::StencilModel m;
    const std::int64_t nz = 64, nx = 128;
    PipelineSpec spec;
    spec.loop_begin = 1;
    spec.loop_end = nz - 1;
    spec.arrays = {array("A0", MapType::To, {nz, nx, nx}, SplitSpec{0, Affine{1, -1}, 3}),
                   array("Anext", MapType::From, {nz, nx, nx}, SplitSpec{0, Affine{1, 0}, 1})};
    const double elems = static_cast<double>(nx * nx) * m.buffer_overhead;
    shapes.push_back({"stencil-variant", spec,
                      {m.flops_per_elem * elems, m.bytes_per_elem * elems}});
  }
  {
    apps::QcdConfig c;
    c.n = 16;
    PipelineSpec spec;
    spec.loop_begin = 1;
    spec.loop_end = c.n - 1;
    spec.arrays = {
        array("psi", MapType::To, {c.n, c.spinor_plane()}, SplitSpec{0, Affine{1, -1}, 3}),
        array("U", MapType::To, {c.n, c.gauge_plane()}, SplitSpec{0, Affine{1, -1}, 2}),
        array("out", MapType::From, {c.n, c.spinor_plane()}, SplitSpec{0, Affine{1, 0}, 1})};
    const double sites = static_cast<double>(c.sites_per_t());
    shapes.push_back({"qcd-variant", spec,
                      {c.model.flops_per_site * c.model.dslash_apps_per_pass * sites *
                           c.model.buffer_overhead / c.model.efficiency,
                       960.0 * sites}});
  }
  {
    const apps::MatmulModel m;
    const std::int64_t n = 1024;
    PipelineSpec spec;
    spec.loop_begin = 0;
    spec.loop_end = n;
    spec.arrays = {array("A", MapType::To, {n, n}, SplitSpec{1, Affine{1, 0}, 1}),
                   array("B", MapType::To, {n, n}, SplitSpec{0, Affine{1, 0}, 1})};
    const double pairs = static_cast<double>(n * n) * m.buffer_overhead;
    shapes.push_back({"matmul-variant", spec, {2.0 * pairs, 16.0 * pairs / m.tile}});
  }
  return shapes;
}

TEST(DryRunBound, PrunedSweepPicksExactlyWhatTheFullSweepPicks) {
  for (const gpu::DeviceProfile& profile : {gpu::nvidia_k40m(), gpu::amd_hd7970()}) {
    gpu::Gpu g(profile, gpu::ExecMode::Modeled);
    g.hazards().set_enabled(false);
    for (const TunedShape& shape : tuned_shapes(g)) {
      SCOPED_TRACE(shape.name + " on " + profile.name);
      TuneOptions opt;
      opt.kernel_cost = shape.hint;
      const TuneResult r = autotune(
          g, shape.spec, linear_kernel(shape.hint.flops_per_iter, shape.hint.bytes_per_iter),
          opt);

      // The full sweep, by hand: every feasible candidate's estimate, first
      // in explored order on ties.
      SimTime best = std::numeric_limits<SimTime>::infinity();
      std::int64_t best_chunk = 0;
      int best_streams = 0;
      std::size_t feasible = 0, pruned = 0;
      for (const TuneCandidate& cand : r.explored) {
        if (!cand.feasible) continue;
        ++feasible;
        PipelineSpec trial = shape.spec;
        trial.chunk_size = cand.chunk_size;
        trial.num_streams = cand.num_streams;
        const DryRunCost cost{shape.hint.flops_per_iter, shape.hint.bytes_per_iter, 0.0,
                              cand.num_streams};
        const SimTime direct = PlanCache::instance().estimate(g, trial, cost);
        if (direct < best) {
          best = direct;
          best_chunk = cand.chunk_size;
          best_streams = cand.num_streams;
        }
        if (cand.pruned()) {
          ++pruned;
          EXPECT_GT(dry_run_lower_bound(g, trial, cost), r.best_time)
              << "chunk " << cand.chunk_size << " x " << cand.num_streams;
        } else {
          EXPECT_EQ(cand.measured, direct) << "chunk " << cand.chunk_size << " x "
                                           << cand.num_streams;  // bit for bit
        }
      }
      EXPECT_EQ(r.chunk_size, best_chunk);
      EXPECT_EQ(r.num_streams, best_streams);
      EXPECT_EQ(r.best_time, best);
      EXPECT_GE(2 * pruned, feasible) << pruned << " of " << feasible << " pruned";
    }
  }
}

}  // namespace
}  // namespace gpupipe::core
