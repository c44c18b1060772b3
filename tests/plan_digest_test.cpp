// Plan digest corpus: an FNV-1a digest over the canonical dump of every plan
// the builders emit for a fixed corpus of regions, plus the optimization
// report numbers that feed metrics and the scheduler. Any change to a plan
// node, a dependency order, a segment, a label, an event group, or a report
// number changes a digest, so only a change meant to alter plans may re-pin
// them (a refactor of the builders or passes must leave them as they are).
//
// The corpus: the paper's Fig. 4/7 stencil shapes, the four apps'
// Pipelined-buffer regions at test sizes, the nine serve templates, seeded
// random affine regions (To/From/ToFrom, split dims 0 and 1, scales 1-3,
// windows 1-5, partial loop ranges), shard slices, stitched produce and
// consume regions, and seeded random tile regions — each at opt levels
// 0-2, level 2 under three device profiles (the fusion gate's dry run).
// Every corpus plan must also pass validate().
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/layout.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"
#include "core/tile_pipeline.hpp"
#include "gpu/device_profile.hpp"
#include "sched/workloads.hpp"

namespace gpupipe::core {
namespace {

std::byte host[8];

/// Incremental FNV-1a (the same function as common/checksum.hpp's fnv1a).
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  void i64(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int s = 0; s < 64; s += 8) byte(static_cast<unsigned char>(u >> s));
  }
  void f64(double v) { i64(std::bit_cast<std::int64_t>(v)); }
  void str(std::string_view s) {
    i64(static_cast<std::int64_t>(s.size()));
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
};

void dump(Digest& d, const ExecutionPlan& plan) {
  d.i64(plan.num_streams);
  d.i64(plan.chunk_size);
  d.str(plan.origin);
  d.i64(static_cast<std::int64_t>(plan.arrays.size()));
  for (const PlanArrayInfo& a : plan.arrays) {
    d.str(a.name);
    d.i64(static_cast<std::int64_t>(a.map));
    d.i64(a.ring_len);
    d.i64(a.ring_rows);
    d.i64(static_cast<std::int64_t>(a.unit_bytes));
    d.i64(a.pinned);
    d.i64(a.handoff_link);
    d.i64(a.handoff_out);
  }
  d.i64(static_cast<std::int64_t>(plan.nodes.size()));
  for (const PlanNode& n : plan.nodes) {
    d.i64(n.id);
    d.i64(static_cast<std::int64_t>(n.op));
    d.i64(n.stream);
    d.i64(n.array);
    d.i64(n.chunk);
    d.i64(n.begin);
    d.i64(n.end);
    d.i64(n.row_begin);
    d.i64(n.row_end);
    d.i64(n.tile_i);
    d.i64(n.tile_j);
    d.i64(static_cast<std::int64_t>(n.deps.size()));
    for (int dep : n.deps) d.i64(dep);
    d.i64(static_cast<std::int64_t>(n.segments.size()));
    for (const PlanSegment& s : n.segments) {
      d.i64(s.slot);
      d.i64(s.index);
      d.i64(s.count);
      d.i64(s.row_slot);
      d.i64(s.row);
      d.i64(s.rows);
      d.i64(static_cast<std::int64_t>(s.width));
      d.i64(static_cast<std::int64_t>(s.height));
    }
    d.i64(static_cast<std::int64_t>(n.accesses.size()));
    for (const PlanAccess& a : n.accesses) {
      d.i64(a.array);
      d.i64(a.lo);
      d.i64(a.hi);
      d.i64(a.row_lo);
      d.i64(a.row_hi);
      d.i64(a.write);
    }
    d.f64(n.flops);
    d.i64(static_cast<std::int64_t>(n.bytes));
    d.i64(n.records_event);
    d.i64(n.event_node);
    d.i64(n.peer);
    d.str(n.label);
  }
}

/// The report numbers metrics, JobRecord and `gpupipe_plan --summary`
/// read. The `coalesce` entry is skipped: segment coalescing never changed
/// a built plan, and its entry is all zeros.
void dump(Digest& d, const OptReport& r) {
  d.i64(static_cast<std::int64_t>(r.h2d_bytes_before));
  d.i64(static_cast<std::int64_t>(r.h2d_bytes_after));
  d.i64(static_cast<std::int64_t>(r.d2h_bytes_before));
  d.i64(static_cast<std::int64_t>(r.d2h_bytes_after));
  d.i64(r.nodes_before);
  d.i64(r.nodes_after);
  d.i64(static_cast<std::int64_t>(r.stitched_bytes));
  d.i64(r.fused_kernels);
  for (const PassStats& p : r.passes) {
    if (p.pass == "coalesce") {
      EXPECT_EQ(p.nodes_changed, 0);
      continue;
    }
    d.str(p.pass);
    d.i64(p.nodes_removed);
    d.i64(p.nodes_changed);
    d.i64(static_cast<std::int64_t>(p.bytes_saved));
    d.i64(static_cast<std::int64_t>(p.bytes_saved_by_array.size()));
    for (const auto& [name, bytes] : p.bytes_saved_by_array) {
      d.str(name);
      d.i64(static_cast<std::int64_t>(bytes));
    }
  }
}

std::vector<gpu::DeviceProfile> profiles() {
  // Both paper devices, plus split copy engines so the fusion gate's dry
  // run takes the separate-D2H path.
  gpu::DeviceProfile split = gpu::nvidia_k40m();
  split.name = "k40m-split";
  split.unified_copy_engine = false;
  return {gpu::nvidia_k40m(), gpu::amd_hd7970(), split};
}

/// Builds and optimizes the way the runtime does, then folds plan and
/// report into `d`; returns the plan's node count.
std::size_t add_pipeline(Digest& d, const PipelineSpec& spec, std::int64_t chunk, int streams,
                         std::int64_t from, std::int64_t to, const PipelineBuildState& state,
                         const gpu::DeviceProfile& profile) {
  OptReport report;
  ExecutionPlan plan = PlanBuilder::pipeline(spec, chunk, streams, from, to, state, &report);
  report.append(optimize_plan(plan, spec.opt_level, &profile));
  EXPECT_NO_THROW(plan.validate()) << "opt " << spec.opt_level << " chunk " << chunk
                                   << " streams " << streams;
  dump(d, plan);
  dump(d, report);
  return plan.nodes.size();
}

std::size_t add_tiles(Digest& d, const TileSpec& spec, const TileBuildState& state) {
  OptReport report;
  ExecutionPlan plan = PlanBuilder::tiles(spec, state, &report);
  report.append(optimize_plan(plan, spec.opt_level));
  EXPECT_NO_THROW(plan.validate()) << "tile plan, opt " << spec.opt_level;
  dump(d, plan);
  dump(d, report);
  return plan.nodes.size();
}

/// Ring lengths as the runtime derives them (clamped to the extent).
PipelineBuildState predicted_state(const PipelineSpec& spec, std::vector<bool> pinned = {}) {
  PipelineBuildState st;
  for (const ArraySpec& a : spec.arrays)
    st.ring_lens.push_back(
        std::min(layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end, spec.chunk_size,
                                           spec.num_streams),
                 a.dims[static_cast<std::size_t>(a.split.dim)]));
  st.pinned = pinned.empty() ? std::vector<bool>(spec.arrays.size(), true) : std::move(pinned);
  return st;
}

/// Every opt level of the full loop: levels 0 and 1 once (no profile
/// reaches them), level 2 under each profile.
std::size_t add_all_levels(Digest& d, PipelineSpec spec, const std::vector<bool>& pinned = {}) {
  std::size_t nodes = 0;
  for (int opt = 0; opt <= 2; ++opt) {
    spec.opt_level = opt;
    const PipelineBuildState st = predicted_state(spec, pinned);
    for (const gpu::DeviceProfile& p : profiles()) {
      nodes += add_pipeline(d, spec, spec.chunk_size, spec.num_streams, spec.loop_begin,
                            spec.loop_end, st, p);
      if (opt < 2) break;
    }
  }
  return nodes;
}

ArraySpec slab(const std::string& name, MapType map, std::vector<std::int64_t> dims,
               Affine start, std::int64_t window) {
  return ArraySpec{name, map, host, sizeof(double), std::move(dims),
                   SplitSpec{0, start, window}};
}

PipelineSpec region(std::int64_t lo, std::int64_t hi, std::int64_t chunk, int streams,
                    std::vector<ArraySpec> arrays) {
  PipelineSpec spec;
  spec.loop_begin = lo;
  spec.loop_end = hi;
  spec.chunk_size = chunk;
  spec.num_streams = streams;
  spec.arrays = std::move(arrays);
  return spec;
}

PipelineSpec stencil(std::int64_t nz, std::int64_t ny, std::int64_t nx, std::int64_t chunk,
                     int streams) {
  return region(1, nz - 1, chunk, streams,
                {slab("A0", MapType::To, {nz, ny, nx}, {1, -1}, 3),
                 slab("Anext", MapType::From, {nz, ny, nx}, {1, 0}, 1)});
}

/// Seeded random affine region: 1-3 arrays, each To/From/ToFrom, split
/// dim 0 or 1 (2-D arrays), scale 1-3, window 1-5 (outputs at most their
/// scale), chunk 1 to the trip count, streams 1-6.
PipelineSpec random_region(std::mt19937_64& rng) {
  auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const std::int64_t lo = pick(0, 3);
  const std::int64_t trip = pick(1, 40);
  PipelineSpec spec = region(lo, lo + trip, pick(1, trip), static_cast<int>(pick(1, 6)), {});
  const int arrays = static_cast<int>(pick(1, 3));
  for (int ai = 0; ai < arrays; ++ai) {
    const MapType map = static_cast<MapType>(pick(0, 2));
    const std::int64_t scale = pick(1, 3);
    const std::int64_t window = map == MapType::To ? pick(1, 5) : pick(1, scale);
    const std::int64_t offset = -std::min(scale * lo, pick(0, 2));
    const std::int64_t extent = scale * (lo + trip - 1) + offset + window + pick(0, 3);
    ArraySpec a;
    a.name = "a" + std::to_string(ai);
    a.map = map;
    a.host = host;
    a.elem_size = pick(0, 1) ? 8 : 4;
    a.split.start = Affine{scale, offset};
    a.split.window = window;
    if (pick(0, 3) == 0) {
      a.split.dim = 1;
      a.dims = {pick(1, 4), extent};
    } else {
      a.dims = {extent, pick(1, 6)};
    }
    spec.arrays.push_back(std::move(a));
  }
  return spec;
}

void check(const char* name, const Digest& d, std::size_t nodes, std::uint64_t expected) {
  EXPECT_GT(nodes, 0u) << name;
  EXPECT_EQ(d.h, expected) << name << ": digest 0x" << std::hex << d.h << std::dec << " over "
                           << nodes << " plan nodes";
}

TEST(PlanDigest, PaperFigureShapes) {
  // Fig. 4's stencil (256 x 256 x 64 grid, chunk 4) and Fig. 7's
  // convolution (256^3 volume, chunk 1).
  Digest d;
  std::size_t nodes = add_all_levels(d, stencil(64, 256, 256, 4, 3));
  nodes += add_all_levels(d, stencil(256, 256, 256, 1, 4));
  check("paper", d, nodes, 0x77a2723090ad1555ULL);
}

TEST(PlanDigest, AppRegionsAtTestSizes) {
  // The four apps' Pipelined-buffer directives (src/apps), bound to test
  // sizes, over a few chunk/stream shapes each.
  Digest d;
  std::size_t nodes = 0;
  for (const auto& [chunk, streams] : {std::pair{1, 1}, {2, 2}, {3, 4}}) {
    nodes += add_all_levels(d, stencil(10, 7, 8, chunk, streams));
    nodes += add_all_levels(d, region(1, 9, chunk, streams,
                                      {slab("A", MapType::To, {10, 8, 8}, {1, -1}, 3),
                                       slab("B", MapType::From, {10, 8, 8}, {1, 0}, 1)}));
    PipelineSpec matmul = region(0, 24, 8 / chunk, streams, {});
    matmul.arrays = {ArraySpec{"A", MapType::To, host, sizeof(double), {24, 24},
                               SplitSpec{1, Affine{1, 0}, 1}},
                     slab("B", MapType::To, {24, 24}, {1, 0}, 1)};
    nodes += add_all_levels(d, matmul);
    nodes += add_all_levels(d, region(1, 5, chunk, streams,
                                      {slab("psi", MapType::To, {6, 24 * 36}, {1, -1}, 3),
                                       slab("U", MapType::To, {6, 72 * 36}, {1, -1}, 2),
                                       slab("out", MapType::From, {6, 24 * 36}, {1, 0}, 1)}));
  }
  check("apps", d, nodes, 0x4dbdf9d98285684eULL);
}

TEST(PlanDigest, ServeTemplates) {
  Digest d;
  std::size_t nodes = 0;
  for (const char* app : {"stream", "stencil", "compute"})
    for (const char* size : {"small", "medium", "large"}) {
      const sched::ServeJob sj = sched::make_synthetic_job({.app = app, .size = size}, 0);
      nodes += add_all_levels(d, sj.job.spec);
    }
  check("serve", d, nodes, 0x6b0d8e9aa6928626ULL);
}

TEST(PlanDigest, SeededRandomAffineRegions) {
  std::mt19937_64 rng(20261018);
  Digest d;
  std::size_t nodes = 0;
  for (int i = 0; i < 1200; ++i) {
    const PipelineSpec spec = random_region(rng);
    std::vector<bool> pinned;
    for (std::size_t a = 0; a < spec.arrays.size(); ++a) pinned.push_back(rng() % 4 != 0);
    nodes += add_all_levels(d, spec, pinned);
  }
  check("random", d, nodes, 0x18b5471f5949aad4ULL);
}

TEST(PlanDigest, PartialRangesOfRandomRegions) {
  // The adaptive schedule plans the remainder of a loop at a new shape,
  // with the chunk counter continuing where the probe stopped.
  std::mt19937_64 rng(7);
  Digest d;
  std::size_t nodes = 0;
  const gpu::DeviceProfile k40m = gpu::nvidia_k40m();
  for (int i = 0; i < 400; ++i) {
    PipelineSpec spec = random_region(rng);
    const std::int64_t from = spec.loop_begin + static_cast<std::int64_t>(
                                                    rng() % static_cast<std::uint64_t>(
                                                                spec.iterations()));
    const std::int64_t first_chunk = static_cast<std::int64_t>(rng() % 5);
    for (int opt = 0; opt <= 2; ++opt) {
      spec.opt_level = opt;
      PipelineBuildState st = predicted_state(spec);
      st.first_chunk = first_chunk;
      nodes += add_pipeline(d, spec, spec.chunk_size, spec.num_streams, from, spec.loop_end, st,
                            k40m);
    }
  }
  check("partial", d, nodes, 0xa85309421edd28c1ULL);
}

TEST(PlanDigest, ShardSlices) {
  std::mt19937_64 rng(11);
  Digest d;
  std::size_t nodes = 0;
  int sliced = 0;
  for (int i = 0; i < 200; ++i) {
    PipelineSpec spec = random_region(rng);
    for (ArraySpec& a : spec.arrays)
      if (a.split.dim == 1) {
        a.split.dim = 0;
        std::swap(a.dims[0], a.dims[1]);
      }
    for (const std::vector<double>& w : {std::vector<double>{1, 1}, {1, 2, 1}}) {
      for (const ShardSlice& s : shard_pipeline_specs(spec, w)) {
        nodes += add_all_levels(d, s.spec);
        ++sliced;
      }
    }
  }
  EXPECT_GT(sliced, 400);
  check("shard", d, nodes, 0xf6c81ecd1cf355d6ULL);
}

TEST(PlanDigest, StitchedProduceAndConsumeRegions) {
  std::mt19937_64 rng(13);
  Digest d;
  std::size_t nodes = 0;
  int wired = 0;
  for (int i = 0; i < 600; ++i) {
    PipelineSpec spec = random_region(rng);
    int link = 0;
    for (std::size_t ai = 0; ai < spec.arrays.size(); ++ai) {
      ArraySpec& a = spec.arrays[ai];
      if (a.split.dim == 1 || rng() % 3 == 0) continue;
      // ToFrom arrays may be wired either way.
      const bool produce = a.map == MapType::From || (a.map == MapType::ToFrom && rng() % 2);
      spec.handoffs.push_back({static_cast<int>(ai), link++, produce});
    }
    if (spec.handoffs.empty()) continue;
    ++wired;
    nodes += add_all_levels(d, spec);
  }
  EXPECT_GT(wired, 300);
  check("stitch", d, nodes, 0xf20608b49e218fefULL);
}

TEST(PlanDigest, SeededRandomTileRegions) {
  std::mt19937_64 rng(17);
  auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  Digest d;
  std::size_t nodes = 0;
  for (int i = 0; i < 600; ++i) {
    TileSpec spec;
    spec.num_streams = static_cast<int>(pick(1, 4));
    spec.ni = pick(1, 4);
    spec.nj = pick(1, 8);
    const int arrays = static_cast<int>(pick(1, 3));
    TileBuildState st;
    for (int ai = 0; ai < arrays; ++ai) {
      TileArraySpec a;
      a.name = "t" + std::to_string(ai);
      a.map = static_cast<MapType>(pick(0, 2));
      a.host = host;
      a.elem_size = 8;
      const std::int64_t rs = pick(1, 3), cs = pick(1, 3);
      a.row_split = {Affine{rs, 0}, a.map == MapType::To ? pick(1, 4) : pick(1, rs)};
      a.col_split = {Affine{cs, 0}, a.map == MapType::To ? pick(1, 5) : pick(1, cs)};
      a.rows = rs * (spec.ni - 1) + a.row_split.window + pick(0, 2);
      a.cols = cs * (spec.nj - 1) + a.col_split.window + pick(0, 2);
      // Ring extents exactly as TilePipeline allocates them.
      st.ring_rows.push_back(std::min(a.rows, a.row_split.window));
      st.ring_cols.push_back(std::min(
          a.cols, cs * spec.num_streams +
                      layout::round_up(layout::halo(a.col_split.window, cs), cs)));
      st.pinned.push_back(pick(0, 3) != 0);
      spec.arrays.push_back(std::move(a));
    }
    for (int opt = 0; opt <= 2; ++opt) {
      spec.opt_level = opt;
      nodes += add_tiles(d, spec, st);
    }
  }
  check("tiles", d, nodes, 0xcb6779014a92943dULL);
}

}  // namespace
}  // namespace gpupipe::core
