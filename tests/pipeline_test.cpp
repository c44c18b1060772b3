// Integration tests for the core pipeline executor: correctness of the
// sliding-window copies, ring-buffer index translation, cross-stream event
// chaining, memory-limit solving, and the adaptive schedule extension.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/pipeline.hpp"
#include "core/plan_cache.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

gpu::DeviceProfile small_profile() {
  auto p = gpu::nvidia_k40m();
  return p;
}

/// Builds a spec that doubles each row of an NxM matrix:
/// out[i][j] = 2 * in[i][j], pipelined over rows with window 1.
PipelineSpec rows_spec(std::vector<double>& in, std::vector<double>& out, std::int64_t n,
                       std::int64_t m, std::int64_t chunk, int streams) {
  PipelineSpec spec;
  spec.chunk_size = chunk;
  spec.num_streams = streams;
  spec.loop_begin = 0;
  spec.loop_end = n;
  spec.arrays = {
      ArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
      ArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

KernelFactory doubler(std::int64_t m) {
  return [m](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.name = "double";
    k.flops = static_cast<double>(ctx.iterations() * m);
    k.bytes = static_cast<Bytes>(ctx.iterations() * m) * 2 * sizeof(double);
    const BufferView in = ctx.view("in");
    const BufferView out = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    k.body = [in, out, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r) {
        const double* src = in.slab_ptr(r);
        double* dst = out.slab_ptr(r);
        for (std::int64_t j = 0; j < m; ++j) dst[j] = 2.0 * src[j];
      }
    };
    return k;
  };
}

TEST(Pipeline, ComputesCorrectResultWithWindowOne) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 64, m = 16;
  std::vector<double> in(n * m), out(n * m, -1.0);
  std::iota(in.begin(), in.end(), 0.0);

  Pipeline p(g, rows_spec(in, out, n, m, 4, 3));
  p.run(doubler(m));

  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 2.0 * in[i]) << i;
}

class PipelineSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

// Property: result is identical for every chunk-size/stream-count
// combination — partitioning must never change semantics.
TEST_P(PipelineSweep, ResultIndependentOfChunkAndStreams) {
  const auto [chunk, streams] = GetParam();
  gpu::Gpu g(small_profile());
  const std::int64_t n = 37, m = 11;  // deliberately not divisible by chunk
  std::vector<double> in(n * m), out(n * m, -1.0);
  std::iota(in.begin(), in.end(), 1.0);

  Pipeline p(g, rows_spec(in, out, n, m, chunk, streams));
  p.run(doubler(m));

  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 2.0 * in[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(ChunkStream, PipelineSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 37, 64),
                                            ::testing::Values(1, 2, 3, 4, 8)));

TEST(Pipeline, StencilWindowThreeComputesNeighbours) {
  // out[k] = in[k-1] + in[k] + in[k+1] over the split dimension, the shape
  // of the paper's Fig. 2 example.
  gpu::Gpu g(small_profile());
  const std::int64_t n = 40, m = 8;
  std::vector<double> in(n * m), out(n * m, 0.0);
  std::iota(in.begin(), in.end(), 0.0);

  PipelineSpec spec;
  spec.chunk_size = 1;
  spec.num_streams = 3;
  spec.loop_begin = 1;
  spec.loop_end = n - 1;
  spec.arrays = {
      ArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  Pipeline p(g, spec);
  p.run([m](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    const BufferView in_v = ctx.view("in");
    const BufferView out_v = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    k.flops = static_cast<double>((hi - lo) * m * 2);
    k.bytes = static_cast<Bytes>((hi - lo) * m) * 4 * sizeof(double);
    k.body = [in_v, out_v, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r) {
        double* dst = out_v.slab_ptr(r);
        for (std::int64_t j = 0; j < m; ++j)
          dst[j] = in_v.slab_ptr(r - 1)[j] + in_v.slab_ptr(r)[j] + in_v.slab_ptr(r + 1)[j];
      }
    };
    return k;
  });

  for (std::int64_t r = 1; r < n - 1; ++r)
    for (std::int64_t j = 0; j < m; ++j)
      ASSERT_DOUBLE_EQ(out[r * m + j],
                       in[(r - 1) * m + j] + in[r * m + j] + in[(r + 1) * m + j]);
}

TEST(Pipeline, SlidingWindowCopiesEachInputSliceOnce) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 32, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m);
  Pipeline p(g, rows_spec(in, out, n, m, 2, 2));
  p.run(doubler(m));
  // Every input row crosses the bus exactly once (window 1, no halo).
  EXPECT_EQ(p.stats().h2d_bytes, static_cast<Bytes>(n * m) * sizeof(double));
  EXPECT_EQ(p.stats().d2h_bytes, static_cast<Bytes>(n * m) * sizeof(double));
  EXPECT_EQ(p.stats().chunks, 16);
  EXPECT_EQ(p.stats().kernels, 16);
}

TEST(Pipeline, HaloRowsAreNotRecopied) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 32, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m);
  PipelineSpec spec;
  spec.chunk_size = 1;
  spec.num_streams = 2;
  spec.loop_begin = 1;
  spec.loop_end = n - 1;
  spec.arrays = {
      ArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  Pipeline p(g, spec);
  p.run([m](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    const BufferView out_v = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    k.body = [out_v, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r)
        for (std::int64_t j = 0; j < m; ++j) out_v.slab_ptr(r)[j] = 1.0;
    };
    return k;
  });
  // Despite the window of 3, the sliding window transfers each of the n
  // input rows exactly once.
  EXPECT_EQ(p.stats().h2d_bytes, static_cast<Bytes>(n * m) * sizeof(double));
}

TEST(Pipeline, BufferFootprintIsFarSmallerThanArrays) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 4096, m = 64;
  std::vector<double> in(n * m, 1.0), out(n * m);
  Pipeline p(g, rows_spec(in, out, n, m, 2, 3));
  const Bytes full = 2 * static_cast<Bytes>(n * m) * sizeof(double);
  EXPECT_LT(p.buffer_footprint(), full / 100);
}

TEST(Pipeline, MemLimitShrinksChunkSize) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 1024, m = 1024;  // 8 MiB per row-chunk at chunk 1024
  std::vector<double> in(n * m, 1.0), out(n * m);
  PipelineSpec spec = rows_spec(in, out, n, m, 256, 2);
  spec.mem_limit = 2 * MiB;
  Pipeline p(g, spec);
  EXPECT_LT(p.effective_chunk_size(), 256);
  EXPECT_LE(p.buffer_footprint(), 2 * MiB);
  p.run(doubler(m));
  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 2.0) << i;
}

TEST(Pipeline, UnsatisfiableMemLimitThrows) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 16, m = 1024;
  std::vector<double> in(n * m, 1.0), out(n * m);
  PipelineSpec spec = rows_spec(in, out, n, m, 1, 1);
  spec.mem_limit = 4 * KiB;  // smaller than a single row pair
  EXPECT_THROW(Pipeline(g, spec), gpu::OomError);
}

TEST(Pipeline, RunIsRepeatable) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 16, m = 8;
  std::vector<double> in(n * m), out(n * m);
  std::iota(in.begin(), in.end(), 0.0);
  Pipeline p(g, rows_spec(in, out, n, m, 2, 2));
  p.run(doubler(m));
  // Second run consumes the outputs of the first.
  in = out;
  p.run(doubler(m));
  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 4.0 * i);
}

TEST(Pipeline, OverlapBeatsSerialExecution) {
  // With >= 2 streams the virtual finish time must be smaller than with 1
  // stream (that is the whole point of the paper).
  // Overlap needs kernel time comparable to transfer time, so this variant
  // of the kernel is compute-heavy.
  const std::int64_t n = 256, m = 2048;
  auto heavy_doubler = [&](const ChunkContext& ctx) {
    gpu::KernelDesc k = doubler(m)(ctx);
    k.bytes = static_cast<Bytes>(ctx.iterations() * m) * sizeof(double) * 256;
    return k;
  };
  auto run_with = [&](int streams) {
    gpu::Gpu g(small_profile());
    g.hazards().set_enabled(false);
    std::vector<double> in(n * m, 1.0), out(n * m);
    Pipeline p(g, rows_spec(in, out, n, m, 8, streams));
    const SimTime t0 = g.host_now();
    p.run(heavy_doubler);
    return g.host_now() - t0;
  };
  const SimTime t1 = run_with(1);
  const SimTime t2 = run_with(2);
  EXPECT_LT(t2, 0.9 * t1);
}

TEST(Pipeline, HazardTrackerAcceptsTheSchedule) {
  // Hazard validation is enabled by default in these tests; a full sweep
  // finishing without HazardError proves every dependency is explicit.
  gpu::Gpu g(small_profile());
  ASSERT_TRUE(g.hazards().enabled());
  const std::int64_t n = 64, m = 32;
  std::vector<double> in(n * m, 3.0), out(n * m);
  Pipeline p(g, rows_spec(in, out, n, m, 3, 4));
  EXPECT_NO_THROW(p.run(doubler(m)));
}

// Static validation is per plan object: an enqueue with hazards off leaves
// the plan unproven, and the first enqueue with them on proves it.
TEST(Pipeline, PlanEnqueuedWithHazardsOffIsProvenOnceTheyAreOn) {
  // Cache off: the pipeline gets a private plan no earlier test proved.
  PlanCache& cache = PlanCache::instance();
  const std::size_t capacity = cache.capacity();
  cache.set_capacity(0);
  gpu::Gpu g(small_profile());
  const std::int64_t n = 16, m = 8;
  std::vector<double> in(n * m, 1.0), out(n * m);
  Pipeline p(g, rows_spec(in, out, n, m, 2, 2));
  g.hazards().set_enabled(false);
  p.enqueue(doubler(m));
  p.wait();
  if (!gpu::HazardTracker::force_enabled()) {
    EXPECT_FALSE(p.execution_plan().proven());
  }
  g.hazards().set_enabled(true);
  p.enqueue(doubler(m));
  p.wait();
  EXPECT_TRUE(p.execution_plan().proven());
  cache.set_capacity(capacity);
}

TEST(Pipeline, AdaptiveScheduleMatchesStaticResult) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 100, m = 64;
  std::vector<double> in(n * m), out(n * m);
  std::iota(in.begin(), in.end(), 0.0);
  PipelineSpec spec = rows_spec(in, out, n, m, 1, 2);
  spec.schedule = ScheduleKind::Adaptive;
  Pipeline p(g, spec);
  p.run(doubler(m));
  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 2.0 * in[i]);
}

TEST(Pipeline, AdaptivePicksLargerChunksForTinyIterations) {
  // Tiny per-iteration work: per-chunk overheads dominate, so the adaptive
  // scheduler should coarsen the chunk size above the initial 1.
  gpu::Gpu g(small_profile());
  const std::int64_t n = 512, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m);
  PipelineSpec spec = rows_spec(in, out, n, m, 1, 2);
  spec.schedule = ScheduleKind::Adaptive;
  Pipeline p(g, spec);
  p.run(doubler(m));
  EXPECT_GT(p.effective_chunk_size(), 1);
}

TEST(Pipeline, ValidatesSpec) {
  gpu::Gpu g(small_profile());
  PipelineSpec spec;  // empty: no arrays, empty loop
  EXPECT_THROW(Pipeline(g, spec), Error);
}

TEST(Pipeline, UnknownViewNameThrows) {
  gpu::Gpu g(small_profile());
  const std::int64_t n = 8, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m);
  Pipeline p(g, rows_spec(in, out, n, m, 2, 2));
  EXPECT_THROW(p.run([](const ChunkContext& ctx) {
    (void)ctx.view("nonexistent");
    return gpu::KernelDesc{};
  }),
               Error);
}

TEST(Pipeline, RingLenFormulaCoversInFlightWindows) {
  ArraySpec a;
  a.split = SplitSpec{0, Affine{1, -1}, 3};
  // 2 streams, chunk 4 (stride 4): two in-flight windows (8 slots) plus the
  // 2-index halo rounded up to the stride => 12.
  EXPECT_EQ(Pipeline::ring_len_for(a, 4, 2), 12);
  // Window does not exceed the per-iteration stride: no halo slots needed.
  a.split = SplitSpec{0, Affine{2, 0}, 2};
  EXPECT_EQ(Pipeline::ring_len_for(a, 3, 2), 12);
  a.split = SplitSpec{0, Affine{1, 0}, 1};
  EXPECT_EQ(Pipeline::ring_len_for(a, 512, 2), 1024);
}

}  // namespace
}  // namespace gpupipe::core
