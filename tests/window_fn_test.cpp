// Tests for the function-based dependency extension: SplitSpec::window_fn
// replaces the affine [split_iter:size] declaration with an arbitrary
// monotone per-iteration range callback.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/pipeline.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

/// Rows of a "ragged" computation: iteration k consumes input rows
/// [tri(k), tri(k+1)) where tri is the triangular-number prefix — windows
/// of growing, non-affine size (1, 2, 3, ... rows).
std::int64_t tri(std::int64_t k) { return k * (k + 1) / 2; }

TEST(WindowFn, RaggedWindowsComputeCorrectly) {
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t iters = 8;
  const std::int64_t rows = tri(iters);  // 36 input rows
  const std::int64_t m = 4;
  std::vector<double> in(rows * m), out(iters * m, 0.0);
  std::iota(in.begin(), in.end(), 0.0);

  PipelineSpec spec;
  spec.chunk_size = 2;
  spec.num_streams = 2;
  spec.loop_begin = 0;
  spec.loop_end = iters;
  ArraySpec a_in{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()), sizeof(double),
                 {rows, m}, SplitSpec{}};
  a_in.split.window_fn = [](std::int64_t k) { return std::make_pair(tri(k), tri(k + 1)); };
  ArraySpec a_out{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()),
                  sizeof(double), {iters, m}, SplitSpec{0, Affine{1, 0}, 1}};
  spec.arrays = {a_in, a_out};

  Pipeline p(g, spec);
  p.run([m](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    const BufferView vin = ctx.view("in");
    const BufferView vout = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    // out[k][j] = sum over the k-th ragged group of in rows.
    k.body = [vin, vout, lo, hi, m] {
      for (std::int64_t it = lo; it < hi; ++it) {
        double* dst = vout.slab_ptr(it);
        for (std::int64_t j = 0; j < m; ++j) dst[j] = 0.0;
        for (std::int64_t r = tri(it); r < tri(it + 1); ++r)
          for (std::int64_t j = 0; j < m; ++j) dst[j] += vin.slab_ptr(r)[j];
      }
    };
    return k;
  });

  for (std::int64_t it = 0; it < iters; ++it) {
    for (std::int64_t j = 0; j < m; ++j) {
      double expect = 0.0;
      for (std::int64_t r = tri(it); r < tri(it + 1); ++r) expect += in[r * m + j];
      ASSERT_DOUBLE_EQ(out[it * m + j], expect) << it << "," << j;
    }
  }
}

TEST(WindowFn, RingSizeCoversTheLargestWindowGroup) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* host = g.host_alloc(64 * MiB);
  PipelineSpec spec;
  spec.chunk_size = 1;
  spec.num_streams = 2;
  spec.loop_begin = 0;
  spec.loop_end = 8;
  ArraySpec a{"in", MapType::To, host, sizeof(double), {tri(8), 4}, SplitSpec{}};
  a.split.window_fn = [](std::int64_t k) { return std::make_pair(tri(k), tri(k + 1)); };
  spec.arrays = {a};
  Pipeline p(g, spec);
  // The last two iterations (windows of 7 and 8 rows) must fit together.
  EXPECT_GE(p.ring_len_for_spec(a, 1, 2), 15);
}

TEST(WindowFn, OverlappingInputWindowsAreNotRecopied) {
  // fn-based input with a 2-row halo: each row crosses the bus once.
  gpu::Gpu g(gpu::nvidia_k40m());
  const std::int64_t n = 32, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m, 0.0);
  PipelineSpec spec;
  spec.chunk_size = 2;
  spec.num_streams = 2;
  spec.loop_begin = 1;
  spec.loop_end = n - 1;
  ArraySpec a_in{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()), sizeof(double),
                 {n, m}, SplitSpec{}};
  a_in.split.window_fn = [](std::int64_t k) { return std::make_pair(k - 1, k + 2); };
  ArraySpec a_out{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()),
                  sizeof(double), {n, m}, SplitSpec{0, Affine{1, 0}, 1}};
  spec.arrays = {a_in, a_out};
  Pipeline p(g, spec);
  p.run([m](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    const BufferView vout = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    k.body = [vout, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r)
        for (std::int64_t j = 0; j < m; ++j) vout.slab_ptr(r)[j] = 2.0;
    };
    return k;
  });
  EXPECT_EQ(p.stats().h2d_bytes, static_cast<Bytes>(n * m) * sizeof(double));
}

TEST(WindowFn, NonMonotoneFunctionIsRejected) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* host = g.host_alloc(1 * MiB);
  PipelineSpec spec;
  spec.loop_begin = 0;
  spec.loop_end = 8;
  ArraySpec a{"in", MapType::To, host, sizeof(double), {64, 4}, SplitSpec{}};
  a.split.window_fn = [](std::int64_t k) {
    return std::make_pair((7 - k), (7 - k) + 1);  // decreasing
  };
  spec.arrays = {a};
  EXPECT_THROW(Pipeline(g, spec), Error);
}

TEST(WindowFn, OutOfBoundsRangeIsRejected) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* host = g.host_alloc(1 * MiB);
  PipelineSpec spec;
  spec.loop_begin = 0;
  spec.loop_end = 8;
  ArraySpec a{"in", MapType::To, host, sizeof(double), {4, 4}, SplitSpec{}};
  a.split.window_fn = [](std::int64_t k) { return std::make_pair(k, k + 2); };  // hits 9
  spec.arrays = {a};
  EXPECT_THROW(Pipeline(g, spec), Error);
}

TEST(WindowFn, OverlappingOutputWindowsAreRejected) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* host = g.host_alloc(1 * MiB);
  PipelineSpec spec;
  spec.loop_begin = 0;
  spec.loop_end = 8;
  ArraySpec a{"out", MapType::From, host, sizeof(double), {64, 4}, SplitSpec{}};
  a.split.window_fn = [](std::int64_t k) { return std::make_pair(k, k + 3); };  // overlap
  spec.arrays = {a};
  EXPECT_THROW(Pipeline(g, spec), Error);
}

TEST(WindowFn, AdaptiveScheduleRejectsWindowFunctions) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* host = g.host_alloc(1 * MiB);
  PipelineSpec spec;
  spec.schedule = ScheduleKind::Adaptive;
  spec.loop_begin = 0;
  spec.loop_end = 8;
  ArraySpec a{"in", MapType::To, host, sizeof(double), {64, 4}, SplitSpec{}};
  a.split.window_fn = [](std::int64_t k) { return std::make_pair(k, k + 1); };
  spec.arrays = {a};
  EXPECT_THROW(Pipeline(g, spec), Error);
}

}  // namespace
}  // namespace gpupipe::core
