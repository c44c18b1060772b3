// Tests for multi-device co-scheduling (MultiPipeline) and the shared
// simulation context.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/layout.hpp"
#include "core/multi.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

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

KernelFactory doubler(std::int64_t m, double kernel_weight = 64.0) {
  return [m, kernel_weight](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.name = "double";
    k.flops = static_cast<double>(ctx.iterations() * m);
    k.bytes = static_cast<Bytes>(static_cast<double>(ctx.iterations() * m) * sizeof(double) *
                                 kernel_weight);
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

TEST(SharedContext, DevicesShareOneClock) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  g0.host_compute(1.0);
  EXPECT_DOUBLE_EQ(g1.host_now(), g0.host_now());

  // Work on g0 advances the clock g1 observes after its own sync.
  gpu::KernelDesc k;
  k.fixed_duration = 2.0;
  g0.launch(g0.default_stream(), std::move(k));
  g1.synchronize();  // drains the shared event queue
  EXPECT_GE(g1.host_now(), 3.0);
}

TEST(SharedContext, EachDeviceHasItsOwnMemorySpace) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  std::byte* p0 = g0.device_malloc(1024);
  std::byte* p1 = g1.device_malloc(1024);
  EXPECT_NE(p0, p1);
  EXPECT_EQ(g0.device_mem_stats().current, 1024u);
  EXPECT_EQ(g1.device_mem_stats().current, 1024u);
}

// MultiPipeline splits the loop across devices with layout::partition_weighted.
TEST(Partition, SplitsProportionallyInChunkGranules) {
  const auto parts = layout::partition_weighted(100, {1.0, 1.0}, 4);
  EXPECT_EQ(parts, (std::vector<std::int64_t>{48, 52}));
  const auto uneven = layout::partition_weighted(90, {2.0, 1.0}, 1);
  EXPECT_EQ(uneven, (std::vector<std::int64_t>{60, 30}));
  const auto one = layout::partition_weighted(7, {5.0}, 2);
  EXPECT_EQ(one, (std::vector<std::int64_t>{7}));
}

TEST(Partition, TinyLoopsGoEntirelyToOneDevice) {
  const auto parts = layout::partition_weighted(3, {1.0, 1.0, 1.0}, 4);
  EXPECT_EQ(std::accumulate(parts.begin(), parts.end(), std::int64_t{0}), 3);
}

TEST(MultiPipeline, TwoDevicesComputeTheSameResultAsOne) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  const std::int64_t n = 64, m = 16;
  std::vector<double> in(n * m), out(n * m, -1.0);
  std::iota(in.begin(), in.end(), 0.0);

  MultiPipeline mp({{&g0, 0.0}, {&g1, 0.0}}, rows_spec(in, out, n, m, 4, 2));
  EXPECT_EQ(mp.device_count(), 2);
  mp.run(doubler(m));
  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 2.0 * in[i]) << i;
}

TEST(MultiPipeline, SlicesAreContiguousAndCoverTheLoop) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  std::vector<double> dummy_in(1), dummy_out(1);
  auto spec = rows_spec(dummy_in, dummy_out, 100, 1, 4, 2);
  // Host pointers are fake in Modeled mode; reuse real ones.
  MultiPipeline mp({{&g0, 1.0}, {&g1, 1.0}}, spec);
  const auto s0 = mp.slice(0);
  const auto s1 = mp.slice(1);
  EXPECT_EQ(s0.first, 0);
  EXPECT_EQ(s0.second, s1.first);
  EXPECT_EQ(s1.second, 100);
}

TEST(MultiPipeline, TwoEqualDevicesNearlyHalveKernelBoundTime) {
  const std::int64_t n = 256, m = 1024;
  auto run_with_devices = [&](int ndev) {
    auto ctx = gpu::make_shared_context();
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::vector<DeviceShare> shares;
    for (int i = 0; i < ndev; ++i) {
      gpus.push_back(
          std::make_unique<gpu::Gpu>(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx));
      gpus.back()->hazards().set_enabled(false);
      shares.push_back({gpus.back().get(), 1.0});
    }
    std::vector<double> in(1), out(1);
    auto spec = rows_spec(in, out, n, m, 8, 2);
    spec.arrays[0].host = gpus[0]->host_alloc(n * m * sizeof(double));
    spec.arrays[1].host = gpus[0]->host_alloc(n * m * sizeof(double));
    MultiPipeline mp(shares, spec);
    const SimTime t0 = gpus[0]->host_now();
    mp.run(doubler(m, 512.0));  // strongly kernel-bound
    return gpus[0]->host_now() - t0;
  };
  const SimTime t1 = run_with_devices(1);
  const SimTime t2 = run_with_devices(2);
  EXPECT_LT(t2, 0.62 * t1);
}

TEST(MultiPipeline, HeterogeneousDevicesGetProportionalSlices) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu fast(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);   // 1.43 TF
  gpu::Gpu slow(gpu::amd_hd7970(), gpu::ExecMode::Modeled, ctx);    // 0.95 TF
  std::vector<double> in(1), out(1);
  auto spec = rows_spec(in, out, 120, 64, 4, 2);
  spec.arrays[0].host = fast.host_alloc(120 * 64 * sizeof(double));
  spec.arrays[1].host = fast.host_alloc(120 * 64 * sizeof(double));
  MultiPipeline mp({{&fast, 0.0}, {&slow, 0.0}}, spec);
  const auto s_fast = mp.slice(0);
  const auto s_slow = mp.slice(1);
  EXPECT_GT(s_fast.second - s_fast.first, s_slow.second - s_slow.first);
}

TEST(MultiPipeline, RejectsMismatchedContexts) {
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);  // different context
  std::vector<double> in(64), out(64);
  EXPECT_THROW(MultiPipeline({{&g0, 1.0}, {&g1, 1.0}}, rows_spec(in, out, 8, 8, 1, 1)),
               Error);
}

TEST(MultiPipeline, RejectsAdaptiveSchedule) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  std::vector<double> in(64), out(64);
  auto spec = rows_spec(in, out, 8, 8, 1, 1);
  spec.schedule = ScheduleKind::Adaptive;
  EXPECT_THROW(MultiPipeline({{&g0, 1.0}}, spec), Error);
}

TEST(MultiPipeline, SingleDeviceDegeneratesToPipeline) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  const std::int64_t n = 16, m = 4;
  std::vector<double> in(n * m, 1.0), out(n * m);
  MultiPipeline mp({{&g0, 1.0}}, rows_spec(in, out, n, m, 2, 2));
  mp.run(doubler(m));
  for (std::int64_t i = 0; i < n * m; ++i) ASSERT_DOUBLE_EQ(out[i], 2.0);
}

TEST(MultiPipeline, HaloWindowsStraddleBoundariesCorrectly) {
  // A window-3 stencil over two devices: the halo rows at the slice
  // boundary must reach both devices for correct results.
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx);
  const std::int64_t n = 40, m = 8;
  std::vector<double> in(n * m), out(n * m, 0.0);
  std::iota(in.begin(), in.end(), 0.0);

  PipelineSpec spec;
  spec.chunk_size = 2;
  spec.num_streams = 2;
  spec.loop_begin = 1;
  spec.loop_end = n - 1;
  spec.arrays = {
      ArraySpec{"in", MapType::To, reinterpret_cast<std::byte*>(in.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"out", MapType::From, reinterpret_cast<std::byte*>(out.data()), sizeof(double),
                {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  MultiPipeline mp({{&g0, 1.0}, {&g1, 1.0}}, spec);
  mp.run([m](const ChunkContext& ctx2) {
    gpu::KernelDesc k;
    const BufferView in_v = ctx2.view("in");
    const BufferView out_v = ctx2.view("out");
    const std::int64_t lo = ctx2.begin(), hi = ctx2.end();
    k.body = [in_v, out_v, lo, hi, m] {
      for (std::int64_t r = lo; r < hi; ++r)
        for (std::int64_t j = 0; j < m; ++j)
          out_v.slab_ptr(r)[j] =
              in_v.slab_ptr(r - 1)[j] + in_v.slab_ptr(r)[j] + in_v.slab_ptr(r + 1)[j];
    };
    return k;
  });
  for (std::int64_t r = 1; r < n - 1; ++r)
    for (std::int64_t j = 0; j < m; ++j)
      ASSERT_DOUBLE_EQ(out[r * m + j],
                       in[(r - 1) * m + j] + in[r * m + j] + in[(r + 1) * m + j])
          << r;
}

}  // namespace
}  // namespace gpupipe::core
