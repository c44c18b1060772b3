// Unit tests for the OpenACC-flavoured baseline layer.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "acc/acc.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::acc {
namespace {

gpu::DeviceProfile profile() { return gpu::nvidia_k40m(); }

TEST(AccDataRegion, CopyInCopyOutSemantics) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> in(64), out(64, 0.0);
  std::iota(in.begin(), in.end(), 0.0);
  {
    auto region = rt.data_region({
        {DataKind::CopyIn, reinterpret_cast<std::byte*>(in.data()), 64 * sizeof(double)},
        {DataKind::CopyOut, reinterpret_cast<std::byte*>(out.data()), 64 * sizeof(double)},
    });
    const double* din = region.device_ptr(in.data());
    double* dout = region.device_ptr(out.data());
    gpu::KernelDesc k;
    k.flops = 64;
    k.body = [din, dout] {
      for (int i = 0; i < 64; ++i) dout[i] = din[i] + 1.0;
    };
    rt.parallel_loop(std::move(k));
    // Not copied back until region exit.
    EXPECT_DOUBLE_EQ(out[0], 0.0);
  }
  for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(out[i], in[i] + 1.0);
}

TEST(AccDataRegion, DevicePtrHandlesInteriorPointers) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> data(100, 1.0);
  auto region = rt.data_region(
      {{DataKind::CopyIn, reinterpret_cast<std::byte*>(data.data()), 100 * sizeof(double)}});
  const double* base = region.device_ptr(data.data());
  const double* mid = region.device_ptr(data.data() + 50);
  EXPECT_EQ(mid, base + 50);
}

TEST(AccDataRegion, UnmappedPointerThrows) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> data(10, 1.0), other(10);
  auto region = rt.data_region(
      {{DataKind::CopyIn, reinterpret_cast<std::byte*>(data.data()), 10 * sizeof(double)}});
  EXPECT_THROW(region.device_ptr(other.data()), Error);
}

TEST(AccDataRegion, CreateAllocatesWithoutCopying) {
  gpu::Gpu g(profile());
  g.trace().set_enabled(true);  // a copy would show as an H2D span
  AccRuntime rt(g);
  std::vector<double> data(1024, 7.0);
  const SimTime before = g.host_now();
  auto region = rt.data_region(
      {{DataKind::Create, reinterpret_cast<std::byte*>(data.data()), 1024 * sizeof(double)}});
  (void)region;
  // No transfer happened: only API/clause overhead elapsed.
  EXPECT_LT(g.host_now() - before, msec(0.1));
  EXPECT_EQ(g.trace().time_by_kind().count(sim::SpanKind::H2D), 0u);
}

TEST(AccDataRegion, FailedClauseReleasesEarlierAllocations) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  const Bytes huge = g.device_mem_free();
  std::vector<double> small(16, 0.0);
  const Bytes before = g.device_mem_stats().current;
  EXPECT_THROW(
      rt.data_region({
          {DataKind::Create, reinterpret_cast<std::byte*>(small.data()), 16 * sizeof(double)},
          {DataKind::Create, reinterpret_cast<std::byte*>(small.data()), huge},
      }),
      gpu::OomError);
  EXPECT_EQ(g.device_mem_stats().current, before);  // nothing leaked
}

TEST(AccAsync, QueuesMapToDistinctStreams) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  gpu::Stream& q0 = rt.queue_stream(0);
  gpu::Stream& q7 = rt.queue_stream(7);
  EXPECT_NE(&q0, &q7);
  EXPECT_EQ(&q0, &rt.queue_stream(0));  // stable mapping
  EXPECT_EQ(rt.live_queues(), 2);
  EXPECT_EQ(g.live_streams(), 2);
}

TEST(AccAsync, UpdateAndKernelPipelineProducesCorrectData) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  constexpr int kN = 256;
  std::vector<double> in(kN), out(kN, 0.0);
  std::iota(in.begin(), in.end(), 0.0);
  double* dev_in = g.device_alloc<double>(kN);
  double* dev_out = g.device_alloc<double>(kN);

  // Two chunks on two queues.
  for (int chunk = 0; chunk < 2; ++chunk) {
    const int lo = chunk * kN / 2, hi = (chunk + 1) * kN / 2;
    rt.update_device_async(chunk, reinterpret_cast<std::byte*>(dev_in + lo),
                           reinterpret_cast<std::byte*>(in.data() + lo),
                           (hi - lo) * sizeof(double));
    gpu::KernelDesc k;
    k.flops = kN / 2;
    k.body = [dev_in, dev_out, lo, hi] {
      for (int i = lo; i < hi; ++i) dev_out[i] = 3.0 * dev_in[i];
    };
    rt.parallel_loop_async(chunk, std::move(k));
    rt.update_self_async(chunk, reinterpret_cast<std::byte*>(out.data() + lo),
                         reinterpret_cast<std::byte*>(dev_out + lo),
                         (hi - lo) * sizeof(double));
  }
  rt.wait();
  for (int i = 0; i < kN; ++i) ASSERT_DOUBLE_EQ(out[i], 3.0 * in[i]);
}

TEST(AccAsync, WaitOnSingleQueueDrainsOnlyIt) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> host(1 << 20, 1.0);
  double* dev = g.device_alloc<double>(1 << 20);
  rt.update_device_async(0, reinterpret_cast<std::byte*>(dev),
                         reinterpret_cast<std::byte*>(host.data()), (1 << 20) * sizeof(double));
  gpu::KernelDesc slow;
  slow.fixed_duration = 1.0;
  rt.parallel_loop_async(1, std::move(slow));
  rt.wait(0);
  EXPECT_LT(g.host_now(), 0.5);  // did not wait for the slow queue-1 kernel
  rt.wait();
  EXPECT_GE(g.host_now(), 1.0);
}

TEST(AccOverhead, AsyncOpCostScalesWithLiveQueues) {
  AccConfig cfg;
  cfg.queue_mgmt_overhead = usec(100.0);
  cfg.update_section_overhead = 0.0;

  auto host_cost_with_queues = [&](int queues) {
    gpu::Gpu g(profile());
    AccRuntime rt(g, cfg);
    for (int q = 0; q < queues; ++q) rt.queue_stream(q);
    std::vector<double> host(16, 0.0);
    double* dev = g.device_alloc<double>(16);
    const SimTime t0 = g.host_now();
    rt.update_device_async(0, reinterpret_cast<std::byte*>(dev),
                           reinterpret_cast<std::byte*>(host.data()), 16 * sizeof(double));
    return g.host_now() - t0;
  };
  const SimTime c2 = host_cost_with_queues(2);
  const SimTime c8 = host_cost_with_queues(8);
  EXPECT_NEAR(c8 - c2, 6 * usec(100.0), 1e-9);
}

TEST(AccRuntimeLifecycle, DestructorReleasesQueues) {
  gpu::Gpu g(profile());
  {
    AccRuntime rt(g);
    rt.queue_stream(0);
    rt.queue_stream(1);
    EXPECT_EQ(g.live_streams(), 2);
  }
  EXPECT_EQ(g.live_streams(), 0);
}

TEST(AccMapData, TranslatesHostPointersToTheMappedDevice) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> host(128, 0.0);
  std::byte* dev = g.device_malloc(128 * sizeof(double));
  rt.map_data(reinterpret_cast<std::byte*>(host.data()), dev, 128 * sizeof(double));
  EXPECT_EQ(rt.mapped_device_ptr(reinterpret_cast<std::byte*>(host.data())), dev);
  EXPECT_EQ(rt.mapped_device_ptr(reinterpret_cast<std::byte*>(host.data() + 10)),
            dev + 10 * sizeof(double));
  rt.unmap_data(reinterpret_cast<std::byte*>(host.data()));
  EXPECT_THROW(rt.mapped_device_ptr(reinterpret_cast<std::byte*>(host.data())), Error);
}

TEST(AccMapData, MappedUpdatesMoveTheRightBytes) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> host(64);
  std::iota(host.begin(), host.end(), 0.0);
  double* dev = g.device_alloc<double>(64);
  rt.map_data(reinterpret_cast<std::byte*>(host.data()),
              reinterpret_cast<std::byte*>(dev), 64 * sizeof(double));
  rt.mapped_update_device_async(0, reinterpret_cast<std::byte*>(host.data() + 8),
                                16 * sizeof(double));
  rt.wait();
  for (int i = 8; i < 24; ++i) EXPECT_DOUBLE_EQ(dev[i], host[static_cast<std::size_t>(i)]);
  // Round trip back into a different part of the host array.
  std::fill(host.begin(), host.end(), -1.0);
  rt.mapped_update_self_async(0, reinterpret_cast<std::byte*>(host.data() + 8),
                              16 * sizeof(double));
  rt.wait();
  for (int i = 8; i < 24; ++i) EXPECT_DOUBLE_EQ(host[static_cast<std::size_t>(i)],
                                                static_cast<double>(i));
}

TEST(AccMapData, OverlappingMappingsAreRejected) {
  // The exact restriction that makes acc_map_data unusable for ring
  // buffers (SSIV): one host range cannot map to two device locations.
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> host(128, 0.0);
  std::byte* d1 = g.device_malloc(1024);
  std::byte* d2 = g.device_malloc(1024);
  std::byte* base = reinterpret_cast<std::byte*>(host.data());
  rt.map_data(base, d1, 512);
  EXPECT_THROW(rt.map_data(base, d2, 512), Error);        // same base
  EXPECT_THROW(rt.map_data(base + 256, d2, 512), Error);  // overlapping tail
  EXPECT_NO_THROW(rt.map_data(base + 512, d2, 512));      // adjacent is fine
}

TEST(AccMapData, MappedUpdatesCostMoreHostTimeThanRawCopies) {
  gpu::Gpu g(profile());
  AccRuntime rt(g);
  std::vector<double> host(64, 0.0);
  double* dev = g.device_alloc<double>(64);
  rt.map_data(reinterpret_cast<std::byte*>(host.data()),
              reinterpret_cast<std::byte*>(dev), 64 * sizeof(double));
  rt.queue_stream(0);  // materialise the queue outside the timed window
  const SimTime t0 = g.host_now();
  rt.update_device_async(0, reinterpret_cast<std::byte*>(dev),
                         reinterpret_cast<std::byte*>(host.data()), 64 * sizeof(double));
  const SimTime raw = g.host_now() - t0;
  const SimTime t1 = g.host_now();
  rt.mapped_update_device_async(0, reinterpret_cast<std::byte*>(host.data()),
                                64 * sizeof(double));
  const SimTime mapped = g.host_now() - t1;
  EXPECT_NEAR(mapped - raw, rt.config().mapped_update_overhead, 1e-12);
  rt.wait();
}

}  // namespace
}  // namespace gpupipe::acc

