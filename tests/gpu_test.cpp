// Unit tests for the simulated GPU runtime: streams, events, transfer
// timing, kernel cost model, functional copies, and accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "gpu/device_profile.hpp"
#include "gpu/gpu.hpp"

namespace gpupipe::gpu {
namespace {

DeviceProfile simple_profile() {
  // Hand-rolled profile with round numbers so durations are predictable.
  DeviceProfile p;
  p.name = "test";
  p.total_memory = 1 * GiB;
  p.reserved_memory = 0;
  p.peak_flops = 1e12;
  p.mem_bandwidth = 1e11;
  p.pcie_bandwidth = 1e10;
  p.pcie_half_saturation = 0;  // flat curve: exact timing expected
  p.pcie_row_half_saturation = 0;
  p.pageable_penalty = 0.5;
  p.copy_setup_latency = 0.0;
  p.copy_segment_latency = 0.0;
  p.kernel_launch_latency = 0.0;
  p.api_call_host_overhead = 0.0;
  p.sched_overhead_per_stream = 0.0;
  p.h2d_engines = 1;
  p.d2h_engines = 1;
  p.unified_copy_engine = false;
  p.max_concurrent_kernels = 1;
  return p;
}

TEST(Gpu, SynchronousCopyRoundTripsData) {
  Gpu g(simple_profile());
  std::vector<double> src(100, 3.5), dst(100, 0.0);
  std::byte* dev = g.device_malloc(100 * sizeof(double));
  g.memcpy_h2d(dev, reinterpret_cast<std::byte*>(src.data()), 100 * sizeof(double));
  g.memcpy_d2h(reinterpret_cast<std::byte*>(dst.data()), dev, 100 * sizeof(double));
  EXPECT_EQ(src, dst);
}

TEST(Gpu, TransferDurationMatchesBandwidth) {
  Gpu g(simple_profile());
  std::byte* host = g.host_alloc(10'000'000, /*pinned=*/true);
  std::byte* dev = g.device_malloc(10'000'000);
  auto task = g.memcpy_h2d_async(dev, host, 10'000'000, g.default_stream());
  g.synchronize();
  // 10 MB at 10 GB/s = 1 ms.
  EXPECT_NEAR(task->duration(), 1e-3, 1e-12);
}

TEST(Gpu, PageableHostMemoryIsSlower) {
  Gpu g(simple_profile());
  std::byte* pinned = g.host_alloc(1'000'000, true);
  std::byte* pageable = g.host_alloc(1'000'000, false);
  EXPECT_TRUE(g.is_pinned(pinned));
  EXPECT_FALSE(g.is_pinned(pageable));
  std::byte* dev = g.device_malloc(1'000'000);
  auto t1 = g.memcpy_h2d_async(dev, pinned, 1'000'000, g.default_stream());
  auto t2 = g.memcpy_h2d_async(dev, pageable, 1'000'000, g.default_stream());
  g.synchronize();
  EXPECT_NEAR(t2->duration(), 2.0 * t1->duration(), 1e-12);  // penalty 0.5
}

TEST(Gpu, BandwidthSaturationCurvePenalisesSmallTransfers) {
  auto p = simple_profile();
  p.pcie_half_saturation = 1 * MiB;
  EXPECT_NEAR(p.transfer_bandwidth(1 * MiB, 1 * MiB, true), 0.5e10, 1e3);
  EXPECT_GT(p.transfer_bandwidth(100 * MiB, 100 * MiB, true), 0.99e10);
  // 2-D: narrow rows cut bandwidth further.
  p.pcie_row_half_saturation = 2 * KiB;
  EXPECT_NEAR(p.transfer_bandwidth(100 * MiB, 2 * KiB, true), 0.495e10, 1e7);
}

TEST(Gpu, KernelDurationFollowsRoofline) {
  Gpu g(simple_profile());
  KernelDesc compute_bound;
  compute_bound.flops = 1e9;  // 1 ms at 1 TFLOP/s
  compute_bound.bytes = 1000;
  auto t1 = g.launch(g.default_stream(), std::move(compute_bound));
  KernelDesc memory_bound;
  memory_bound.flops = 1000;
  memory_bound.bytes = 200'000'000;  // 2 ms at 100 GB/s
  auto t2 = g.launch(g.default_stream(), std::move(memory_bound));
  g.synchronize();
  EXPECT_NEAR(t1->duration(), 1e-3, 1e-12);
  EXPECT_NEAR(t2->duration(), 2e-3, 1e-12);
}

TEST(Gpu, FixedDurationOverridesRoofline) {
  Gpu g(simple_profile());
  KernelDesc k;
  k.flops = 1e12;
  k.fixed_duration = 5e-6;
  auto t = g.launch(g.default_stream(), std::move(k));
  g.synchronize();
  EXPECT_NEAR(t->duration(), 5e-6, 1e-15);
}

TEST(Gpu, StreamsSerialiseAndOverlapAcrossEngines) {
  Gpu g(simple_profile());
  std::byte* host = g.host_alloc(10'000'000);
  std::byte* dev = g.device_malloc(10'000'000);
  Stream& s = g.create_stream();
  // copy (1 ms on h2d engine) then kernel (1 ms on compute): same stream =>
  // serial => 2 ms.
  g.memcpy_h2d_async(dev, host, 10'000'000, s);
  KernelDesc k;
  k.flops = 1e9;
  auto kt = g.launch(s, std::move(k));
  g.synchronize();
  EXPECT_NEAR(kt->end_time(), 2e-3, 1e-9);

  // On different streams, copy and kernel overlap: both end at ~1 ms after
  // the current time.
  const SimTime base = g.host_now();
  Stream& s2 = g.create_stream();
  auto ct = g.memcpy_h2d_async(dev, host, 10'000'000, s2);
  KernelDesc k2;
  k2.flops = 1e9;
  auto kt2 = g.launch(g.create_stream(), std::move(k2));
  g.synchronize();
  EXPECT_NEAR(ct->end_time() - base, 1e-3, 1e-9);
  EXPECT_NEAR(kt2->end_time() - base, 1e-3, 1e-9);
}

TEST(Gpu, UnifiedCopyEngineSerialisesBothDirections) {
  auto p = simple_profile();
  p.unified_copy_engine = true;
  Gpu g(p);
  std::byte* host = g.host_alloc(10'000'000);
  std::byte* dev = g.device_malloc(10'000'000);
  Stream& s1 = g.create_stream();
  Stream& s2 = g.create_stream();
  g.memcpy_h2d_async(dev, host, 10'000'000, s1);
  auto t2 = g.memcpy_d2h_async(host, dev, 10'000'000, s2);
  g.synchronize();
  EXPECT_NEAR(t2->end_time(), 2e-3, 1e-9);  // serialised despite 2 streams
}

TEST(Gpu, EventsOrderWorkAcrossStreams) {
  Gpu g(simple_profile());
  std::byte* host = g.host_alloc(10'000'000);
  std::byte* dev = g.device_malloc(10'000'000);
  Stream& producer = g.create_stream();
  Stream& consumer = g.create_stream();
  g.memcpy_h2d_async(dev, host, 10'000'000, producer);  // 1 ms
  EventPtr ev = g.record_event(producer);
  g.wait_event(consumer, ev);
  KernelDesc k;
  k.flops = 1e9;  // 1 ms
  auto kt = g.launch(consumer, std::move(k));
  g.synchronize();
  EXPECT_NEAR(kt->start_time(), 1e-3, 1e-9);  // waited for the copy
  EXPECT_TRUE(ev->complete());
  EXPECT_NEAR(ev->timestamp(), 1e-3, 1e-9);
}

TEST(Gpu, QueryDoesNotAdvanceTime) {
  Gpu g(simple_profile());
  std::byte* host = g.host_alloc(1'000'000);
  std::byte* dev = g.device_malloc(1'000'000);
  g.memcpy_h2d_async(dev, host, 1'000'000, g.default_stream());
  EventPtr ev = g.record_event(g.default_stream());
  EXPECT_FALSE(g.query(ev));
  g.synchronize(ev);
  EXPECT_TRUE(g.query(ev));
}

TEST(Gpu, Pitched2dCopyMovesTheRightBytes) {
  Gpu g(simple_profile());
  // A 4x8 host matrix into a pitched device buffer and back.
  std::vector<std::byte> src(32), dst(32, std::byte{0});
  for (int i = 0; i < 32; ++i) src[static_cast<std::size_t>(i)] = static_cast<std::byte>(i);
  Pitched dev = g.device_malloc_pitched(8, 4);
  EXPECT_GE(dev.pitch, 8u);
  g.memcpy2d_h2d_async(dev.ptr, dev.pitch, src.data(), 8, 8, 4, g.default_stream());
  g.memcpy2d_d2h_async(dst.data(), 8, dev.ptr, dev.pitch, 8, 4, g.default_stream());
  g.synchronize();
  EXPECT_EQ(src, dst);
}

TEST(Gpu, CopyBeyondDeviceAllocationThrows) {
  Gpu g(simple_profile());
  std::byte* host = g.host_alloc(2048);
  std::byte* dev = g.device_malloc(1024);
  EXPECT_THROW(g.memcpy_h2d_async(dev, host, 2048, g.default_stream()), Error);
  EXPECT_THROW(g.memcpy_d2h_async(host, dev + 512, 1024, g.default_stream()), Error);
}

TEST(Gpu, BoundsCheckingWorksInModeledModeToo) {
  Gpu g(simple_profile(), ExecMode::Modeled);
  std::byte* host = g.host_alloc(2048);
  std::byte* dev = g.device_malloc(1024);
  EXPECT_THROW(g.memcpy_h2d_async(dev, host, 2048, g.default_stream()), Error);
}

TEST(Gpu, DeviceToDeviceCopyWorks) {
  Gpu g(simple_profile());
  std::vector<std::byte> data(256, std::byte{9}), out(256, std::byte{0});
  std::byte* d1 = g.device_malloc(256);
  std::byte* d2 = g.device_malloc(256);
  g.memcpy_h2d(d1, data.data(), 256);
  g.memcpy_d2d_async(d2, d1, 256, g.default_stream());
  g.synchronize();
  g.memcpy_d2h(out.data(), d2, 256);
  EXPECT_EQ(data, out);
}

TEST(Gpu, HostClockAdvancesWithApiOverheadAndWaits) {
  auto p = simple_profile();
  p.api_call_host_overhead = usec(10.0);
  Gpu g(p);
  const SimTime t0 = g.host_now();
  std::byte* dev = g.device_malloc(1024);  // one API call
  EXPECT_NEAR(g.host_now() - t0, usec(10.0), 1e-12);
  g.host_compute(msec(1.0));
  EXPECT_NEAR(g.host_now() - t0, usec(10.0) + msec(1.0), 1e-12);
  (void)dev;
}

TEST(Gpu, PerStreamSchedulingOverheadExtendsOps) {
  auto p = simple_profile();
  p.sched_overhead_per_stream = usec(5.0);
  Gpu g(p);
  std::byte* host = g.host_alloc(1'000'000);
  std::byte* dev = g.device_malloc(1'000'000);
  Stream& s1 = g.create_stream();
  auto t1 = g.memcpy_h2d_async(dev, host, 1'000'000, s1);
  g.create_stream();
  g.create_stream();  // 3 live streams now
  auto t3 = g.memcpy_h2d_async(dev, host, 1'000'000, s1);
  g.synchronize();
  EXPECT_NEAR(t3->duration() - t1->duration(), usec(10.0), 1e-12);
}

TEST(Gpu, ReportedMemoryIncludesContextAndStreams) {
  auto p = simple_profile();
  p.context_memory = 64 * MiB;
  p.per_stream_memory = 8 * MiB;
  Gpu g(p);
  g.device_malloc(1 * MiB);
  g.create_stream();
  g.create_stream();
  EXPECT_EQ(g.reported_peak_memory(), 1 * MiB + 64 * MiB + 2 * 8 * MiB);
}

TEST(Gpu, DestroyStreamReducesLiveCount) {
  Gpu g(simple_profile());
  Stream& s = g.create_stream();
  EXPECT_EQ(g.live_streams(), 1);
  g.destroy_stream(s);
  EXPECT_EQ(g.live_streams(), 0);
  EXPECT_THROW(g.destroy_stream(g.default_stream()), Error);
}

TEST(Gpu, ModeledModeSkipsKernelBodies) {
  Gpu g(simple_profile(), ExecMode::Modeled);
  bool ran = false;
  KernelDesc k;
  k.flops = 1e6;
  k.body = [&] { ran = true; };
  g.launch(g.default_stream(), std::move(k));
  g.synchronize();
  EXPECT_FALSE(ran);
}

TEST(Gpu, TraceRecordsAllOperationKinds) {
  Gpu g(simple_profile());
  g.trace().set_enabled(true);
  std::byte* host = g.host_alloc(4096);
  std::byte* dev = g.device_malloc(4096);
  g.memcpy_h2d(dev, host, 4096);
  KernelDesc k;
  k.flops = 100;
  g.launch(g.default_stream(), std::move(k));
  g.memcpy_d2h(host, dev, 4096);
  g.synchronize();
  auto by_kind = g.trace().time_by_kind();
  EXPECT_TRUE(by_kind.count(sim::SpanKind::H2D));
  EXPECT_TRUE(by_kind.count(sim::SpanKind::D2H));
  EXPECT_TRUE(by_kind.count(sim::SpanKind::Kernel));
}

TEST(Gpu, HazardMessageFormatsBothLabels) {
  // An un-evented race: a kernel on one stream reads what an H2D copy on
  // another is still writing. Records keep label parts; the message formats
  // them exactly as eagerly built labels read.
  Gpu g(nvidia_k40m());
  std::byte* host = g.host_alloc(4096);
  std::byte* dev = g.device_malloc(4096);
  Stream& up = g.create_stream();
  Stream& work = g.create_stream();
  g.memcpy_h2d_async(dev, host, 4096, up);
  KernelDesc k;
  k.name = "consume";
  k.flops = 1;
  k.effects.reads.push_back({dev, 4096});
  g.launch(work, std::move(k));
  try {
    g.synchronize();
    FAIL() << "the race was not detected";
  } catch (const HazardError& e) {
    EXPECT_STREQ(e.what(),
                 "read-after-write hazard: 'consume' starting at 2.4e-05s touches memory "
                 "still in use by 'h2d[4096B]' (completes at 7.33733e-05s)");
  }
}

TEST(Gpu, ShippedProfilesAreSane) {
  for (const auto& p : {nvidia_k40m(), amd_hd7970()}) {
    EXPECT_GT(p.usable_memory(), 0u);
    EXPECT_GT(p.peak_flops, 0.0);
    EXPECT_GT(p.pcie_bandwidth, 0.0);
    EXPECT_GT(p.mem_bandwidth, p.pcie_bandwidth);
    Gpu g(p);  // constructible
    EXPECT_GT(g.device_mem_free(), 0u);
  }
  // The AMD card is the memory-constrained one.
  EXPECT_LT(amd_hd7970().total_memory, nvidia_k40m().total_memory);
}

}  // namespace
}  // namespace gpupipe::gpu
