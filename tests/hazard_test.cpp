// Unit and failure-injection tests for the hazard tracker.
#include <gtest/gtest.h>

#include <random>

#include "gpu/device_profile.hpp"
#include "gpu/gpu.hpp"
#include "gpu/hazard.hpp"

namespace gpupipe::gpu {
namespace {

std::byte* at(std::uintptr_t addr) { return reinterpret_cast<std::byte*>(addr); }

TEST(RangesOverlap, ContiguousRanges) {
  EXPECT_TRUE(ranges_overlap({at(100), 50}, {at(120), 10}));
  EXPECT_TRUE(ranges_overlap({at(100), 50}, {at(149), 10}));
  EXPECT_FALSE(ranges_overlap({at(100), 50}, {at(150), 10}));
  EXPECT_FALSE(ranges_overlap({at(100), 50}, {at(50), 50}));
  EXPECT_FALSE(ranges_overlap({at(100), 0}, {at(100), 10}));
}

TEST(RangesOverlap, StridedVsContiguous) {
  // Strided: 4 rows of 8 bytes, stride 32: [100,108) [132,140) [164,172) [196,204)
  const MemRange strided{at(100), 8, 32, 4};
  EXPECT_TRUE(ranges_overlap(strided, {at(104), 2}));
  EXPECT_FALSE(ranges_overlap(strided, {at(108), 24}));  // exactly the gap
  EXPECT_TRUE(ranges_overlap(strided, {at(108), 25}));   // touches row 1
  EXPECT_TRUE(ranges_overlap(strided, {at(196), 1}));
  EXPECT_FALSE(ranges_overlap(strided, {at(204), 100}));  // after last row
  EXPECT_FALSE(ranges_overlap(strided, {at(0), 100}));
  EXPECT_TRUE(ranges_overlap({at(0), 150}, strided));  // symmetric
}

TEST(RangesOverlap, StridedVsStrided) {
  const MemRange a{at(100), 8, 32, 4};
  // Same geometry, offset by 16: rows at 116,148,... never touch a's rows.
  EXPECT_FALSE(ranges_overlap(a, MemRange{at(116), 8, 32, 4}));
  // Offset by 4: rows at 104..112 overlap a's rows.
  EXPECT_TRUE(ranges_overlap(a, MemRange{at(104), 8, 32, 4}));
  // Different stride eventually collides: rows at 116, 140, 164...
  EXPECT_TRUE(ranges_overlap(a, MemRange{at(116), 8, 24, 4}));
}

/// Row-by-row reference: some segment of `a` intersects some segment of `b`.
bool overlap_by_rows(const MemRange& a, const MemRange& b) {
  if (a.size == 0 || b.size == 0) return false;
  for (Bytes i = 0; i < a.rows; ++i)
    for (Bytes j = 0; j < b.rows; ++j) {
      const std::byte* alo = a.ptr + i * a.stride;
      const std::byte* blo = b.ptr + j * b.stride;
      if (alo < blo + b.size && blo < alo + a.size) return true;
    }
  return false;
}

TEST(RangesOverlap, StridedPairsMatchTheRowByRowReference) {
  // Equal strides take a closed form; unequal ones walk rows. Both must
  // agree with comparing every pair of segments: offsets on either side,
  // sizes up to and beyond the stride, 1-64 rows.
  std::mt19937_64 rng(1234);
  auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  int equal = 0, overlapping = 0;
  for (int i = 0; i < 20000; ++i) {
    const Bytes stride = pick(1, 48);
    const MemRange a{at(1 << 20), pick(1, 2 * stride + 2), stride, pick(1, 64)};
    const bool same = pick(0, 3) != 0;
    const Bytes b_stride = same ? stride : pick(1, 48);
    const std::uint64_t reach = a.span() + 64;
    const MemRange b{at((1 << 20) + pick(0, 2 * reach) - reach), pick(1, 2 * b_stride + 2),
                     b_stride, pick(1, 64)};
    const bool expected = overlap_by_rows(a, b);
    ASSERT_EQ(ranges_overlap(a, b), expected)
        << "a: size " << a.size << " stride " << a.stride << " rows " << a.rows
        << "; b: +" << (b.ptr - a.ptr) << " size " << b.size << " stride " << b.stride
        << " rows " << b.rows;
    ASSERT_EQ(ranges_overlap(b, a), expected);
    equal += a.stride == b.stride;
    overlapping += expected;
  }
  EXPECT_GT(equal, 10000);
  EXPECT_GT(overlapping, 2000);
  EXPECT_LT(overlapping, 18000);
}

TEST(HazardTracker, DetectsReadAfterWrite) {
  HazardTracker t;
  MemEffects write;
  write.writes.push_back({at(100), 50});
  t.begin_op(write, 0.0, 1.0, "writer");
  MemEffects read;
  read.reads.push_back({at(120), 10});
  // Read starts before the write completes.
  EXPECT_THROW(t.begin_op(read, 0.5, 0.6, "reader"), HazardError);
}

TEST(HazardTracker, AcceptsOrderedReadAfterWrite) {
  HazardTracker t;
  MemEffects write;
  write.writes.push_back({at(100), 50});
  t.begin_op(write, 0.0, 1.0, "writer");
  MemEffects read;
  read.reads.push_back({at(120), 10});
  EXPECT_NO_THROW(t.begin_op(read, 1.0, 1.5, "reader"));  // starts at completion
}

TEST(HazardTracker, DetectsWriteAfterRead) {
  HazardTracker t;
  MemEffects read;
  read.reads.push_back({at(100), 50});
  t.begin_op(read, 0.0, 1.0, "reader");
  MemEffects write;
  write.writes.push_back({at(100), 10});
  EXPECT_THROW(t.begin_op(write, 0.5, 0.7, "writer"), HazardError);
}

TEST(HazardTracker, DetectsWriteAfterWrite) {
  HazardTracker t;
  MemEffects w1;
  w1.writes.push_back({at(100), 50});
  t.begin_op(w1, 0.0, 1.0, "w1");
  MemEffects w2;
  w2.writes.push_back({at(100), 50});
  EXPECT_THROW(t.begin_op(w2, 0.5, 1.5, "w2"), HazardError);
}

TEST(HazardTracker, ConcurrentReadsAreFine) {
  HazardTracker t;
  MemEffects r1, r2;
  r1.reads.push_back({at(100), 50});
  r2.reads.push_back({at(100), 50});
  t.begin_op(r1, 0.0, 1.0, "r1");
  EXPECT_NO_THROW(t.begin_op(r2, 0.5, 1.5, "r2"));
}

TEST(HazardTracker, DisjointRangesAreFine) {
  HazardTracker t;
  MemEffects w1, w2;
  w1.writes.push_back({at(100), 50});
  w2.writes.push_back({at(150), 50});
  t.begin_op(w1, 0.0, 1.0, "w1");
  EXPECT_NO_THROW(t.begin_op(w2, 0.0, 1.0, "w2"));
}

TEST(HazardTracker, PruneDropsCompletedRecords) {
  HazardTracker t;
  MemEffects w;
  w.writes.push_back({at(100), 50});
  t.begin_op(w, 0.0, 1.0, "w");
  EXPECT_EQ(t.live_records(), 1u);
  t.prune(2.0);
  EXPECT_EQ(t.live_records(), 0u);
}

TEST(HazardTracker, DisabledTrackerIgnoresEverything) {
  if (HazardTracker::force_enabled())
    GTEST_SKIP() << "GPUPIPE_FORCE_HAZARDS overrides set_enabled(false)";
  HazardTracker t;
  t.set_enabled(false);
  MemEffects w1, w2;
  w1.writes.push_back({at(100), 50});
  w2.writes.push_back({at(100), 50});
  t.begin_op(w1, 0.0, 1.0, "w1");
  EXPECT_NO_THROW(t.begin_op(w2, 0.5, 1.5, "w2"));
  EXPECT_EQ(t.live_records(), 0u);
}

// --- Failure injection on the full runtime ---

DeviceProfile profile() {
  auto p = nvidia_k40m();
  return p;
}

TEST(HazardIntegration, MissingEventDependencyIsCaught) {
  // A kernel reading a device buffer while its H2D copy is still in flight
  // on another stream (the classic forgotten cudaStreamWaitEvent) must trip
  // the tracker the moment the kernel starts.
  Gpu g(profile());
  std::byte* host = g.host_alloc(8 * MiB);
  std::byte* dev = g.device_malloc(8 * MiB);
  Stream& copy_stream = g.create_stream();
  Stream& kernel_stream = g.create_stream();

  g.memcpy_h2d_async(dev, host, 8 * MiB, copy_stream);
  KernelDesc k;
  k.name = "premature-reader";
  k.flops = 1e3;  // short kernel: starts long before the copy finishes
  k.effects.reads.push_back({dev, 8 * MiB});
  g.launch(kernel_stream, std::move(k));
  EXPECT_THROW(g.synchronize(), HazardError);
}

TEST(HazardIntegration, EventDependencyFixesTheRace) {
  Gpu g(profile());
  std::byte* host = g.host_alloc(8 * MiB);
  std::byte* dev = g.device_malloc(8 * MiB);
  Stream& copy_stream = g.create_stream();
  Stream& kernel_stream = g.create_stream();

  g.memcpy_h2d_async(dev, host, 8 * MiB, copy_stream);
  EventPtr ev = g.record_event(copy_stream);
  g.wait_event(kernel_stream, ev);
  KernelDesc k;
  k.flops = 1e3;
  k.effects.reads.push_back({dev, 8 * MiB});
  g.launch(kernel_stream, std::move(k));
  EXPECT_NO_THROW(g.synchronize());
}

TEST(HazardIntegration, PrematureBufferReuseIsCaught) {
  // Overwriting a device buffer while a long kernel still reads it.
  Gpu g(profile());
  std::byte* host = g.host_alloc(8 * MiB);
  std::byte* dev = g.device_malloc(8 * MiB);
  Stream& kernel_stream = g.create_stream();
  Stream& copy_stream = g.create_stream();

  KernelDesc k;
  k.name = "long-reader";
  k.fixed_duration = 1.0;  // very long
  k.effects.reads.push_back({dev, 8 * MiB});
  g.launch(kernel_stream, std::move(k));
  g.memcpy_h2d_async(dev, host, 8 * MiB, copy_stream);  // reuses too early
  EXPECT_THROW(g.synchronize(), HazardError);
}

}  // namespace
}  // namespace gpupipe::gpu
