// Unit and failure-injection tests for the hazard tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

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

// --- Static schedules: the validator against a per-slot oracle ---

/// The per-slot algorithm validate_static_schedule once ran, kept as a test
/// oracle: per (resource, slot), the last writer and the readers since that
/// write, checked slot by slot and, for an access of several resources,
/// resource by resource. Returns the text validation would throw
/// ("hazard: ..." or "error: ..." without the source location), or "ok".
std::string per_slot_verdict(const std::vector<StaticOp>& ops, int num_queues) {
  const int n = static_cast<int>(ops.size());
  const auto nq = static_cast<std::size_t>(num_queues);
  auto malformed = [](const StaticOp& op, const char* what) {
    return "error: invalid argument: static op '" + std::string(op.label) + "': " + what;
  };
  std::vector<int> frontier(static_cast<std::size_t>(n) * nq, -1);
  std::vector<int> queue_tail(nq, -1);
  auto merge_from = [&](int* dst, int src) {
    const int* f = frontier.data() + static_cast<std::size_t>(src) * nq;
    for (std::size_t q = 0; q < nq; ++q) dst[q] = std::max(dst[q], f[q]);
    const auto sq = static_cast<std::size_t>(ops[static_cast<std::size_t>(src)].queue);
    dst[sq] = std::max(dst[sq], src);
  };
  struct SlotState {
    int last_writer = -1;
    std::vector<int> readers;
  };
  std::vector<std::vector<SlotState>> slots;
  for (int i = 0; i < n; ++i) {
    const StaticOp& op = ops[static_cast<std::size_t>(i)];
    if (op.queue < 0 || op.queue >= num_queues) return malformed(op, "queue out of range");
    int* f = frontier.data() + static_cast<std::size_t>(i) * nq;
    if (queue_tail[static_cast<std::size_t>(op.queue)] >= 0)
      merge_from(f, queue_tail[static_cast<std::size_t>(op.queue)]);
    for (int d : op.deps) {
      if (d < 0 || d >= i) return malformed(op, "dep must index an earlier op");
      merge_from(f, d);
    }
    queue_tail[static_cast<std::size_t>(op.queue)] = i;
    auto ordered_before = [&](int a) {
      return a <= f[static_cast<std::size_t>(ops[static_cast<std::size_t>(a)].queue)];
    };
    auto conflict = [&](int prior, const char* kind) {
      return "hazard: static " + std::string(kind) + " hazard: '" + std::string(op.label) +
             "' conflicts with '" + std::string(ops[static_cast<std::size_t>(prior)].label) +
             "' without an ordering dependency between them";
    };
    for (const StaticOp::Access& acc : op.accesses) {
      if (acc.resource < 0 || acc.resources < 1 || acc.lo < 0 || acc.lo > acc.hi)
        return malformed(op, "malformed access");
      if (static_cast<std::size_t>(acc.resource + acc.resources) > slots.size())
        slots.resize(static_cast<std::size_t>(acc.resource + acc.resources));
      for (int resource = acc.resource; resource < acc.resource + acc.resources; ++resource) {
        auto& res = slots[static_cast<std::size_t>(resource)];
        if (static_cast<std::size_t>(acc.hi) > res.size())
          res.resize(static_cast<std::size_t>(acc.hi));
        for (std::int64_t slot = acc.lo; slot < acc.hi; ++slot) {
          SlotState& st = res[static_cast<std::size_t>(slot)];
          if (st.last_writer >= 0 && st.last_writer != i && !ordered_before(st.last_writer))
            return conflict(st.last_writer,
                            acc.write ? "write-after-write" : "read-after-write");
          if (acc.write) {
            for (int r : st.readers)
              if (r != i && !ordered_before(r)) return conflict(r, "write-after-read");
            st.last_writer = i;
            st.readers.clear();
          } else if (st.readers.empty() || st.readers.back() != i) {
            st.readers.push_back(i);
          }
        }
      }
    }
  }
  return "ok";
}

/// validate_static_schedule's verdict in per_slot_verdict's terms.
std::string verdict(const std::vector<StaticOp>& ops, int num_queues) {
  try {
    validate_static_schedule(ops, num_queues);
  } catch (const HazardError& e) {
    return std::string("hazard: ") + e.what();
  } catch (const Error& e) {
    const std::string what = e.what();
    return "error: " + what.substr(0, what.rfind(" ["));
  }
  return "ok";
}

/// A seeded random static schedule and the storage its ops point into.
struct RandomSchedule {
  int num_queues = 1;
  std::vector<std::vector<int>> deps;
  std::vector<std::vector<StaticOp::Access>> accesses;
  std::vector<std::string> labels;
  std::vector<StaticOp> ops;
};

/// 1-4 queues and up to 60 ops, each with 1-3 reads or writes of slots in
/// [0, 64) of 1-3 resources (one op's accesses may overlap) and deps on
/// earlier ops: with probability `order`, an op waits on each earlier op it
/// conflicts with, so some schedules validate and others fail late. One
/// schedule in 16 carries one malformed op. With `multi`, each access
/// covers 1-3 consecutive resources of 1-5.
RandomSchedule random_schedule(std::mt19937_64& rng, bool multi = false) {
  auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  RandomSchedule s;
  s.num_queues = static_cast<int>(pick(1, 4));
  const int n = static_cast<int>(pick(1, 60));
  const int resources = static_cast<int>(pick(1, multi ? 5 : 3));
  const std::int64_t span = pick(0, 1) ? 64 : pick(1, 16);  // narrow spans collide more
  const double order = std::uniform_real_distribution<double>(0.9, 1.0)(rng);
  const int bad_op = pick(0, 15) == 0 ? static_cast<int>(pick(0, n - 1)) : -1;
  s.deps.resize(static_cast<std::size_t>(n));
  s.accesses.resize(static_cast<std::size_t>(n));
  std::vector<int> queue(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    queue[ui] = static_cast<int>(pick(0, s.num_queues - 1));
    for (int a = static_cast<int>(pick(1, 3)); a > 0; --a) {
      const std::int64_t lo = pick(0, span - 1);
      s.accesses[ui].push_back({static_cast<int>(pick(0, resources - 1)), lo,
                                std::min<std::int64_t>(64, lo + pick(1, span)),
                                pick(0, 1) == 1});
      if (multi) {
        StaticOp::Access& acc = s.accesses[ui].back();
        acc.resources = static_cast<int>(pick(1, std::min(3, resources - acc.resource)));
      }
    }
    for (int j = 0; j < i; ++j) {
      bool conflicts = false;
      for (const StaticOp::Access& x : s.accesses[ui])
        for (const StaticOp::Access& y : s.accesses[static_cast<std::size_t>(j)])
          conflicts = conflicts || (x.resource < y.resource + y.resources &&
                                    y.resource < x.resource + x.resources && x.lo < y.hi &&
                                    y.lo < x.hi && (x.write || y.write));
      const double p = conflicts ? order : 0.05;
      if (std::uniform_real_distribution<double>(0, 1)(rng) < p) s.deps[ui].push_back(j);
    }
    std::shuffle(s.deps[ui].begin(), s.deps[ui].end(), rng);
    if (i == bad_op) {
      switch (pick(0, 3)) {
        case 0: queue[ui] = pick(0, 1) ? s.num_queues : -1; break;
        case 1: s.deps[ui].push_back(static_cast<int>(pick(i, i + 2))); break;
        case 2: s.accesses[ui].back().lo = s.accesses[ui].back().hi + 1; break;
        default:
          if (multi && pick(0, 1))
            s.accesses[ui].back().resources = 0;
          else
            s.accesses[ui].back().resource = -1;
          break;
      }
    }
    s.labels.push_back("op" + std::to_string(i));
  }
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    s.ops.push_back({queue[ui], s.deps[ui], s.accesses[ui], s.labels[ui]});
  }
  return s;
}

/// Compares validate_static_schedule with the per-slot oracle on 5 000
/// seeded random schedules; every outcome must occur, hazards included.
void expect_matches_oracle(std::uint64_t seed, bool multi) {
  std::mt19937_64 rng(seed);
  int ok = 0, hazards = 0, errors = 0;
  for (int k = 0; k < 5000; ++k) {
    const RandomSchedule s = random_schedule(rng, multi);
    const std::string expected = per_slot_verdict(s.ops, s.num_queues);
    ASSERT_EQ(verdict(s.ops, s.num_queues), expected) << "schedule " << k;
    ok += expected == "ok";
    hazards += expected.starts_with("hazard: ");
    errors += expected.starts_with("error: ");
  }
  EXPECT_GT(ok, 1000) << hazards << " hazards, " << errors << " errors";
  EXPECT_GT(hazards, 1000) << ok << " ok";
  EXPECT_GT(errors, 100);
}

TEST(StaticSchedule, MatchesThePerSlotOracleOnRandomSchedules) {
  expect_matches_oracle(20261020, /*multi=*/false);
}

TEST(StaticSchedule, MatchesThePerSlotOracleOnMultiResourceAccesses) {
  expect_matches_oracle(20261021, /*multi=*/true);
}

TEST(StaticSchedule, ReportsTheFirstUnorderedPairInSlotOrder) {
  // op2 writes [0, 8) on queue 1 after unordered reads by op1 (slots 4-8)
  // and op0 (slots 0-4): the reader of the lowest slot is named.
  const std::vector<StaticOp::Access> r0{{0, 0, 4, false}}, r1{{0, 4, 8, false}},
      w{{0, 0, 8, true}};
  const std::vector<StaticOp> ops{{0, {}, r0, "op0"}, {0, {}, r1, "op1"}, {1, {}, w, "op2"}};
  EXPECT_EQ(verdict(ops, 2),
            "hazard: static write-after-read hazard: 'op2' conflicts with 'op0' without an "
            "ordering dependency between them");
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
