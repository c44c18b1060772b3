// Plan compilation cache: LRU behaviour, fingerprint soundness, shared
// plans, concurrency, and the parallel autotune bit-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <clocale>
#include <locale>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/pipeline.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

// One halo'd input grid, one output grid (the Fig. 7 stencil shape).
PipelineSpec stencil_spec(gpu::Gpu& g, std::int64_t nz, std::int64_t plane,
                          bool pinned = true) {
  std::byte* in = g.host_alloc(static_cast<Bytes>(nz * plane) * 8, pinned);
  std::byte* out = g.host_alloc(static_cast<Bytes>(nz * plane) * 8, pinned);
  PipelineSpec spec;
  spec.loop_begin = 1;
  spec.loop_end = nz - 1;
  spec.arrays = {
      ArraySpec{"in", MapType::To, in, 8, {nz, plane}, SplitSpec{0, Affine{1, -1}, 3}},
      ArraySpec{"out", MapType::From, out, 8, {nz, plane}, SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

KernelFactory linear_kernel(double flops_per_iter, double bytes_per_iter) {
  return [=](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.flops = flops_per_iter * static_cast<double>(ctx.iterations());
    k.bytes = static_cast<Bytes>(bytes_per_iter * static_cast<double>(ctx.iterations()));
    return k;
  };
}

// The global instance is process-wide state shared with other tests in this
// binary: pin it to a known configuration before each test.
void reset_global_cache() {
  PlanCache& c = PlanCache::instance();
  c.set_capacity(PlanCache::kDefaultCapacity);
  c.clear();
  c.reset_stats();
}

// `spec` at shape (c, s): compile() plans a spec at its own shape.
PipelineSpec at(PipelineSpec spec, std::int64_t c, int s) {
  spec.chunk_size = c;
  spec.num_streams = s;
  return spec;
}

DryRunCost stencil_cost(std::int64_t plane, int live_streams) {
  DryRunCost cost;
  cost.flops_per_iter = static_cast<double>(plane) * 8.0;
  cost.bytes_per_iter = static_cast<double>(plane) * 24.0;
  cost.live_streams = live_streams;
  return cost;
}

/// The wire bytes of a compiled plan and its report: equal bytes, equal plan.
std::string plan_bytes(const PlanCache::Compiled& c) {
  PlanArtifact a;
  a.plan = *c.plan;
  a.report = c.report;
  return serialize_artifact(a);
}

TEST(PlanCache, HitMissAndLruEviction) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(2);

  // compile() stores one plan| entry per shape.
  const PipelineSpec a = at(stencil_spec(g, 16, 64), 2, 2);
  const PipelineSpec b = at(stencil_spec(g, 24, 64), 2, 2);
  const PipelineSpec c = at(stencil_spec(g, 32, 64), 2, 2);

  const auto pa = cache.compile(g, a).plan;
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.compile(g, a).plan, pa);  // the same shared plan object
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().entries, 1);

  cache.compile(g, b);  // fills slot 2; LRU order: b, a
  cache.compile(g, a);  // touch a back to MRU: a, b
  EXPECT_EQ(cache.stats().hits, 2);
  cache.compile(g, c);  // evicts the LRU entry, which is now b
  EXPECT_EQ(cache.stats().entries, 2);
  EXPECT_EQ(cache.stats().evictions, 1);

  cache.compile(g, a);  // a survived the eviction
  EXPECT_EQ(cache.stats().hits, 3);
  cache.compile(g, b);  // b did not
  EXPECT_EQ(cache.stats().misses, 4);

  // Different shape, different key.
  cache.compile(g, at(a, 4, 2));
  EXPECT_EQ(cache.stats().misses, 5);
}

TEST(PlanCache, CapacityZeroDisables) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(0);
  const PipelineSpec a = at(stencil_spec(g, 16, 64), 2, 2);
  const DryRunCost cost = stencil_cost(64, 2);
  const SimTime direct = dry_run(*cache.compile(g, a).plan, g.profile(), cost).makespan;
  EXPECT_EQ(cache.estimate(g, a, cost), direct);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.stats().misses, 0);
}

TEST(PlanCache, SetCapacityEvictsDown) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(8);
  for (std::int64_t nz : {16, 24, 32, 40}) cache.compile(g, at(stencil_spec(g, nz, 64), 2, 2));
  EXPECT_EQ(cache.stats().entries, 4);
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().evictions, 3);
  EXPECT_GT(cache.stats().bytes, 0);
}

TEST(PlanCache, FingerprintCoversEveryPlanningInput) {
  // Shared host context: pinned-ness of g's allocations must be visible to
  // the twin device for its fingerprints to agree.
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  g.hazards().set_enabled(false);
  const PipelineSpec base = stencil_spec(g, 16, 64);
  const std::string key = PlanCache::fingerprint(g, base, 2, 2);

  // Shape is part of the key.
  EXPECT_NE(PlanCache::fingerprint(g, base, 4, 2), key);
  EXPECT_NE(PlanCache::fingerprint(g, base, 2, 3), key);

  // Every spec field the plan depends on changes the key.
  PipelineSpec v = base;
  v.loop_end -= 1;
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.opt_level = 2;
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.arrays[0].map = MapType::ToFrom;
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.arrays[0].elem_size = 4;
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.arrays[0].dims[1] = 128;
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.arrays[0].split.window = 5;
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.arrays[0].split.start = Affine{1, 0};
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);
  v = base;
  v.arrays[0].name = "in2";
  EXPECT_NE(PlanCache::fingerprint(g, v, 2, 2), key);

  // The device profile is part of the key (content, not identity).
  gpu::Gpu amd(gpu::amd_hd7970(), gpu::ExecMode::Modeled);
  amd.hazards().set_enabled(false);
  EXPECT_NE(PlanCache::fingerprint(amd, base, 2, 2), key);
  gpu::Gpu twin(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  twin.hazards().set_enabled(false);
  EXPECT_EQ(PlanCache::fingerprint(twin, base, 2, 2), key);

  // Pinned-ness of the host arrays is baked into transfer costs.
  const PipelineSpec pageable = stencil_spec(g, 16, 64, /*pinned=*/false);
  EXPECT_NE(PlanCache::fingerprint(g, pageable, 2, 2), key);

  // Host pointer identity and mem_limit must NOT be in the key: plans are
  // pointer-free and the limit only enters through the solved shape.
  const PipelineSpec other_buffers = stencil_spec(g, 16, 64);
  EXPECT_EQ(PlanCache::fingerprint(g, other_buffers, 2, 2), key);
  v = base;
  v.mem_limit = 64 * MiB;
  EXPECT_EQ(PlanCache::fingerprint(g, v, 2, 2), key);
}

TEST(PlanCache, WindowFnAndAdaptiveSpecsBypass) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PipelineSpec spec = stencil_spec(g, 16, 64);
  EXPECT_TRUE(PlanCache::fingerprintable(spec));
  PipelineSpec fn = spec;
  fn.arrays[0].split.window_fn = [](std::int64_t k) {
    return std::pair<std::int64_t, std::int64_t>{k - 1, k + 2};
  };
  EXPECT_FALSE(PlanCache::fingerprintable(fn));
  PipelineSpec adaptive = spec;
  adaptive.schedule = ScheduleKind::Adaptive;
  EXPECT_FALSE(PlanCache::fingerprintable(adaptive));

  // A bypassing spec still computes (and stores nothing).
  PlanCache cache(4);
  const DryRunCost cost = stencil_cost(64, 2);
  const SimTime direct = dry_run(*cache.compile(g, fn).plan, g.profile(), cost).makespan;
  EXPECT_EQ(cache.estimate(g, fn, cost), direct);
  EXPECT_EQ(cache.stats().entries, 0);
  EXPECT_GT(predicted_pipeline_footprint(g, fn, 2, 2), 0u);
}

TEST(PlanCache, CachedResultsMatchDirectComputation) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(16);
  PipelineSpec spec = stencil_spec(g, 32, 256);
  spec.chunk_size = 4;
  spec.num_streams = 3;

  PlanCache::Compiled compiled = cache.compile(g, spec);
  EXPECT_EQ(plan_bytes(compiled), plan_bytes(PlanCache(0).compile(g, spec)));

  const DryRunCost cost = stencil_cost(256, 3);
  const DryRunResult direct = dry_run(*compiled.plan, g.profile(), cost);
  EXPECT_EQ(cache.estimate(g, spec, cost), direct.makespan);
  // Second estimate is a pure lookup of the identical value.
  const auto hits_before = cache.stats().hits;
  EXPECT_EQ(cache.estimate(g, spec, cost), direct.makespan);
  EXPECT_GT(cache.stats().hits, hits_before);

  // A different kernel cost is a different memo: the call misses even
  // though the plan itself is already cached.
  DryRunCost heavier = cost;
  heavier.bytes_per_iter *= 2.0;
  const auto misses_before = cache.stats().misses;
  cache.estimate(g, spec, heavier);
  EXPECT_GT(cache.stats().misses, misses_before);
}

TEST(PlanCache, PipelinesShareTheCachedPlan) {
  reset_global_cache();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PipelineSpec spec = stencil_spec(g, 16, 64);
  spec.chunk_size = 2;
  spec.num_streams = 2;

  Pipeline p1(g, spec);
  Pipeline p2(g, spec);
  EXPECT_EQ(&p1.execution_plan(), &p2.execution_plan());

  // With the cache disabled each pipeline compiles privately.
  PlanCache::instance().set_capacity(0);
  Pipeline p3(g, spec);
  Pipeline p4(g, spec);
  EXPECT_NE(&p3.execution_plan(), &p4.execution_plan());
  EXPECT_EQ(p3.execution_plan().nodes.size(), p1.execution_plan().nodes.size());
  reset_global_cache();
}

// Same-shape pipelines on separate machines share one cached plan, and
// enqueueing on two threads at once races to prove it (the TSan CI job runs
// this): the proof flag is atomic, and both enqueues leave it proven.
TEST(PlanCache, ConcurrentEnqueuesProveTheSharedPlan) {
  reset_global_cache();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  // Pageable hosts read as unpinned on both machines, so the keys agree.
  PipelineSpec spec = stencil_spec(g0, 24, 64, /*pinned=*/false);
  spec.chunk_size = 2;
  spec.num_streams = 2;
  Pipeline p0(g0, spec);
  Pipeline p1(g1, spec);
  ASSERT_EQ(&p0.execution_plan(), &p1.execution_plan());
  ASSERT_FALSE(p0.execution_plan().proven());

  const KernelFactory kernel = linear_kernel(64.0, 512.0);
  std::vector<std::thread> pool;
  for (Pipeline* p : {&p0, &p1})
    pool.emplace_back([p, &kernel] {
      p->enqueue(kernel);
      p->wait();
    });
  for (auto& th : pool) th.join();
  EXPECT_TRUE(p0.execution_plan().proven());
  reset_global_cache();
}

// The footprint the memory solver and admission read is computed, never
// memoized: no call touches the cache, and it equals what a Pipeline at that
// shape allocates.
TEST(PlanCache, PredictedFootprintMakesNoLookupAndMatchesThePipeline) {
  reset_global_cache();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::vector<PipelineSpec> specs = {stencil_spec(g, 40, 256),
                                           stencil_spec(g, 64, 96, /*pinned=*/false)};
  for (const PipelineSpec& spec : specs) {
    for (std::int64_t c : {1, 3, 8, 64}) {
      for (int s : {1, 2, 4}) {
        const PlanCacheStats before = PlanCache::instance().stats();
        const Bytes predicted = predicted_pipeline_footprint(g, spec, c, s);
        const SolvedShape solved = solve_pipeline_shape(g, spec, predicted);
        const PlanCacheStats after = PlanCache::instance().stats();
        EXPECT_EQ(after.hits, before.hits);
        EXPECT_EQ(after.misses, before.misses);
        EXPECT_EQ(after.entries, before.entries);
        EXPECT_EQ(solved.footprint, predicted_pipeline_footprint(g, spec, solved.chunk_size,
                                                                 solved.num_streams));

        const Pipeline p(g, at(spec, c, s));
        EXPECT_EQ(p.buffer_footprint(), predicted) << "chunk " << c << ", streams " << s;
      }
    }
  }
  reset_global_cache();
}

TEST(PlanCache, MetricsExportMatchesStats) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  PlanCache cache(4);
  const PipelineSpec a = at(stencil_spec(g, 16, 64), 2, 2);
  cache.compile(g, a);
  cache.compile(g, a);

  telemetry::Registry reg;
  cache.collect_metrics(reg);
  EXPECT_EQ(reg.counter_value("plan_cache.hits"), 1);
  EXPECT_EQ(reg.counter_value("plan_cache.misses"), 1);
  EXPECT_EQ(reg.counter_value("plan_cache.evictions"), 0);
  EXPECT_EQ(reg.gauge_value("plan_cache.entries"), 1.0);
  EXPECT_EQ(reg.gauge_value("plan_cache.capacity"), 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("plan_cache.hit_rate"), 0.5);
  EXPECT_GT(reg.gauge_value("plan_cache.bytes"), 0.0);

  telemetry::Registry prefixed;
  cache.collect_metrics(prefixed, "dev0.");
  EXPECT_EQ(prefixed.counter_value("dev0.plan_cache.hits"), 1);
}

TEST(PlanCache, ConcurrentReadersAgreeWithSerial) {
  reset_global_cache();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  std::vector<PipelineSpec> specs;
  for (std::int64_t nz : {16, 24, 32, 48}) {
    PipelineSpec s = stencil_spec(g, nz, 128);
    s.chunk_size = 2;
    s.num_streams = 2;
    specs.push_back(s);
  }
  const DryRunCost cost = stencil_cost(128, 2);

  std::vector<std::string> want_plan;
  std::vector<SimTime> want_est;
  for (const auto& s : specs) {
    want_plan.push_back(plan_bytes(PlanCache::instance().compile(g, s)));
    want_est.push_back(PlanCache::instance().estimate(g, s, cost));
  }

  PlanCache::instance().clear();  // force the threads to race on the misses
  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) {
    pool.emplace_back([&] {
      for (int r = 0; r < 20; ++r) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          if (PlanCache::instance().estimate(g, specs[i], cost) != want_est[i])
            mismatches.fetch_add(1);
          if (plan_bytes(PlanCache::instance().compile(g, specs[i])) != want_plan[i])
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Two memos per spec: the estimate, and the compiled plan the estimate's
  // miss path built (and compile() then hit).
  const PlanCacheStats s = PlanCache::instance().stats();
  EXPECT_EQ(s.entries, static_cast<std::int64_t>(2 * specs.size()));
  EXPECT_GT(s.hits, 0);
  reset_global_cache();
}

// --- Autotune: normalization and parallel bit-identity ---

void expect_identical(const TuneResult& a, const TuneResult& b) {
  EXPECT_EQ(a.chunk_size, b.chunk_size);
  EXPECT_EQ(a.num_streams, b.num_streams);
  EXPECT_EQ(a.best_time, b.best_time);
  ASSERT_EQ(a.explored.size(), b.explored.size());
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    EXPECT_EQ(a.explored[i].chunk_size, b.explored[i].chunk_size);
    EXPECT_EQ(a.explored[i].num_streams, b.explored[i].num_streams);
    EXPECT_EQ(a.explored[i].measured, b.explored[i].measured);  // exact, not near
    EXPECT_EQ(a.explored[i].feasible, b.explored[i].feasible);
  }
}

TEST(PlanCacheAutotune, ParallelDrySweepIsBitIdenticalToSerial) {
  reset_global_cache();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const PipelineSpec spec = stencil_spec(g, 64, 256 * 256);
  KernelCostHint hint;
  hint.flops_per_iter = 256.0 * 256.0 * 8.0;
  hint.bytes_per_iter = 256.0 * 256.0 * 24.0;

  TuneOptions opts;
  opts.kernel_cost = hint;
  opts.tune_jobs = 1;
  const TuneResult serial =
      autotune(g, spec, linear_kernel(hint.flops_per_iter, hint.bytes_per_iter), opts);
  // The serial walk prunes most candidates; a wave of 5 replays some the
  // serial walk skips, and the result must still match it.
  const auto replayed = std::count_if(serial.explored.begin(), serial.explored.end(),
                                      [](const TuneCandidate& c) { return !c.pruned(); });
  EXPECT_LT(replayed, 5);
  for (int jobs : {0, 2, 5}) {
    opts.tune_jobs = jobs;
    PlanCache::instance().clear();  // identity must not depend on warm entries
    const TuneResult parallel =
        autotune(g, spec, linear_kernel(hint.flops_per_iter, hint.bytes_per_iter), opts);
    expect_identical(serial, parallel);
  }
  reset_global_cache();
}

TEST(PlanCacheAutotune, ParallelSweepIdenticalWithInfeasibleCandidates) {
  reset_global_cache();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 1024, m = 65536;
  PipelineSpec spec = stencil_spec(g, n, m);
  spec.mem_limit = 32 * MiB;  // large chunks cannot fit

  TuneOptions opts;
  opts.chunk_candidates = {1, 4, 64};
  opts.stream_candidates = {2};
  opts.kernel_cost = KernelCostHint{static_cast<double>(m), static_cast<double>(m) * 16.0};
  opts.tune_jobs = 1;
  const TuneResult serial = autotune(g, spec, linear_kernel(0, 0), opts);
  opts.tune_jobs = 4;
  const TuneResult parallel = autotune(g, spec, linear_kernel(0, 0), opts);
  expect_identical(serial, parallel);
  bool infeasible_seen = false;
  for (const auto& c : serial.explored) infeasible_seen = infeasible_seen || !c.feasible;
  EXPECT_TRUE(infeasible_seen);
  reset_global_cache();
}

TEST(PlanCacheAutotune, CandidatesAreDedupedAndClampedToTrip) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const PipelineSpec spec = stencil_spec(g, 16, 64);  // trip count 14
  KernelCostHint hint{64.0 * 8.0, 64.0 * 24.0};

  TuneOptions opts;
  opts.chunk_candidates = {4, 4, 2, 32, 64};  // 32 and 64 both clamp to 14
  opts.stream_candidates = {2, 2, 1};
  opts.kernel_cost = hint;
  const TuneResult r =
      autotune(g, spec, linear_kernel(hint.flops_per_iter, hint.bytes_per_iter), opts);
  // Normalized candidates: chunks {4, 2, 14} x streams {2, 1}.
  ASSERT_EQ(r.explored.size(), 6u);
  EXPECT_EQ(r.explored[0].chunk_size, 4);
  EXPECT_EQ(r.explored[0].num_streams, 2);
  EXPECT_EQ(r.explored[1].num_streams, 1);
  EXPECT_EQ(r.explored[2].chunk_size, 2);
  EXPECT_EQ(r.explored[4].chunk_size, 14);
}

TEST(PlanCache, FingerprintIsLocaleIndependent) {
  // The device-profile prefix embeds doubles (clock rates, bandwidths) as
  // hexfloats. printf-family "%a" renders them with LC_NUMERIC's decimal
  // point, so a process running under a comma-decimal locale would compute
  // different keys than the gpupipe_compile process that wrote a bundle or
  // disk cache — every cross-process lookup would silently miss. The
  // encoder must therefore be locale-independent (std::to_chars).
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const PipelineSpec spec = stencil_spec(g, 16, 64);
  const std::string c_locale_key = PlanCache::fingerprint(g, spec, 4, 2);
  EXPECT_NE(c_locale_key.find('.'), std::string::npos);  // hexfloat mantissas

  // Two locales can leak in: the C library's LC_NUMERIC (printf family) and
  // the C++ global locale (iostreams). Switch the first when the machine has
  // a comma-decimal locale installed; always install a comma numpunct facet
  // for the second, so the test runs everywhere.
  struct CommaDecimal : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
  };
  const std::string saved = std::setlocale(LC_NUMERIC, nullptr);
  for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8",
                           "de_DE", "fr_FR", "C.UTF-8@comma"})
    if (std::setlocale(LC_NUMERIC, name) != nullptr &&
        *std::localeconv()->decimal_point == ',')
      break;
  const std::locale saved_global =
      std::locale::global(std::locale(std::locale::classic(), new CommaDecimal));
  std::ostringstream probe;
  probe << 1234.5;
  const std::string comma_locale_key = PlanCache::fingerprint(g, spec, 4, 2);
  // A device constructed under the comma locale formats its profile text
  // then, and must format the same text.
  const gpu::Gpu comma_device(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::locale::global(saved_global);  // also resets the C locale: restore it after
  std::setlocale(LC_NUMERIC, saved.c_str());
  ASSERT_EQ(probe.str(), "1.234,5") << "the comma facet must be in effect";
  EXPECT_EQ(comma_locale_key, c_locale_key);
  EXPECT_EQ(comma_locale_key.find(','), std::string::npos);
  EXPECT_EQ(comma_device.profile_key(), g.profile_key());
}

}  // namespace
}  // namespace gpupipe::core
