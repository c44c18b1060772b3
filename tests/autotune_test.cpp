// Tests for the analytic cost model and the autotuning scheduler.
#include <gtest/gtest.h>

#include <vector>

#include "core/autotune.hpp"
#include "core/model.hpp"
#include "gpu/device_profile.hpp"

namespace gpupipe::core {
namespace {

PipelineSpec rows_spec(std::byte* in, std::byte* out, std::int64_t n, std::int64_t m) {
  PipelineSpec spec;
  spec.loop_begin = 0;
  spec.loop_end = n;
  spec.arrays = {
      ArraySpec{"in", MapType::To, in, sizeof(double), {n, m}, SplitSpec{0, Affine{1, 0}, 1}},
      ArraySpec{"out", MapType::From, out, sizeof(double), {n, m},
                SplitSpec{0, Affine{1, 0}, 1}},
  };
  return spec;
}

KernelFactory kernel(std::int64_t m, double bytes_per_elem) {
  return [m, bytes_per_elem](const ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.flops = static_cast<double>(ctx.iterations() * m);
    k.bytes = static_cast<Bytes>(static_cast<double>(ctx.iterations() * m) * bytes_per_elem);
    return k;
  };
}

TEST(CostModel, PredictsMonotoneChunkCosts) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* in = g.host_alloc(1 * MiB);
  std::byte* out = g.host_alloc(1 * MiB);
  auto spec = rows_spec(in, out, 1024, 128);
  const CostModel model(g.profile(), spec, usec(2.0));
  const ChunkCost c1 = model.chunk_cost(1);
  const ChunkCost c8 = model.chunk_cost(8);
  EXPECT_GT(c8.copy_in, c1.copy_in);
  EXPECT_GT(c8.kernel, c1.kernel);
  // Per-iteration, larger chunks are cheaper (fixed costs amortise).
  EXPECT_LT(c8.copy_in / 8.0, c1.copy_in);
}

TEST(CostModel, PredictionTracksSimulationWithinFactorTwo) {
  // The model is coarse, but for a plain streaming workload it should land
  // within 2x of the simulated region time across chunk sizes.
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 512, m = 8192;  // 64 KiB rows
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));

  for (std::int64_t c : {2, 8, 32}) {
    auto spec = rows_spec(in, out, n, m);
    spec.chunk_size = c;
    spec.num_streams = 2;
    Pipeline p(g, spec);
    const SimTime t0 = g.host_now();
    p.run(kernel(m, 32.0));
    const SimTime simulated = g.host_now() - t0;

    // Seed the model with the true per-iteration kernel time.
    const SimTime per_iter =
        std::max(static_cast<double>(m) / g.profile().peak_flops,
                 static_cast<double>(m) * 32.0 / g.profile().mem_bandwidth);
    const CostModel model(g.profile(), spec, per_iter);
    const SimTime predicted = model.region_time(c);
    EXPECT_GT(predicted, 0.5 * simulated) << "chunk " << c;
    EXPECT_LT(predicted, 2.0 * simulated) << "chunk " << c;
  }
}

TEST(Autotune, FindsABetterConfigThanTheWorstCandidate) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 1024, m = 512;  // 4 KiB rows: chunk 1 is terrible
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  auto spec = rows_spec(in, out, n, m);

  TuneOptions opt;
  opt.chunk_candidates = {1, 8, 64};
  opt.stream_candidates = {1, 2};
  opt.model_prefilter = false;  // measure everything
  const TuneResult r = autotune(g, spec, kernel(m, 16.0), opt);

  EXPECT_GT(r.chunk_size, 1);
  EXPECT_GE(r.num_streams, 2);
  SimTime worst = 0.0;
  for (const auto& c : r.explored)
    if (c.feasible) worst = std::max(worst, c.measured);
  EXPECT_LT(r.best_time, worst / 2.0);
  EXPECT_EQ(r.explored.size(), 6u);
}

TEST(Autotune, PrefilterPrunesBadChunksButKeepsTheWinner) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 1024, m = 512;
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  auto spec = rows_spec(in, out, n, m);

  TuneOptions filtered;
  filtered.chunk_candidates = {1, 8, 64};
  filtered.stream_candidates = {2};
  filtered.model_prefilter = true;
  filtered.prune_factor = 2.0;
  const TuneResult with_filter = autotune(g, spec, kernel(m, 16.0), filtered);

  TuneOptions full = filtered;
  full.model_prefilter = false;
  const TuneResult without = autotune(g, spec, kernel(m, 16.0), full);

  EXPECT_EQ(with_filter.chunk_size, without.chunk_size);
  EXPECT_LT(with_filter.explored.size(), without.explored.size());
}

TEST(Autotune, RespectsMemoryLimit) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  const std::int64_t n = 1024, m = 65536;  // 512 KiB rows
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  auto spec = rows_spec(in, out, n, m);
  spec.mem_limit = 32 * MiB;  // chunk 64 with 2 streams would need > 128 MiB

  TuneOptions opt;
  opt.chunk_candidates = {1, 4, 64};
  opt.stream_candidates = {2};
  opt.model_prefilter = false;
  const TuneResult r = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_LE(r.chunk_size, 4);
  bool infeasible_seen = false;
  for (const auto& c : r.explored) infeasible_seen = infeasible_seen || !c.feasible;
  EXPECT_TRUE(infeasible_seen);
}

TEST(Autotune, ProbeSeedsTheModelFromItsOwnKernelsOnly) {
  // The one-chunk probe's kernel time seeds the cost model. Kernels the
  // device ran before the sweep (a heavier region, or an earlier sweep)
  // must not leak into that seed, even when the caller records spans.
  static constexpr std::int64_t n = 512, m = 8192;  // 64 KiB rows
  struct Device {
    gpu::Gpu g{gpu::nvidia_k40m(), gpu::ExecMode::Modeled};
    PipelineSpec spec;
    Device() {
      g.hazards().set_enabled(false);
      std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
      std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
      spec = rows_spec(in, out, n, m);
    }
    TuneResult tune(bool dry_run) {
      TuneOptions opt;  // default candidates, probe-seeded
      opt.dry_run = dry_run;
      return autotune(g, spec, kernel(m, 16.0), opt);
    }
  };

  Device fresh;
  const TuneResult base = fresh.tune(true);
  EXPECT_EQ(base.chunk_size, 64);
  EXPECT_EQ(base.num_streams, 2);
  EXPECT_FALSE(fresh.g.trace().enabled());  // the probe restored the setting

  Device used;
  used.g.trace().set_enabled(true);
  PipelineSpec heavy = used.spec;
  heavy.chunk_size = 64;
  Pipeline(used.g, heavy).run(kernel(m, 400.0));
  const TuneResult after = used.tune(true);
  EXPECT_TRUE(used.g.trace().enabled());
  EXPECT_EQ(after.chunk_size, base.chunk_size);
  EXPECT_EQ(after.num_streams, base.num_streams);
  EXPECT_EQ(after.best_time, base.best_time);

  Device measured;
  measured.g.trace().set_enabled(true);
  const TuneResult first = measured.tune(false);
  const TuneResult second = measured.tune(false);
  EXPECT_EQ(second.explored.size(), first.explored.size());
  EXPECT_EQ(second.chunk_size, first.chunk_size);
  EXPECT_EQ(second.num_streams, first.num_streams);
}

TEST(Autotune, MeasuredSweepOfAWindowFnSpecSkipsThePrefilter) {
  // The CostModel prefilter (on by default) cannot describe a window_fn
  // split; the measured sweep must sweep every candidate instead of
  // throwing from the model.
  static constexpr std::int64_t n = 256, m = 1024;
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = rows_spec(in, out, n, m);
  spec.arrays[0].split.window_fn = [](std::int64_t k) { return std::pair{k, k + 1}; };

  TuneOptions opt;
  opt.chunk_candidates = {1, 8, 64};
  opt.stream_candidates = {1, 2};
  const TuneResult by_default = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_EQ(by_default.explored.size(), 6u);
  EXPECT_EQ(by_default.chunk_size, 64);
  EXPECT_EQ(by_default.num_streams, 2);
  EXPECT_NEAR(by_default.best_time, 0.00112458, 1e-8);

  opt.model_prefilter = false;
  const TuneResult unfiltered = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_EQ(unfiltered.chunk_size, by_default.chunk_size);
  EXPECT_EQ(unfiltered.num_streams, by_default.num_streams);
  // Same measurement, later on the device's virtual clock: equal up to
  // the clock's rounding.
  EXPECT_NEAR(unfiltered.best_time, by_default.best_time, 1e-12);

  opt.dry_run = true;  // no bound for window_fn splits: every candidate replays
  const TuneResult dry = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_EQ(dry.chunk_size, by_default.chunk_size);
  EXPECT_EQ(dry.num_streams, by_default.num_streams);
  for (const TuneCandidate& c : dry.explored) EXPECT_FALSE(c.pruned());
}

TEST(Autotune, RejectsAdaptiveSchedule) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* in = g.host_alloc(1 * MiB);
  std::byte* out = g.host_alloc(1 * MiB);
  auto spec = rows_spec(in, out, 64, 64);
  spec.schedule = ScheduleKind::Adaptive;
  EXPECT_THROW(autotune(g, spec, kernel(64, 16.0)), Error);
}

}  // namespace
}  // namespace gpupipe::core
