// Tests for the autotuning scheduler: the probe-seeded replay sweep, and the
// adaptive schedule's re-chunk through the same sweep.
#include <gtest/gtest.h>

#include <vector>

#include "core/autotune.hpp"
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
  const TuneResult r = autotune(g, spec, kernel(m, 16.0), opt);

  EXPECT_GT(r.chunk_size, 1);
  EXPECT_GE(r.num_streams, 2);
  // Pruned candidates were never replayed (they read +inf): execute them.
  SimTime worst = 0.0;
  for (const auto& c : r.explored) {
    if (!c.feasible) continue;
    SimTime t = c.measured;
    if (c.pruned()) {
      PipelineSpec trial = spec;
      trial.chunk_size = c.chunk_size;
      trial.num_streams = c.num_streams;
      Pipeline p(g, trial);
      const SimTime t0 = g.host_now();
      p.run(kernel(m, 16.0));
      t = g.host_now() - t0;
    }
    worst = std::max(worst, t);
  }
  EXPECT_LT(r.best_time, worst / 2.0);
  EXPECT_EQ(r.explored.size(), 6u);
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
  const TuneResult r = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_LE(r.chunk_size, 4);
  bool infeasible_seen = false;
  for (const auto& c : r.explored) infeasible_seen = infeasible_seen || !c.feasible;
  EXPECT_TRUE(infeasible_seen);
}

TEST(Autotune, ProbeSeedsTheModelFromItsOwnKernelsOnly) {
  // The one-chunk probe's kernel time seeds the replays. Kernels the device
  // ran before the sweep (a heavier region, or an earlier sweep) must not
  // leak into that seed, even when the caller records spans.
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
    TuneResult tune() {
      return autotune(g, spec, kernel(m, 16.0));  // default candidates, probe-seeded
    }
  };

  Device fresh;
  const TuneResult base = fresh.tune();
  EXPECT_EQ(base.chunk_size, 64);
  EXPECT_EQ(base.num_streams, 2);
  EXPECT_FALSE(fresh.g.trace().enabled());  // the probe needs no spans

  Device used;
  used.g.trace().set_enabled(true);
  PipelineSpec heavy = used.spec;
  heavy.chunk_size = 64;
  Pipeline(used.g, heavy).run(kernel(m, 400.0));
  const TuneResult after = used.tune();
  EXPECT_TRUE(used.g.trace().enabled());
  EXPECT_EQ(after.chunk_size, base.chunk_size);
  EXPECT_EQ(after.num_streams, base.num_streams);
  EXPECT_EQ(after.best_time, base.best_time);

  // Replays never read the device's clock, and the probe reads its kernel's
  // exact service time: a later sweep on the same device returns the same
  // result bit for bit, also when the kernel bounds the region and the
  // clock is far enough on that a span's end - start would round.
  used.g.host_compute(1.0 / 3.0);
  const TuneResult again = used.tune();
  EXPECT_EQ(again.chunk_size, base.chunk_size);
  EXPECT_EQ(again.num_streams, base.num_streams);
  EXPECT_EQ(again.best_time, base.best_time);
  const TuneResult bound = autotune(used.g, used.spec, kernel(m, 4000.0));
  used.g.host_compute(3e5 + 0.7);
  EXPECT_EQ(autotune(used.g, used.spec, kernel(m, 4000.0)).best_time, bound.best_time);
}

TEST(Autotune, MeasuredSweepOfAWindowFnSpecSkipsThePrefilter) {
  // A window_fn split has no lower bound (it is 0), so the sweep replays
  // every feasible candidate, and two sweeps on one device agree bit for
  // bit.
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
  const TuneResult first = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_EQ(first.explored.size(), 6u);
  EXPECT_EQ(first.chunk_size, 64);
  EXPECT_EQ(first.num_streams, 2);
  EXPECT_NEAR(first.best_time, 0.00112458, 1e-8);
  for (const TuneCandidate& c : first.explored) EXPECT_FALSE(c.pruned());

  g.host_compute(1.0 / 3.0);
  const TuneResult second = autotune(g, spec, kernel(m, 16.0), opt);
  EXPECT_EQ(second.chunk_size, first.chunk_size);
  EXPECT_EQ(second.num_streams, first.num_streams);
  EXPECT_EQ(second.best_time, first.best_time);
}

TEST(Autotune, RejectsTheMeasuredSweep) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  std::byte* in = g.host_alloc(1 * MiB);
  std::byte* out = g.host_alloc(1 * MiB);
  TuneOptions opt;
  opt.dry_run = false;
  EXPECT_THROW(autotune(g, rows_spec(in, out, 64, 64), kernel(64, 16.0), opt), Error);
}

TEST(Autotune, AdaptiveRechunkPicksWhatTheReplaySweepPicks) {
  // bench/ablation_schedule's 4 KiB-row shape: the adaptive schedule probes
  // chunk 1, then re-chunks to the pick of a replay sweep over the powers
  // of two at the probe kernel's time per iteration.
  static constexpr std::int64_t n = 4096, m = 512;
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  std::byte* in = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(n * m) * sizeof(double));
  PipelineSpec spec = rows_spec(in, out, n, m);
  spec.num_streams = 2;
  spec.schedule = ScheduleKind::Adaptive;
  const Bytes limit = g.device_mem_free();

  g.trace().set_enabled(true);
  Pipeline p(g, spec);
  p.run(kernel(m, 16.0));
  SimTime probe = 0.0;  // the first kernel span is the probe's
  for (const sim::Span& span : g.trace().spans()) {
    if (span.kind == sim::SpanKind::Kernel) {
      probe = span.duration();
      break;
    }
  }
  ASSERT_GT(probe, 0.0);

  DryRunCost cost;
  cost.seconds_per_iter = probe - g.profile().kernel_launch_latency;
  std::vector<std::int64_t> chunks;
  for (std::int64_t c = 1; c <= n; c *= 2) chunks.push_back(c);
  spec.schedule = ScheduleKind::Static;
  const TuneResult sweep = replay_sweep(g, spec, chunks, {2}, cost, limit, 1);
  EXPECT_EQ(p.effective_chunk_size(), sweep.chunk_size);
  EXPECT_EQ(sweep.chunk_size, 1024);
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
