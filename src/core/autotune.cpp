#include "core/autotune.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "core/model.hpp"
#include "core/plan_cache.hpp"

namespace gpupipe::core {

namespace {

/// Dedupe preserving first-occurrence order; chunk candidates above the trip
/// count collapse to one trip-sized candidate first (every oversized chunk
/// plans the identical single-chunk schedule, so sweeping them repeats the
/// same measurement).
std::vector<std::int64_t> normalize_chunks(const std::vector<std::int64_t>& in,
                                           std::int64_t trip) {
  const std::int64_t cap = std::max<std::int64_t>(trip, 1);
  std::vector<std::int64_t> out;
  out.reserve(in.size());
  for (std::int64_t c : in) {
    c = std::min(c, cap);
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  return out;
}

std::vector<int> normalize_streams(const std::vector<int>& in) {
  std::vector<int> out;
  out.reserve(in.size());
  for (int s : in)
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  return out;
}

/// Candidates per replay wave: tune_jobs, or one per hardware thread
/// (capped at 8) when tune_jobs <= 0.
std::size_t dry_worker_count(int tune_jobs) {
  if (tune_jobs > 0) return static_cast<std::size_t>(tune_jobs);
  return std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
}

/// Runs the first iteration of `spec` alone (one chunk, one stream) and
/// returns its kernel's measured seconds per iteration.
SimTime probe(gpu::Gpu& g, PipelineSpec spec, const KernelFactory& make_kernel) {
  spec.chunk_size = 1;
  spec.num_streams = 1;
  spec.loop_end = std::min(spec.loop_end, spec.loop_begin + 1);
  Pipeline p(g, spec);
  p.run(make_kernel);
  return probe_seconds_per_iter(g, p.last_kernel_time(), 1);
}

}  // namespace

SimTime probe_seconds_per_iter(const gpu::Gpu& g, SimTime kernel_time, std::int64_t iters) {
  const gpu::DeviceProfile& p = g.profile();
  return std::max(0.0, kernel_time - p.stream_arbitration(g.live_streams()) -
                           p.kernel_launch_latency) /
         static_cast<double>(std::max<std::int64_t>(iters, 1));
}

TuneResult autotune(gpu::Gpu& g, PipelineSpec spec, const KernelFactory& make_kernel,
                    const TuneOptions& options) {
  spec.validate();
  require(spec.schedule == ScheduleKind::Static, "autotune requires the static schedule");
  require(options.dry_run,
          "autotune scores candidates by plan replay only: dry_run must be true");
  require(!options.chunk_candidates.empty() && !options.stream_candidates.empty(),
          "autotune needs candidates");

  const std::vector<std::int64_t> chunks =
      normalize_chunks(options.chunk_candidates, spec.loop_end - spec.loop_begin);
  const std::vector<int> streams = normalize_streams(options.stream_candidates);
  // The analytic hint, or the probe's measured seed, prices every replay.
  DryRunCost cost;
  if (options.kernel_cost) {
    cost.flops_per_iter = options.kernel_cost->flops_per_iter;
    cost.bytes_per_iter = options.kernel_cost->bytes_per_iter;
  } else {
    cost.seconds_per_iter = probe(g, spec, make_kernel);
  }
  const Bytes limit = spec.mem_limit ? std::min(*spec.mem_limit, g.device_mem_free())
                                     : g.device_mem_free();
  return replay_sweep(g, spec, chunks, streams, cost, limit, options.tune_jobs);
}

// Each feasible candidate gets a sound lower bound on its replay
// (dry_run_lower_bound); candidates are replayed in ascending (bound,
// explored index) order, and the walk stops at the first bound above the
// best makespan so far. The rest are pruned: no replay could beat the best,
// and one that ties it has a bound <= the best and was replayed, so the
// pick — first in explored order among the fastest — is the full sweep's.
TuneResult replay_sweep(const gpu::Gpu& g, const PipelineSpec& spec,
                        const std::vector<std::int64_t>& chunks,
                        const std::vector<int>& streams, const DryRunCost& cost, Bytes limit,
                        int jobs) {
  constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
  auto cost_at = [&](int s) {
    DryRunCost c = cost;
    c.live_streams = s;
    return c;
  };

  const std::size_t total = chunks.size() * streams.size();
  std::vector<TuneCandidate> cands(total);
  std::vector<SimTime> bound(total, 0.0);
  std::vector<std::size_t> order;  // feasible candidates
  PipelineSpec trial = spec;
  for (std::size_t idx = 0; idx < total; ++idx) {
    TuneCandidate& cand = cands[idx];
    cand = {chunks[idx / streams.size()], streams[idx % streams.size()], kInf, true};
    trial.chunk_size = cand.chunk_size;
    trial.num_streams = cand.num_streams;
    try {
      // The memory limit would reshape the config; skip duplicates.
      const SolvedShape solved = solve_pipeline_shape(g, trial, limit);
      cand.feasible =
          solved.chunk_size == cand.chunk_size && solved.num_streams == cand.num_streams;
    } catch (const gpu::OomError&) {
      cand.feasible = false;
    }
    if (!cand.feasible) continue;
    bound[idx] = dry_run_lower_bound(g, trial, cost_at(cand.num_streams));
    order.push_back(idx);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return bound[a] < bound[b]; });

  auto replay = [&](std::size_t idx) {
    TuneCandidate& cand = cands[idx];
    PipelineSpec shaped = spec;
    shaped.chunk_size = cand.chunk_size;
    shaped.num_streams = cand.num_streams;
    cand.measured = PlanCache::instance().estimate(g, shaped, cost_at(cand.num_streams));
  };
  // Replays order[lo, hi) concurrently: the calling thread takes the
  // first, one worker thread each of the rest.
  auto replay_wave = [&](std::size_t lo, std::size_t hi) {
    std::mutex err_mu;
    std::exception_ptr err;
    auto guarded = [&](std::size_t i) {
      try {
        replay(order[i]);
      } catch (...) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!err) err = std::current_exception();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(hi - lo - 1);
    try {
      for (std::size_t i = lo + 1; i < hi; ++i) pool.emplace_back(guarded, i);
    } catch (...) {
      for (auto& th : pool) th.join();  // a thread failed to start
      throw;
    }
    guarded(lo);
    for (auto& th : pool) th.join();
    if (err) std::rethrow_exception(err);
  };

  // Waves of up to `workers` candidates in bound order, each admitting only
  // bounds <= the best before it; one worker is the serial walk.
  const std::size_t workers = dry_worker_count(jobs);
  SimTime best = kInf;
  std::size_t done = 0;
  while (done < order.size() && bound[order[done]] <= best) {
    std::size_t end = done + 1;
    while (end < order.size() && end - done < workers && bound[order[end]] <= best) ++end;
    replay_wave(done, end);
    for (; done < end; ++done) best = std::min(best, cands[order[done]].measured);
  }
  // A wave may replay candidates the serial walk prunes (their bounds
  // passed the best before the wave, not the best within it). Keep only
  // the serial walk's prefix, so the result never depends on `jobs`.
  best = kInf;
  std::size_t kept = 0;
  for (; kept < done && bound[order[kept]] <= best; ++kept)
    best = std::min(best, cands[order[kept]].measured);
  for (std::size_t i = kept; i < done; ++i) cands[order[i]].measured = kInf;

  TuneResult result;
  result.best_time = kInf;
  result.explored = std::move(cands);
  for (const TuneCandidate& cand : result.explored) {
    if (cand.feasible && cand.measured < result.best_time) {
      result.best_time = cand.measured;
      result.chunk_size = cand.chunk_size;
      result.num_streams = cand.num_streams;
    }
  }
  require(result.best_time < kInf, "autotune found no feasible configuration");
  return result;
}

}  // namespace gpupipe::core
