#include "core/autotune.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "common/log.hpp"
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

/// Candidates per dry-run wave: tune_jobs, or one per hardware thread
/// (capped at 8) when tune_jobs <= 0.
std::size_t dry_worker_count(int tune_jobs) {
  if (tune_jobs > 0) return static_cast<std::size_t>(tune_jobs);
  return std::clamp(std::thread::hardware_concurrency(), 1u, 8u);
}

}  // namespace

TuneResult autotune(gpu::Gpu& g, PipelineSpec spec, const KernelFactory& make_kernel,
                    const TuneOptions& options) {
  spec.validate();
  require(spec.schedule == ScheduleKind::Static, "autotune requires the static schedule");
  require(!options.chunk_candidates.empty() && !options.stream_candidates.empty(),
          "autotune needs candidates");

  const std::vector<std::int64_t> chunks =
      normalize_chunks(options.chunk_candidates, spec.loop_end - spec.loop_begin);
  const std::vector<int> streams = normalize_streams(options.stream_candidates);

  // The measured sweep's CostModel prefilter needs at least two distinct
  // chunks to rank, and affine splits; other specs sweep every candidate.
  const bool prefilter = !options.dry_run && options.model_prefilter && chunks.size() > 1 &&
                         CostModel::supports(spec);

  // Probe once (chunk 1, one stream) to seed the cost model's kernel term —
  // but only when something consumes the seed: a dry sweep scoring with
  // measured seconds-per-iteration (no analytic kernel_cost), or the
  // measured sweep's prefilter. When every oversized candidate collapsed to
  // one chunk there is nothing left to prune, so the probe execution is
  // skipped too.
  const bool need_probe = options.dry_run ? !options.kernel_cost : prefilter;
  SimTime per_iter_kernel = 0.0;
  if (need_probe) {
    PipelineSpec probe_spec = spec;
    probe_spec.chunk_size = 1;
    probe_spec.num_streams = 1;
    probe_spec.loop_end = std::min(spec.loop_end, spec.loop_begin + 1);
    // Record the probe's own run only, and read only the spans it recorded:
    // whatever the device ran before must not seed the model.
    sim::Trace& trace = g.trace();
    const bool was_recording = trace.enabled();
    const std::uint64_t before = trace.spans().size() + trace.dropped_spans();
    trace.set_enabled(true);
    Pipeline probe(g, probe_spec);
    probe.run(make_kernel);
    trace.set_enabled(was_recording);
    // The probe's spans are the newest ones (a capacity-bounded trace keeps
    // as many of them as fit).
    const std::vector<sim::Span>& spans = trace.spans();
    const std::uint64_t recorded = spans.size() + trace.dropped_spans() - before;
    const std::size_t first = spans.size() - std::min<std::size_t>(recorded, spans.size());
    // The kernel was the only compute op in the probe region.
    const SimTime launch = g.profile().kernel_launch_latency;
    for (std::size_t i = first; i < spans.size(); ++i) {
      if (spans[i].kind == sim::SpanKind::Kernel)
        per_iter_kernel = std::max(per_iter_kernel, spans[i].duration() - launch);
    }
  }

  // Cost-model-only sweep: score candidates by replaying their plans
  // through private simulations. No buffers, no kernels, no allocations.
  // Each feasible candidate gets a sound lower bound on its replay
  // (dry_run_lower_bound); candidates are replayed in ascending (bound,
  // explored index) order, and the walk stops at the first bound above the
  // best makespan so far. The rest are pruned: no replay could beat the
  // best, and one that ties it has a bound <= the best and was replayed, so
  // the pick — first in explored order among the fastest — is the full
  // sweep's.
  if (options.dry_run) {
    constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();
    const Bytes limit = spec.mem_limit ? std::min(*spec.mem_limit, g.device_mem_free())
                                       : g.device_mem_free();
    // The probe's seed (or the analytic hint) is shared by every candidate.
    DryRunCost base;
    if (options.kernel_cost) {
      base.flops_per_iter = options.kernel_cost->flops_per_iter;
      base.bytes_per_iter = options.kernel_cost->bytes_per_iter;
    } else {
      base.seconds_per_iter = per_iter_kernel;
    }
    auto cost_at = [&](int s) {
      DryRunCost cost = base;
      cost.live_streams = s;
      return cost;
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

    // Waves of up to `jobs` candidates in bound order, each admitting only
    // bounds <= the best before it; jobs = 1 is the serial walk.
    const std::size_t jobs = dry_worker_count(options.tune_jobs);
    SimTime best = kInf;
    std::size_t done = 0;
    while (done < order.size() && bound[order[done]] <= best) {
      std::size_t end = done + 1;
      while (end < order.size() && end - done < jobs && bound[order[end]] <= best) ++end;
      replay_wave(done, end);
      for (; done < end; ++done) best = std::min(best, cands[order[done]].measured);
    }
    // A wave may replay candidates the serial walk prunes (their bounds
    // passed the best before the wave, not the best within it). Keep only
    // the serial walk's prefix, so the result never depends on tune_jobs.
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

  // Model pre-filter: drop chunk candidates predicted far off the best.
  std::vector<std::int64_t> swept = chunks;
  if (prefilter) {
    const CostModel model(g.profile(), spec, per_iter_kernel);
    SimTime best_pred = std::numeric_limits<SimTime>::infinity();
    for (auto c : swept) best_pred = std::min(best_pred, model.region_time(c));
    std::erase_if(swept, [&](std::int64_t c) {
      const bool prune = model.region_time(c) > options.prune_factor * best_pred;
      if (prune)
        log_debug("autotune: pruning chunk ", c, " (predicted ", model.region_time(c),
                  "s vs best ", best_pred, "s)");
      return prune;
    });
    if (swept.empty()) swept = chunks;  // never prune to nothing
  }

  TuneResult result;
  result.best_time = std::numeric_limits<SimTime>::infinity();
  for (auto c : swept) {
    for (int s : streams) {
      TuneCandidate cand{c, s, std::numeric_limits<SimTime>::infinity(), true};
      PipelineSpec trial = spec;
      trial.chunk_size = c;
      trial.num_streams = s;
      try {
        Pipeline p(g, trial);
        if (p.effective_chunk_size() != c || p.effective_streams() != s) {
          // The memory limit silently reshaped the config; skip duplicates.
          cand.feasible = false;
        } else {
          const SimTime t0 = g.host_now();
          p.run(make_kernel);
          cand.measured = g.host_now() - t0;
        }
      } catch (const gpu::OomError&) {
        cand.feasible = false;
      }
      if (cand.feasible && cand.measured < result.best_time) {
        result.best_time = cand.measured;
        result.chunk_size = cand.chunk_size;
        result.num_streams = cand.num_streams;
      }
      result.explored.push_back(cand);
    }
  }
  require(result.best_time < std::numeric_limits<SimTime>::infinity(),
          "autotune found no feasible configuration");
  return result;
}

}  // namespace gpupipe::core
