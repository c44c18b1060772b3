#include "core/autotune.hpp"

#include <algorithm>
#include <atomic>
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

int dry_worker_count(int tune_jobs, std::size_t total) {
  int jobs = tune_jobs;
  if (jobs <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    jobs = static_cast<int>(std::clamp(hw, 1u, 8u));
  }
  return static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(jobs), total));
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

  // Probe once (chunk 1, one stream) to seed the cost model's kernel term —
  // but only when something consumes the seed: a dry sweep scoring with
  // measured seconds-per-iteration (no analytic kernel_cost), or a measured
  // sweep whose prefilter has at least two distinct chunks to rank. When
  // every oversized candidate collapsed to one chunk there is nothing left
  // to prune, so the probe execution is skipped too.
  const bool need_probe = options.dry_run
                              ? !options.kernel_cost
                              : options.model_prefilter && chunks.size() > 1;
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

  // Cost-model-only sweep: score every candidate by replaying its plan
  // through a private simulation. No buffers, no kernels, no allocations —
  // and no shared state between candidates, so the sweep parallelizes
  // across tune_jobs workers. Results land in serial candidate order and
  // the reduction below replays that order, so the TuneResult (explored
  // order included) is bit-identical to the serial sweep.
  if (options.dry_run) {
    const Bytes limit = spec.mem_limit ? std::min(*spec.mem_limit, g.device_mem_free())
                                       : g.device_mem_free();
    // The probe's seed (or the analytic hint) is shared by every worker.
    DryRunCost base;
    if (options.kernel_cost) {
      base.flops_per_iter = options.kernel_cost->flops_per_iter;
      base.bytes_per_iter = options.kernel_cost->bytes_per_iter;
    } else {
      base.seconds_per_iter = per_iter_kernel;
    }

    const std::size_t total = chunks.size() * streams.size();
    std::vector<TuneCandidate> cands(total);
    auto score = [&](std::size_t idx) {
      const std::int64_t c = chunks[idx / streams.size()];
      const int s = streams[idx % streams.size()];
      TuneCandidate cand{c, s, std::numeric_limits<SimTime>::infinity(), true};
      PipelineSpec trial = spec;
      trial.chunk_size = c;
      trial.num_streams = s;
      try {
        const SolvedShape solved = solve_pipeline_shape(g, trial, limit);
        if (solved.chunk_size != c || solved.num_streams != s) {
          // The memory limit would reshape the config; skip duplicates.
          cand.feasible = false;
        } else {
          DryRunCost cost = base;
          cost.live_streams = s;
          cand.measured = PlanCache::instance().estimate(g, trial, cost);
        }
      } catch (const gpu::OomError&) {
        cand.feasible = false;
      }
      cands[idx] = cand;
    };

    const int jobs = dry_worker_count(options.tune_jobs, total);
    if (jobs > 1) {
      std::atomic<std::size_t> next{0};
      std::mutex err_mu;
      std::exception_ptr err;
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(jobs));
      for (int t = 0; t < jobs; ++t)
        pool.emplace_back([&] {
          for (;;) {
            const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
            if (idx >= total) return;
            try {
              score(idx);
            } catch (...) {
              std::lock_guard<std::mutex> lock(err_mu);
              if (!err) err = std::current_exception();
              return;
            }
          }
        });
      for (auto& th : pool) th.join();
      if (err) std::rethrow_exception(err);
    } else {
      for (std::size_t idx = 0; idx < total; ++idx) score(idx);
    }

    TuneResult result;
    result.best_time = std::numeric_limits<SimTime>::infinity();
    result.explored = std::move(cands);
    for (const TuneCandidate& cand : result.explored) {
      if (cand.feasible && cand.measured < result.best_time) {
        result.best_time = cand.measured;
        result.chunk_size = cand.chunk_size;
        result.num_streams = cand.num_streams;
      }
    }
    require(result.best_time < std::numeric_limits<SimTime>::infinity(),
            "autotune found no feasible configuration");
    return result;
  }

  // Model pre-filter: drop chunk candidates predicted far off the best.
  std::vector<std::int64_t> swept = chunks;
  if (options.model_prefilter && chunks.size() > 1) {
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
