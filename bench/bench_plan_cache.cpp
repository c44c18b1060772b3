// Plan-cache bench: what the planning cache buys the serve hot path.
//
// Four scenarios, all on the built-in serve job mix (sched/workloads):
//   * cold vs warm planning — wall-clock of estimate_pipeline_runtime per
//     job with the cache bypassed (capacity 0) versus primed, the cost every
//     admission attempt pays,
//   * cache hit rate on the default gpupipe_serve mix — one cold scheduler
//     run (compulsory misses) and one steady-state rerun of the identical
//     mix (the CI floor gates the steady rate at >= 0.9),
//   * cold fleet warmup with the persistent disk tier — a fresh replica's
//     first planning pass with an empty memory tier, against a disk
//     directory seeded by a peer versus no directory at all (the CI floor
//     gates the speedup at >= 2x with zero corrupt reads),
//   * serial vs parallel autotune — the dry-run sweep at tune_jobs 1 versus
//     one worker per hardware thread, with the TuneResult compared field by
//     field (bit-identity is part of the contract, not just a speedup), and
//     how many candidates the serial sweep replayed rather than pruned. The
//     lower bound prunes all but a few candidates of the plain template, so
//     the timed pair sweeps the same template with window_fn splits, which
//     the bound cannot reason about: every feasible candidate is replayed.
// Unlike the figure benches these measure *host* wall-clock: planning is
// real CPU work, not simulated time. BENCH_plan_cache.json and
// BENCH_plan_cache_disk.json carry the numbers for the CI floor checks.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/autotune.hpp"
#include "core/plan_cache.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"

namespace gpupipe::bench {
namespace {

int mix_size() { return quick_mode() ? 9 : 12; }
int plan_reps() { return quick_mode() ? 30 : 120; }
int tune_reps() { return quick_mode() ? 3 : 5; }

double wall(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Scenario 1: cold vs warm planning wall-clock ---

struct PlanTiming {
  double cold_s = 0.0;  ///< cache bypassed (capacity 0)
  double warm_s = 0.0;  ///< cache primed, every call a hit
  int calls = 0;
};

PlanTiming measure_planning() {
  const auto mix = sched::default_job_mix(mix_size());
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i)
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  quiet(g);

  auto pass = [&] {
    for (const auto& sj : jobs) {
      core::DryRunCost cost;
      cost.flops_per_iter = sj.job.flops_per_iter;
      cost.bytes_per_iter = sj.job.bytes_per_iter;
      benchmark::DoNotOptimize(core::estimate_pipeline_runtime(g, sj.job.spec, cost));
    }
  };

  core::PlanCache& cache = core::PlanCache::instance();
  PlanTiming t;
  t.calls = plan_reps() * static_cast<int>(jobs.size());
  cache.set_capacity(0);  // bypass: every call rebuilds + re-optimizes + re-simulates
  t.cold_s = wall([&] {
    for (int r = 0; r < plan_reps(); ++r) pass();
  });
  cache.set_capacity(core::PlanCache::kDefaultCapacity);
  cache.clear();
  pass();  // prime
  t.warm_s = wall([&] {
    for (int r = 0; r < plan_reps(); ++r) pass();
  });
  return t;
}

// --- Scenario 2: hit rate on the default serve mix ---

struct ServeStats {
  core::PlanCacheStats cold;    ///< first run: compulsory misses included
  core::PlanCacheStats steady;  ///< identical rerun against the warm cache
  int completed = 0;
};

void run_serve_mix() {
  const auto mix = sched::default_job_mix(mix_size());
  auto ctx = gpu::make_shared_context();
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::vector<gpu::Gpu*> devices;
  for (int i = 0; i < 2; ++i) {
    gpus.push_back(
        std::make_unique<gpu::Gpu>(gpu::nvidia_k40m(), gpu::ExecMode::Functional, ctx));
    quiet(*gpus.back());
    devices.push_back(gpus.back().get());
  }
  sched::Scheduler scheduler(devices, {});
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    scheduler.submit(jobs.back().job);
  }
  scheduler.run();
}

ServeStats measure_serve() {
  core::PlanCache& cache = core::PlanCache::instance();
  cache.set_capacity(core::PlanCache::kDefaultCapacity);
  cache.clear();
  cache.reset_stats();
  run_serve_mix();
  ServeStats s;
  s.cold = cache.stats();
  cache.reset_stats();  // keep the entries: steady state = warm replay
  run_serve_mix();
  s.steady = cache.stats();
  return s;
}

// --- Scenario 3: cold fleet warmup, with and without the disk tier ---

struct DiskTiming {
  double cold_s = 0.0;    ///< fresh replica, no persistent cache: full replan
  double warm_s = 0.0;    ///< fresh replica, disk tier seeded by a peer
  std::size_t files = 0;  ///< artifacts persisted by the seeding pass
  std::uint64_t hits = 0;
  std::uint64_t corrupt = 0;
  int calls = 0;
};

// Every rep models one replica of a serve fleet starting cold: the memory
// tier is empty and each job template must be planned and estimated. Without GPUPIPE_PLAN_CACHE_DIR that work repeats per replica;
// with it, the first replica's disk writes turn every later replica's
// warmup into deserialization. Same process here, but clear() empties the
// memory tier exactly as a fresh exec would.
DiskTiming measure_disk() {
  namespace fs = std::filesystem;
  const auto mix = sched::default_job_mix(mix_size());
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i)
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  quiet(g);

  auto pass = [&] {
    for (const auto& sj : jobs) {
      core::DryRunCost cost;
      cost.flops_per_iter = sj.job.flops_per_iter;
      cost.bytes_per_iter = sj.job.bytes_per_iter;
      benchmark::DoNotOptimize(core::estimate_pipeline_runtime(g, sj.job.spec, cost));
    }
  };

  const fs::path dir = fs::temp_directory_path() / "gpupipe_bench_plan_cache_disk";
  fs::remove_all(dir);
  core::PlanCache& cache = core::PlanCache::instance();
  cache.set_capacity(core::PlanCache::kDefaultCapacity);
  cache.set_disk_dir("");

  const int reps = quick_mode() ? 5 : 20;
  DiskTiming t;
  t.calls = static_cast<int>(jobs.size());
  t.cold_s = std::numeric_limits<double>::infinity();
  t.warm_s = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    cache.clear();
    t.cold_s = std::min(t.cold_s, wall(pass));
  }

  cache.set_disk_dir(dir.string());
  cache.clear();
  pass();  // the first replica seeds the directory
  t.files = static_cast<std::size_t>(
      std::distance(fs::directory_iterator(dir), fs::directory_iterator{}));
  cache.reset_stats();
  for (int r = 0; r < reps; ++r) {
    cache.clear();
    t.warm_s = std::min(t.warm_s, wall(pass));
  }
  t.hits = cache.stats().disk_hits;
  t.corrupt = cache.stats().disk_corrupt;

  cache.set_disk_dir("");
  cache.clear();
  cache.reset_stats();
  fs::remove_all(dir);
  return t;
}

// --- Scenario 4: serial vs parallel dry-run autotune ---

struct TuneTiming {
  double serial_s = 0.0;    ///< the window_fn sweep
  double parallel_s = 0.0;  ///< the window_fn sweep
  bool identical = false;   ///< both sweeps, serial vs parallel
  std::size_t explored = 0;  ///< the plain template's sweep
  std::size_t measured = 0;  ///< of those, replayed (feasible, not pruned)
  std::size_t timed_explored = 0;
  std::size_t timed_replayed = 0;
};

bool same_result(const core::TuneResult& a, const core::TuneResult& b) {
  if (a.chunk_size != b.chunk_size || a.num_streams != b.num_streams ||
      a.best_time != b.best_time || a.explored.size() != b.explored.size())
    return false;
  for (std::size_t i = 0; i < a.explored.size(); ++i) {
    const auto& x = a.explored[i];
    const auto& y = b.explored[i];
    if (x.chunk_size != y.chunk_size || x.num_streams != y.num_streams ||
        x.measured != y.measured || x.feasible != y.feasible)
      return false;
  }
  return true;
}

/// Serial and parallel dry-run sweeps of one spec, best of tune_reps().
struct Sweep {
  double serial_s = std::numeric_limits<double>::infinity();
  double parallel_s = std::numeric_limits<double>::infinity();
  bool identical = false;
  std::size_t explored = 0;
  std::size_t replayed = 0;  ///< feasible, not pruned
};

Sweep sweep(gpu::Gpu& g, const core::PipelineSpec& spec, const core::KernelFactory& kernel,
            core::TuneOptions topt) {
  core::PlanCache& cache = core::PlanCache::instance();
  Sweep s;
  core::TuneResult serial, parallel;
  for (int r = 0; r < tune_reps(); ++r) {
    // Clear between runs so serial and parallel sweeps pay identical
    // (all-miss) cache work — the comparison isolates the worker pool.
    topt.tune_jobs = 1;
    cache.clear();
    s.serial_s =
        std::min(s.serial_s, wall([&] { serial = core::autotune(g, spec, kernel, topt); }));
    topt.tune_jobs = 0;  // one worker per hardware thread
    cache.clear();
    s.parallel_s =
        std::min(s.parallel_s, wall([&] { parallel = core::autotune(g, spec, kernel, topt); }));
  }
  s.identical = same_result(serial, parallel);
  s.explored = serial.explored.size();
  s.replayed = static_cast<std::size_t>(
      std::count_if(serial.explored.begin(), serial.explored.end(),
                    [](const core::TuneCandidate& c) { return c.feasible && !c.pruned(); }));
  return s;
}

TuneTiming measure_tune() {
  // The large stencil template: the deepest pipelines in the mix, so the
  // chunk-1 candidates give the sweep real simulation work to parallelize.
  const sched::ServeJob sj =
      sched::make_serve_job({.app = "stencil", .size = "large"}, 0);
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  quiet(g);
  core::TuneOptions topt;
  topt.kernel_cost =
      core::KernelCostHint{sj.job.flops_per_iter, sj.job.bytes_per_iter};

  // The plain template: its lower bound must prune.
  const Sweep pruned = sweep(g, sj.job.spec, sj.job.kernel, topt);
  // The same windows as functions: nothing is pruned, so the timed pair
  // replays every feasible candidate and measures the worker pool, not
  // thread start-up.
  core::PipelineSpec fn_spec = sj.job.spec;
  for (core::ArraySpec& a : fn_spec.arrays)
    a.split.window_fn = [start = a.split.start, window = a.split.window](std::int64_t k) {
      return std::make_pair(start(k), start(k) + window);
    };
  const Sweep timed = sweep(g, fn_spec, sj.job.kernel, topt);

  TuneTiming t;
  t.serial_s = timed.serial_s;
  t.parallel_s = timed.parallel_s;
  t.identical = pruned.identical && timed.identical;
  t.explored = pruned.explored;
  t.measured = pruned.replayed;
  t.timed_explored = timed.explored;
  t.timed_replayed = timed.replayed;
  return t;
}

// --- Memoised measurements + reporting ---

const PlanTiming& planning() {
  static const PlanTiming t = measure_planning();
  return t;
}
const ServeStats& serve() {
  static const ServeStats s = measure_serve();
  return s;
}
const DiskTiming& disk() {
  static const DiskTiming t = measure_disk();
  return t;
}
const TuneTiming& tune() {
  static const TuneTiming t = measure_tune();
  return t;
}

void register_all() {
  benchmark::RegisterBenchmark("plan_cache/planning_cold", [](benchmark::State& st) {
    const PlanTiming& t = planning();
    for (auto _ : st) st.SetIterationTime(t.cold_s / t.calls);
    st.counters["calls"] = static_cast<double>(t.calls);
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("plan_cache/planning_warm", [](benchmark::State& st) {
    const PlanTiming& t = planning();
    for (auto _ : st) st.SetIterationTime(t.warm_s / t.calls);
    st.counters["speedup"] = t.warm_s > 0.0 ? t.cold_s / t.warm_s : 0.0;
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("plan_cache/disk_cold", [](benchmark::State& st) {
    const DiskTiming& t = disk();
    for (auto _ : st) st.SetIterationTime(t.cold_s / t.calls);
    st.counters["calls"] = static_cast<double>(t.calls);
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("plan_cache/disk_warm", [](benchmark::State& st) {
    const DiskTiming& t = disk();
    for (auto _ : st) st.SetIterationTime(t.warm_s / t.calls);
    st.counters["speedup"] = t.warm_s > 0.0 ? t.cold_s / t.warm_s : 0.0;
    st.counters["disk_hits"] = static_cast<double>(t.hits);
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("plan_cache/tune_serial", [](benchmark::State& st) {
    for (auto _ : st) st.SetIterationTime(tune().serial_s);
  })->UseManualTime()->Iterations(1);
  benchmark::RegisterBenchmark("plan_cache/tune_parallel", [](benchmark::State& st) {
    const TuneTiming& t = tune();
    for (auto _ : st) st.SetIterationTime(t.parallel_s);
    st.counters["speedup"] = t.parallel_s > 0.0 ? t.serial_s / t.parallel_s : 0.0;
    st.counters["identical"] = t.identical ? 1.0 : 0.0;
  })->UseManualTime()->Iterations(1);
}

void print_figure() {
  const PlanTiming& pt = planning();
  const ServeStats& sv = serve();
  const DiskTiming& dk = disk();
  const TuneTiming& tn = tune();
  const double per_cold = pt.cold_s / pt.calls;
  const double per_warm = pt.warm_s / pt.calls;
  const double disk_speedup = dk.warm_s > 0.0 ? dk.cold_s / dk.warm_s : 0.0;

  std::printf("\nPlan cache — %d-job serve mix, 2x K40m\n", mix_size());
  Table t({"scenario", "value"});
  t.add_row({"cold planning (us/call)", Table::num(per_cold * 1e6, 2)});
  t.add_row({"warm planning (us/call)", Table::num(per_warm * 1e6, 2)});
  t.add_row({"warm speedup", Table::num(per_warm > 0.0 ? per_cold / per_warm : 0.0, 1) + "x"});
  t.add_row({"cold-start hit rate", Table::num(sv.cold.hit_rate() * 100.0, 1) + "%"});
  t.add_row({"steady-state hit rate", Table::num(sv.steady.hit_rate() * 100.0, 1) + "%"});
  t.add_row({"replica warmup, no disk (ms)", Table::num(dk.cold_s * 1e3, 3)});
  t.add_row({"replica warmup, warm disk (ms)", Table::num(dk.warm_s * 1e3, 3)});
  t.add_row({"disk warmup speedup", Table::num(disk_speedup, 1) + "x"});
  t.add_row({"tune serial, window_fn (ms)", Table::num(tn.serial_s * 1e3, 3)});
  t.add_row({"tune parallel, window_fn (ms)", Table::num(tn.parallel_s * 1e3, 3)});
  const double tune_speedup = tn.parallel_s > 0.0 ? tn.serial_s / tn.parallel_s : 0.0;
  t.add_row({"tune speedup", Table::num(tune_speedup, 2) + "x"});
  t.add_row({"tune results identical", tn.identical ? "yes" : "NO"});
  t.add_row({"tune candidates replayed",
              std::to_string(tn.measured) + " of " + std::to_string(tn.explored)});
  t.add_row({"timed sweep replayed (window_fn)",
              std::to_string(tn.timed_replayed) + " of " + std::to_string(tn.timed_explored)});
  t.print(std::cout);

  Artifact art("plan_cache");
  art.config("jobs", static_cast<double>(mix_size()));
  art.config("devices", 2.0);
  art.config("profile", "k40m");
  art.config("plan_reps", static_cast<double>(plan_reps()));
  // The parallel-tune floor only means something with >1 hardware thread:
  // tune_jobs=0 resolves to a single worker on a 1-CPU box and the sweep
  // degenerates to the serial path (speedup ~1.0 by construction).
  art.config("hw_threads", static_cast<double>(std::thread::hardware_concurrency()));
  art.metric("planning.cold_s_per_call", per_cold);
  art.metric("planning.warm_s_per_call", per_warm);
  art.metric("serve.cold_hits", static_cast<double>(sv.cold.hits));
  art.metric("serve.cold_misses", static_cast<double>(sv.cold.misses));
  art.metric("serve.steady_hits", static_cast<double>(sv.steady.hits));
  art.metric("serve.steady_misses", static_cast<double>(sv.steady.misses));
  art.metric("tune.serial_s", tn.serial_s);
  art.metric("tune.parallel_s", tn.parallel_s);
  art.metric("tune.explored", static_cast<double>(tn.explored));
  art.metric("tune.measured", static_cast<double>(tn.measured));
  art.metric("tune.timed_replayed", static_cast<double>(tn.timed_replayed));
  art.derived("warm_speedup", per_warm > 0.0 ? per_cold / per_warm : 0.0);
  art.derived("cold_hit_rate", sv.cold.hit_rate());
  art.derived("steady_hit_rate", sv.steady.hit_rate());
  art.derived("tune_speedup", tn.parallel_s > 0.0 ? tn.serial_s / tn.parallel_s : 0.0);
  art.derived("tune_identical", tn.identical ? 1.0 : 0.0);
  art.write();

  // The disk tier gets its own artifact: the CI floor gates the cold-fleet
  // warmup speedup and requires zero corrupt reads on a healthy directory.
  Artifact disk_art("plan_cache_disk");
  disk_art.config("jobs", static_cast<double>(mix_size()));
  disk_art.config("profile", "k40m");
  disk_art.metric("warmup.cold_s", dk.cold_s);
  disk_art.metric("warmup.warm_disk_s", dk.warm_s);
  disk_art.metric("disk.files", static_cast<double>(dk.files));
  disk_art.metric("disk.hits", static_cast<double>(dk.hits));
  disk_art.metric("disk.corrupt", static_cast<double>(dk.corrupt));
  disk_art.derived("disk_speedup", disk_speedup);
  disk_art.write();
}

}  // namespace
}  // namespace gpupipe::bench

int main(int argc, char** argv) {
  gpupipe::bench::register_all();
  return gpupipe::bench::bench_main(argc, argv, gpupipe::bench::print_figure);
}
