// bench_sim_scale — simulator hot-loop throughput at serve scale.
//
// Sweeps 1k/10k/100k concurrent jobs through the bare discrete-event core
// (engines, tasks, trace — no GPU runtime on top), shaped like the serve
// path: every job is a chain of h2d -> kernel -> (event marker) -> d2h
// chunks contending FIFO on shared copy/compute engines, with arrivals
// packed tightly enough that the engine ready-queues hold most of the fleet
// at once. Reports events/sec (the headline the ROADMAP's sim-core overhaul
// targets), a trace checksum (bit-identity gate: the same workload must
// produce byte-identical Chrome-trace output run over run and across queue
// rewrites), and process peak RSS.
//
// Emits BENCH_sim_scale.json for CI (events/sec floor + determinism gate).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/checksum.hpp"
#include "common/table.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace {

using namespace gpupipe;
using sim::Engine;
using sim::Simulator;
using sim::SpanKind;
using sim::Task;
using sim::TaskPtr;
using sim::Trace;

struct ScaleResult {
  int jobs = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  SimTime sim_s = 0.0;
  std::size_t spans = 0;
  std::uint64_t trace_checksum = 0;
  long vm_hwm_kb = 0;
  long vm_rss_kb = 0;
};

/// Linux VmHWM / VmRSS in KiB (0 when /proc is unavailable).
long proc_status_kb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) {
      long kb = 0;
      std::sscanf(line.c_str() + std::string(key).size(), ": %ld", &kb);
      return kb;
    }
  }
  return 0;
}

/// One serve-shaped sweep: `jobs` tenants, each 2..4 chunks of
/// h2d -> kernel -> marker -> d2h with deterministic per-job durations and
/// arrivals packed into a ~jobs*50ns window so the fleet is genuinely
/// concurrent. Returns throughput and the trace checksum.
ScaleResult run_scale(int jobs) {
  ScaleResult r;
  r.jobs = jobs;

  const auto t0 = std::chrono::steady_clock::now();
  Simulator sim;
  Engine h2d(sim, "h2d", 2);
  Engine d2h(sim, "d2h", 2);
  Engine compute(sim, "compute", 16);
  Engine command(sim, "command", 1 << 20);
  Trace trace;

  constexpr int kLanes = 64;  // lanes cycle like serve streams do
  std::vector<StringId> lanes;
  lanes.reserve(kLanes);
  for (int i = 0; i < kLanes; ++i) lanes.push_back(trace.intern("s" + std::to_string(i)));

  std::vector<TaskPtr> tails;
  tails.reserve(static_cast<std::size_t>(jobs));

  // The sweep size is known up front, so pre-size the two unbounded-growth
  // arrays (spans, staged events) the way the serve driver does from its
  // plan — growth reallocations otherwise copy ~2x the final footprint.
  std::size_t total_tasks = 0;
  for (int j = 0; j < jobs; ++j) total_tasks += 4u * static_cast<std::size_t>(2 + j % 3);
  trace.reserve(total_tasks);
  sim.reserve_events(total_tasks);

  // Span labels interned once up front, the way serve's plan-cached hot
  // path does — task creation then never hashes a string.
  const StringId l_h2d = trace.intern("h2d[4096B]"), l_kernel = trace.intern("kernel"),
                 l_event = trace.intern("event"), l_d2h = trace.intern("d2h[4096B]");

  auto traced = [&](Engine& eng, SimTime dur, StringId label, SpanKind kind, StringId lane,
                    Bytes bytes) {
    auto t = Task::create(eng, dur);
    t->set_span(trace, kind, lane, label, bytes, -1);
    return t;
  };

  for (int j = 0; j < jobs; ++j) {
    const StringId lane = lanes[static_cast<std::size_t>(j % kLanes)];
    const SimTime release = 5e-8 * static_cast<double>(j);
    const int chunks = 2 + j % 3;
    TaskPtr prev;
    for (int c = 0; c < chunks; ++c) {
      const SimTime dup = 1e-6 * static_cast<double>(4 + (j * 7 + c) % 16);
      const SimTime dk = 1e-6 * static_cast<double>(8 + (j * 13 + c) % 32);
      const SimTime ddn = 1e-6 * static_cast<double>(4 + (j * 5 + c) % 16);
      auto up = traced(h2d, dup, l_h2d, SpanKind::H2D, lane, 4096);
      if (prev) up->depends_on(prev);
      auto k = traced(compute, dk, l_kernel, SpanKind::Kernel, lane, 0);
      k->depends_on(up);
      // Zero-duration marker mirrors the runtime's per-chunk event records
      // (exercises same-timestamp FIFO ordering at scale).
      auto ev = traced(command, 0.0, l_event, SpanKind::Sync, lane, 0);
      ev->depends_on(k);
      auto down = traced(d2h, ddn, l_d2h, SpanKind::D2H, lane, 4096);
      down->depends_on(k);
      up->submit(release);
      k->submit(release);
      ev->submit(release);
      down->submit(release);
      prev = down;
    }
    tails.push_back(std::move(prev));
  }
  r.sim_s = sim.run_all();
  const auto t1 = std::chrono::steady_clock::now();

  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.events = sim.events_executed();
  r.spans = trace.spans().size();
  std::ostringstream os;
  trace.dump_chrome_json(os);
  const std::string json = os.str();
  r.trace_checksum =
      fnv1a(std::span<const char>(json.data(), json.size()));
  r.vm_hwm_kb = proc_status_kb("VmHWM");
  r.vm_rss_kb = proc_status_kb("VmRSS");
  return r;
}

const ScaleResult& cached_scale(int jobs) {
  static std::map<int, ScaleResult> cache;
  auto it = cache.find(jobs);
  if (it == cache.end()) it = cache.emplace(jobs, run_scale(jobs)).first;
  return it->second;
}

std::vector<int> sweep_points() {
  if (bench::quick_mode()) return {1000, 10000};
  return {1000, 10000, 100000};
}

void bench_point(benchmark::State& state) {
  const ScaleResult& r = cached_scale(static_cast<int>(state.range(0)));
  for (auto _ : state) state.SetIterationTime(r.wall_s);
  state.counters["events"] = static_cast<double>(r.events);
  state.counters["events_per_s"] = static_cast<double>(r.events) / r.wall_s;
  state.counters["rss_hwm_MB"] = static_cast<double>(r.vm_hwm_kb) / 1024.0;
}

void print_figure() {
  Table table({"jobs", "events", "wall (s)", "events/sec", "sim (s)", "spans",
               "trace fnv1a", "VmHWM (MiB)"});
  bench::Artifact art("sim_scale");
  art.config("chunks_per_job", "2..4");
  art.config("engines", "h2d:2 d2h:2 compute:16 command");
  art.config("arrival_spacing_s", 5e-8);

  // Determinism gate: the mid sweep point twice — event counts, executed
  // order (via the completion-ordered trace), and the full Chrome-trace
  // bytes must be identical run over run.
  const ScaleResult a = run_scale(10000);
  const ScaleResult b = run_scale(10000);
  const bool deterministic = a.events == b.events && a.sim_s == b.sim_s &&
                             a.trace_checksum == b.trace_checksum;

  double events_per_s_top = 0.0;
  int top_jobs = 0;
  for (int jobs : sweep_points()) {
    const ScaleResult& r = cached_scale(jobs);
    const double eps = static_cast<double>(r.events) / r.wall_s;
    if (jobs >= top_jobs) {
      top_jobs = jobs;
      events_per_s_top = eps;
    }
    table.add_row({std::to_string(r.jobs), std::to_string(r.events),
                   Table::num(r.wall_s, 3), Table::num(eps, 0), Table::num(r.sim_s, 4),
                   std::to_string(r.spans), std::to_string(r.trace_checksum),
                   Table::num(static_cast<double>(r.vm_hwm_kb) / 1024.0, 1)});
    const std::string p = "jobs_" + std::to_string(jobs) + ".";
    art.metric(p + "events", static_cast<double>(r.events));
    art.metric(p + "wall_s", r.wall_s);
    art.metric(p + "events_per_s", eps);
    art.metric(p + "sim_s", r.sim_s);
    art.metric(p + "spans", static_cast<double>(r.spans));
    art.metric(p + "trace_checksum", static_cast<double>(r.trace_checksum));
    art.metric(p + "rss_hwm_kb", static_cast<double>(r.vm_hwm_kb));
    art.metric(p + "rss_kb", static_cast<double>(r.vm_rss_kb));
  }
  table.print(std::cout);
  std::printf("deterministic: %s (10k point run twice: events %llu/%llu, trace fnv1a "
              "%llx/%llx)\n",
              deterministic ? "yes" : "NO", static_cast<unsigned long long>(a.events),
              static_cast<unsigned long long>(b.events),
              static_cast<unsigned long long>(a.trace_checksum),
              static_cast<unsigned long long>(b.trace_checksum));

  art.derived("top_jobs", static_cast<double>(top_jobs));
  art.derived("top_events_per_s", events_per_s_top);
  art.derived("deterministic", deterministic ? 1.0 : 0.0);
  art.write();
}

}  // namespace

int main(int argc, char** argv) {
  for (int jobs : sweep_points())
    benchmark::RegisterBenchmark(("sim_scale/jobs:" + std::to_string(jobs)).c_str(),
                                 bench_point)
        ->Range(jobs, jobs)
        ->UseManualTime()
        ->Unit(benchmark::kMillisecond);
  return gpupipe::bench::bench_main(argc, argv, print_figure);
}
