// gpupipe_serve — replay a job mix through the multi-tenant scheduler.
//
// Reads a job-mix file (or generates a built-in mix), submits every job to
// a sched::Scheduler over a multi-device shared context, and reports
// per-job wait/service/turnaround, makespan versus the sum of solo
// runtimes, and queue-wait/turnaround percentiles interpolated from the
// `sched.` telemetry histograms.
//
// Usage:
//   gpupipe_serve [mixfile] [--default-mix N] [--jobs N] [--chains N]
//                 [--chain-stages M] [--chain-size small|medium|large]
//                 [--no-stitch] [--devices N|list]
//                 [--profile k40m|hd7970|xeonphi] [--policy fifo|priority|sjf]
//                 [--shard-threshold MIB] [--max-shards N]
//                 [--reshard-interval ITERS]
//                 [--placement least-loaded|round-robin] [--cap MIB]
//                 [--queue-capacity N] [--plan-cache N] [--tune-jobs N]
//                 [--bundle FILE] [--cache-dir DIR] [--no-solo] [--json]
//                 [--record] [--record-capacity N] [--sample-every SEC]
//                 [--export prom|jsonl|spans] [--export-dir DIR]
//                 [--watchdog-stall SEC] [--watchdog-storm N]
//                 [--watchdog-window SEC] [--watchdog-disk-corrupt]
//
// Live observability: --record turns on the flight recorder (a bounded ring
// of structured control-loop events — admission, shrink, reject, backoff,
// placement, completion, deadline miss, plan-cache disk traffic — each
// stamped with sim time and the job's trace id). --sample-every SEC
// snapshots queue depth, committed bytes, per-device utilization, and the
// plan-cache hit rate on that sim-time cadence. --export emits the state
// after the run: `jsonl` writes serve_events.jsonl + serve_series.jsonl
// (and implies --record), `prom` writes serve.prom (Prometheus text format
// over the full metrics registry), and `spans` turns on every device's span
// recording for the run and writes serve_spans.jsonl (one span per line:
// device, trace id, plan node, kind, lane, label, start, end, bytes;
// devices in index order, each device's spans in recording order). All land
// in --export-dir (default "."). Everything runs on virtual time, so two
// identical runs produce byte-identical export files, and recording spans
// changes no other export. The --watchdog-* thresholds arm an anomaly
// detector checked on the sampling cadence (default 1 ms when armed
// without --sample-every); a trip dumps the flight recorder to
// serve_watchdog_dump.jsonl and reports on stderr.
//
// --plan-cache N sets the planning cache capacity (entries; 0 disables the
// cache — useful for A/B-ing the serve hot path). --tune-jobs N runs a
// dry-run autotune per distinct app/size template before submission, with N
// parallel workers (0 = one per hardware thread), and submits each job at
// its tuned shape.
//
// --bundle FILE loads a `gpupipe_compile` AOT bundle at startup: its plan
// and estimate artifacts pre-warm the plan cache and its tuned shapes are
// applied to matching job templates (unless --tune-jobs re-tunes live), so
// a fresh replica starts hot. The solo baseline runs each job at the shape
// it was submitted at, bundled or tuned, so the cached plans serve it too.
// --cache-dir DIR enables the plan cache's persistent on-disk tier (same as
// GPUPIPE_PLAN_CACHE_DIR): misses fall through memory -> disk -> compute
// and computed plans are written back for the next process.
//
// --devices takes either a count N (N copies of --profile) or a
// comma-separated profile list ("k40m,k40m,hd7970") for a heterogeneous
// machine. --shard-threshold MIB arms elastic sharding: a job whose
// predicted solo ring footprint reaches the threshold is partitioned across
// the devices with P2P halo exchange (sched/shard.hpp); --max-shards caps
// the devices per job and --reshard-interval sets the loop iterations per
// round (0 = one round, no mid-job resharding). The solo baseline always
// uses --profile, so heterogeneous speedup numbers are relative to that
// reference device.
//
// --chains N appends N lineage chains of --chain-stages pointwise jobs each
// (stream/compute alternating at --chain-size geometry) after the mix; each
// stage declares Job::consumes on its predecessor, so the scheduler stitches
// the intermediate host round-trips into device-resident handoffs and the
// summary reports stitched jobs/bytes plus total H2D/D2H traffic.
// --no-stitch disables the pass (lineage still sequences the chains), which
// is the A/B baseline for the saved copy bytes.
//
// --jobs N generates a synthetic N-tenant mix (no mix file needed) and runs
// it on modeled-mode devices: jobs carry no host arrays, so tenant counts in
// the 100k range fit in memory, at the cost of skipping result verification
// and the solo baseline. Scheduling, admission, and telemetry behave exactly
// as in functional runs.
//
// Exit status: 0 on success; 1 on bad usage; 2 when a completed job's
// device result fails host verification.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/export.hpp"
#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/autotune.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "gpu/device_profile.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"
#include "tool_util.hpp"

using namespace gpupipe;

namespace {

struct Options {
  std::string mixfile;
  int default_mix = 10;
  int jobs = 0;        ///< >0: synthetic modeled-mode mix of N tenants
  int chains = 0;      ///< >0: append N lineage chains to the mix
  int chain_stages = 3;
  std::string chain_size = "small";
  int devices = 2;
  std::string devices_spec = "2";  ///< raw --devices value (count or list)
  std::vector<gpu::DeviceProfile> machine;  ///< resolved per-device profiles
  std::string machine_desc;                 ///< what to print for the machine
  std::string profile = "k40m";
  sched::SchedulerOptions sched;
  bool solo = true;
  bool json = false;
  std::optional<std::size_t> plan_cache;  ///< cache capacity override
  std::optional<int> tune_jobs;           ///< pre-submit autotune workers
  std::string bundle;                     ///< AOT plan bundle to preload
  std::string cache_dir;                  ///< persistent plan-cache tier
  bool record = false;                    ///< flight recorder on
  std::size_t record_capacity = 8192;
  bool export_prom = false;
  bool export_jsonl = false;
  bool export_spans = false;
  std::string export_dir = ".";
  double watchdog_stall = 0.0;   ///< sim-seconds without progress (0 = off)
  int watchdog_storm = 0;        ///< deadline misses per window (0 = off)
  double watchdog_window = 0.05; ///< storm window, sim-seconds
  bool watchdog_disk_corrupt = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: gpupipe_serve [mixfile] [--default-mix N] [--jobs N]\n"
               "                     [--chains N] [--chain-stages M]\n"
               "                     [--chain-size small|medium|large] [--no-stitch]\n"
               "                     [--devices N | k40m,hd7970,...]\n"
               "                     [--profile k40m|hd7970|xeonphi]\n"
               "                     [--shard-threshold MIB] [--max-shards N]\n"
               "                     [--reshard-interval ITERS]\n"
               "                     [--policy fifo|priority|sjf]\n"
               "                     [--placement least-loaded|round-robin]\n"
               "                     [--cap MIB] [--queue-capacity N] [--plan-cache N]\n"
               "                     [--tune-jobs N] [--bundle FILE] [--cache-dir DIR]\n"
               "                     [--no-solo] [--json]\n"
               "                     [--record] [--record-capacity N]\n"
               "                     [--sample-every SEC] [--export prom|jsonl|spans]\n"
               "                     [--export-dir DIR] [--watchdog-stall SEC]\n"
               "                     [--watchdog-storm N] [--watchdog-window SEC]\n"
               "                     [--watchdog-disk-corrupt]\n");
  return 1;
}

/// Solo baseline: each job alone on a fresh single-device machine with the
/// same profile (fresh host arrays, so the scheduled run's outputs are
/// untouched), at the shape it was served at — a bundled or tuned shape,
/// not the mix line's.
SimTime solo_runtime(const sched::JobMixLine& line, int index,
                     const gpu::DeviceProfile& profile, const core::PipelineSpec& served) {
  sched::ServeJob sj = sched::make_serve_job(line, index);
  sj.job.spec.chunk_size = served.chunk_size;
  sj.job.spec.num_streams = served.num_streams;
  gpu::Gpu g(profile, gpu::ExecMode::Functional);
  core::Pipeline p(g, sj.job.spec);
  const SimTime t0 = g.host_now();
  p.run(sj.job.kernel);
  return g.host_now() - t0;
}

void print_human(const sched::ScheduleReport& rep, const std::vector<sched::ServeJob>& jobs,
                 SimTime sum_solo, const telemetry::Registry& reg, const Options& opt,
                 Bytes h2d_total, Bytes d2h_total) {
  std::printf("gpupipe_serve: %zu jobs, %d x %s, policy %s, placement %s\n",
              jobs.size(), opt.devices, opt.machine_desc.c_str(),
              to_string(opt.sched.queue_policy), to_string(opt.sched.placement));
  std::printf("%-20s %-9s %3s %8s %8s %8s %8s %6s\n", "job", "state", "dev",
              "arrive", "wait_ms", "serve_ms", "turn_ms", "shape");
  for (const auto& r : rep.jobs) {
    const bool done = r.state == sched::JobState::Completed;
    std::printf("%-20s %-9s %3d %8.3f %8.3f %8.3f %8.3f %4lldx%d%s%s\n", r.name.c_str(),
                to_string(r.state), r.device, r.arrival * 1e3,
                done ? r.wait() * 1e3 : 0.0, done ? r.service() * 1e3 : 0.0,
                done ? r.turnaround() * 1e3 : 0.0,
                static_cast<long long>(r.chunk_size), r.num_streams,
                r.shrunk ? " shrunk" : "", r.deadline_missed ? " LATE" : "");
  }
  std::printf("completed %d, rejected %d, shrinks %lld, retries %lld, "
              "backpressure %lld, deadline misses %lld\n",
              rep.completed, rep.rejected,
              static_cast<long long>(rep.admission_shrinks),
              static_cast<long long>(rep.admission_retries),
              static_cast<long long>(rep.backpressure_events),
              static_cast<long long>(rep.deadline_misses));
  if (opt.chains > 0 || rep.stitched_jobs > 0)
    std::printf("stitching: %lld jobs stitched, %lld bytes device-resident, "
                "%lld fallbacks; h2d %lld bytes, d2h %lld bytes\n",
                static_cast<long long>(rep.stitched_jobs),
                static_cast<long long>(rep.stitched_bytes),
                static_cast<long long>(rep.handoff_fallbacks),
                static_cast<long long>(h2d_total), static_cast<long long>(d2h_total));
  std::printf("makespan %.3f ms", rep.makespan * 1e3);
  if (opt.solo)
    std::printf("  (sum of solo runtimes %.3f ms, speedup %.2fx)", sum_solo * 1e3,
                rep.makespan > 0.0 ? sum_solo / rep.makespan : 0.0);
  std::printf("\n");
  const auto& hist = reg.histograms();
  for (const char* name : {"sched.wait_s", "sched.turnaround_s"}) {
    auto it = hist.find(name);
    if (it == hist.end()) continue;
    std::printf("%s: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms\n", name,
                it->second.quantile(0.50) * 1e3, it->second.quantile(0.95) * 1e3,
                it->second.quantile(0.99) * 1e3);
  }
  const core::PlanCacheStats pc = core::PlanCache::instance().stats();
  std::printf("plan cache: %lld hits, %lld misses (%.1f%% hit rate), %lld evictions, "
              "%lld entries, %.1f KiB\n",
              static_cast<long long>(pc.hits), static_cast<long long>(pc.misses),
              pc.hit_rate() * 100.0, static_cast<long long>(pc.evictions),
              static_cast<long long>(pc.entries), static_cast<double>(pc.bytes) / 1024.0);
  if (!core::PlanCache::instance().disk_dir().empty() || pc.disk_hits > 0 ||
      pc.disk_corrupt > 0)
    std::printf("plan cache disk: %lld hits, %lld misses, %lld corrupt, %lld writes, "
                "%.1f KiB read, %.1f KiB written\n",
                static_cast<long long>(pc.disk_hits),
                static_cast<long long>(pc.disk_misses),
                static_cast<long long>(pc.disk_corrupt),
                static_cast<long long>(pc.disk_writes),
                static_cast<double>(pc.disk_bytes_read) / 1024.0,
                static_cast<double>(pc.disk_bytes_written) / 1024.0);
}

void print_json(const sched::ScheduleReport& rep, SimTime sum_solo,
                const telemetry::Registry& reg, const Options& opt, Bytes h2d_total,
                Bytes d2h_total) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"options\":{\"devices\":" << opt.devices << ",\"profile\":\"" << opt.profile
     << "\",\"policy\":\"" << to_string(opt.sched.queue_policy) << "\",\"placement\":\""
     << to_string(opt.sched.placement) << "\",\"queue_capacity\":"
     << opt.sched.queue_capacity << "},\"jobs\":[";
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    const auto& r = rep.jobs[i];
    const bool done = r.state == sched::JobState::Completed;
    if (i > 0) os << ",";
    os << "{\"id\":" << r.id << ",\"name\":\"" << r.name << "\",\"state\":\""
       << to_string(r.state) << "\",\"device\":" << r.device << ",\"priority\":"
       << r.priority << ",\"arrival_s\":" << r.arrival << ",\"start_s\":" << r.start
       << ",\"finish_s\":" << r.finish << ",\"wait_s\":" << (done ? r.wait() : 0.0)
       << ",\"service_s\":" << (done ? r.service() : 0.0) << ",\"turnaround_s\":"
       << (done ? r.turnaround() : 0.0) << ",\"estimate_s\":" << r.estimate
       << ",\"footprint_bytes\":" << r.footprint << ",\"chunk_size\":" << r.chunk_size
       << ",\"num_streams\":" << r.num_streams << ",\"shrunk\":"
       << (r.shrunk ? "true" : "false") << ",\"admission_attempts\":"
       << r.admission_attempts << ",\"deadline_missed\":"
       << (r.deadline_missed ? "true" : "false") << "}";
  }
  os << "],\"summary\":{\"makespan_s\":" << rep.makespan << ",\"sum_solo_s\":" << sum_solo
     << ",\"speedup\":" << (rep.makespan > 0.0 && opt.solo ? sum_solo / rep.makespan : 0.0)
     << ",\"completed\":" << rep.completed << ",\"rejected\":" << rep.rejected
     << ",\"stitched_jobs\":" << rep.stitched_jobs << ",\"stitched_bytes\":"
     << rep.stitched_bytes << ",\"handoff_fallbacks\":" << rep.handoff_fallbacks
     << ",\"h2d_bytes\":" << h2d_total << ",\"d2h_bytes\":" << d2h_total
     << ",\"throughput_jobs_per_s\":"
     << (rep.makespan > 0.0 ? static_cast<double>(rep.completed) / rep.makespan : 0.0);
  // Percentiles are interpolated from the sched.* histograms in the
  // registry — the same numbers any metrics consumer would derive.
  const auto& hist = reg.histograms();
  for (const auto& [name, key] :
       {std::pair<const char*, const char*>{"sched.wait_s", "wait"},
        std::pair<const char*, const char*>{"sched.turnaround_s", "turnaround"}}) {
    auto it = hist.find(name);
    if (it == hist.end()) continue;
    for (const auto& [q, tag] : {std::pair<double, const char*>{0.50, "p50"},
                                 std::pair<double, const char*>{0.95, "p95"},
                                 std::pair<double, const char*>{0.99, "p99"}})
      os << ",\"" << key << "_" << tag << "_s\":" << it->second.quantile(q);
  }
  os << "},\"metrics\":";
  reg.to_json(os);
  os << "}";
  std::printf("%s\n", os.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  // Parse phase: any malformed flag — non-numeric, trailing garbage,
  // negative where a count is required — reports one line and the usage
  // string, never an uncaught std::invalid_argument out of std::stoi.
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&](const char* what) -> std::string {
        if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
        return argv[++i];
      };
      auto next_int = [&](const char* what, std::int64_t min_value) {
        return tools::parse_int(what, next(what), min_value);
      };
      if (a == "--default-mix") opt.default_mix = static_cast<int>(next_int(a.c_str(), 1));
      else if (a == "--jobs") opt.jobs = static_cast<int>(next_int(a.c_str(), 1));
      else if (a == "--chains") opt.chains = static_cast<int>(next_int(a.c_str(), 1));
      else if (a == "--chain-stages")
        opt.chain_stages = static_cast<int>(next_int(a.c_str(), 2));
      else if (a == "--chain-size") opt.chain_size = next("--chain-size");
      else if (a == "--no-stitch") opt.sched.stitching = false;
      else if (a == "--devices") opt.devices_spec = next("--devices");
      else if (a == "--profile") opt.profile = next("--profile");
      else if (a == "--shard-threshold") {
        opt.sched.shard_threshold = static_cast<Bytes>(next_int(a.c_str(), 1)) * MiB;
      } else if (a == "--max-shards") {
        opt.sched.max_shards = static_cast<int>(next_int(a.c_str(), 1));
      } else if (a == "--reshard-interval") {
        opt.sched.reshard_interval = next_int(a.c_str(), 0);
      }
      else if (a == "--policy") {
        const std::string p = next("--policy");
        if (p == "fifo") opt.sched.queue_policy = sched::QueuePolicy::Fifo;
        else if (p == "priority") opt.sched.queue_policy = sched::QueuePolicy::Priority;
        else if (p == "sjf") opt.sched.queue_policy = sched::QueuePolicy::Sjf;
        else throw Error("unknown policy '" + p + "'");
      } else if (a == "--placement") {
        const std::string p = next("--placement");
        if (p == "least-loaded") opt.sched.placement = sched::PlacementPolicy::LeastLoaded;
        else if (p == "round-robin") opt.sched.placement = sched::PlacementPolicy::RoundRobin;
        else throw Error("unknown placement '" + p + "'");
      } else if (a == "--cap") {
        opt.sched.device_mem_cap = static_cast<Bytes>(next_int(a.c_str(), 1)) * MiB;
      } else if (a == "--queue-capacity") {
        opt.sched.queue_capacity = static_cast<std::size_t>(next_int(a.c_str(), 0));
      } else if (a == "--plan-cache") {
        opt.plan_cache = static_cast<std::size_t>(next_int(a.c_str(), 0));
      } else if (a == "--tune-jobs") {
        opt.tune_jobs = static_cast<int>(next_int(a.c_str(), 0));
      } else if (a == "--bundle") {
        opt.bundle = next("--bundle");
      } else if (a == "--cache-dir") {
        opt.cache_dir = next("--cache-dir");
      } else if (a == "--record") {
        opt.record = true;
      } else if (a == "--record-capacity") {
        opt.record_capacity = static_cast<std::size_t>(next_int(a.c_str(), 1));
      } else if (a == "--sample-every") {
        opt.sched.sample_every = tools::parse_double(a.c_str(), next(a.c_str()), 0.0);
      } else if (a == "--export") {
        const std::string fmt = next("--export");
        if (fmt == "prom") opt.export_prom = true;
        else if (fmt == "jsonl") opt.export_jsonl = true;
        else if (fmt == "spans") opt.export_spans = true;
        else throw Error("unknown export format '" + fmt + "' (prom|jsonl|spans)");
      } else if (a == "--export-dir") {
        opt.export_dir = next("--export-dir");
      } else if (a == "--watchdog-stall") {
        opt.watchdog_stall = tools::parse_double(a.c_str(), next(a.c_str()), 0.0);
      } else if (a == "--watchdog-storm") {
        opt.watchdog_storm = static_cast<int>(next_int(a.c_str(), 1));
      } else if (a == "--watchdog-window") {
        opt.watchdog_window = tools::parse_double(a.c_str(), next(a.c_str()), 0.0);
      } else if (a == "--watchdog-disk-corrupt") {
        opt.watchdog_disk_corrupt = true;
      } else if (a == "--no-solo") opt.solo = false;
      else if (a == "--json") opt.json = true;
      else if (a == "--help" || a == "-h") return usage();
      else if (!a.empty() && a[0] == '-') throw Error("unknown option '" + a + "'");
      else opt.mixfile = a;
    }
    if (opt.jobs > 0 && !opt.mixfile.empty())
      throw Error("--jobs generates its own mix; drop the mix file");
    if (opt.jobs > 0 && opt.chains > 0)
      throw Error("--chains needs functional host arrays; drop --jobs");
    if (opt.export_jsonl) opt.record = true;  // the events file needs the ring
    // Resolve --devices last: a count expands to copies of --profile
    // regardless of flag order; a name list builds a heterogeneous machine.
    opt.machine = tools::parse_device_list("--devices", opt.devices_spec, opt.profile);
    opt.devices = static_cast<int>(opt.machine.size());
    opt.machine_desc = opt.devices_spec.find(',') == std::string::npos
                           ? opt.profile
                           : opt.devices_spec;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpupipe_serve: %s\n", e.what());
    return usage();
  }
  try {
    if (opt.plan_cache) core::PlanCache::instance().set_capacity(*opt.plan_cache);
    if (!opt.cache_dir.empty()) core::PlanCache::instance().set_disk_dir(opt.cache_dir);
    const bool synthetic = opt.jobs > 0;
    // Synthetic tenants have no host arrays: nothing to verify, and a
    // functional solo baseline would allocate the backing the mode avoids.
    if (synthetic) opt.solo = false;

    std::vector<sched::JobMixLine> mix;
    if (synthetic) {
      mix = sched::synthetic_job_mix(opt.jobs);
    } else if (opt.mixfile.empty()) {
      mix = sched::default_job_mix(opt.default_mix);
    } else {
      std::ifstream f(opt.mixfile);
      if (!f) throw Error("cannot open job mix file '" + opt.mixfile + "'");
      mix = sched::parse_job_mix(f);
    }
    if (mix.empty()) throw Error("job mix is empty");

    const gpu::DeviceProfile profile = tools::profile_by_name(opt.profile);

    // AOT bundle preload: plan and estimate artifacts go straight into the
    // plan cache's memory tier; tuned shapes are collected per job
    // template, keyed under this device profile (a bundle compiled for a
    // different device contributes nothing).
    std::map<std::string, std::pair<std::int64_t, int>> bundled;
    if (!opt.bundle.empty()) {
      core::PlanBundle bundle;
      std::string err;
      if (!core::read_bundle_file(opt.bundle, bundle, &err))
        throw Error("cannot load bundle '" + opt.bundle + "': " + err);
      core::PlanCache& cache = core::PlanCache::instance();
      // Keep the whole bundle resident: a preload that exactly fills the LRU
      // tier would evict its own entries as soon as serving inserts anything.
      cache.set_capacity(std::max(cache.capacity(), bundle.artifacts.size() +
                                                        core::PlanCache::kDefaultCapacity));
      const std::size_t admitted = cache.load_bundle(bundle);
      const std::string tune_prefix = core::tune_artifact_key(profile, "");
      for (const auto& art : bundle.artifacts) {
        if (art.kind != core::ArtifactKind::Tune) continue;
        if (art.key.rfind(tune_prefix, 0) != 0) continue;
        bundled[art.key.substr(tune_prefix.size())] = {art.tune.chunk_size,
                                                       art.tune.num_streams};
      }
      if (!opt.json)
        std::printf("bundle: %zu plan entries preloaded, %zu tuned shapes from %s\n",
                    admitted, bundled.size(), opt.bundle.c_str());
    }

    const gpu::ExecMode mode =
        synthetic ? gpu::ExecMode::Modeled : gpu::ExecMode::Functional;
    auto ctx = gpu::make_shared_context();
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::vector<gpu::Gpu*> devices;
    for (int i = 0; i < opt.devices; ++i) {
      gpus.push_back(std::make_unique<gpu::Gpu>(opt.machine[static_cast<std::size_t>(i)],
                                                mode, ctx));
      devices.push_back(gpus.back().get());
      // The span export is the only reader of the devices' timelines.
      if (opt.export_spans) devices.back()->trace().set_enabled(true);
    }

    // Live observability plumbing. All three sinks are owned here and handed
    // to the scheduler as raw pointers; they must be declared before the
    // Scheduler so they outlive run().
    telemetry::FlightRecorder recorder(opt.record_capacity);
    telemetry::TimeSeriesStore series;
    const bool watch = opt.watchdog_stall > 0.0 || opt.watchdog_storm > 0 ||
                       opt.watchdog_disk_corrupt;
    telemetry::WatchdogOptions wopt;
    wopt.stall_timeout = opt.watchdog_stall;
    wopt.deadline_storm_misses = opt.watchdog_storm;
    wopt.deadline_window = opt.watchdog_window;
    wopt.trip_on_disk_corrupt = opt.watchdog_disk_corrupt;
    telemetry::Watchdog watchdog(wopt, opt.record ? &recorder : nullptr);
    if (opt.record) {
      opt.sched.recorder = &recorder;
      // Disk-tier events (recorded from inside the plan cache) carry the
      // shared context's virtual clock, like everything else in the dump.
      recorder.set_clock([ctx] { return ctx->host_time; });
      core::PlanCache::instance().set_recorder(&recorder);
    }
    if (opt.sched.sample_every > 0.0) opt.sched.series = &series;
    if (watch) {
      opt.sched.watchdog = &watchdog;
      // The watchdog is checked at sampling points; arm a default cadence
      // when the user asked for thresholds but not for series.
      if (opt.sched.sample_every <= 0.0) opt.sched.sample_every = 0.001;
      watchdog.on_trip = [&](const telemetry::WatchdogTrip& t) {
        const std::string path = opt.export_dir + "/serve_watchdog_dump.jsonl";
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        if (os) telemetry::export_events_jsonl(os, recorder);
        std::fprintf(stderr,
                     "gpupipe_serve: watchdog trip: %s (value %lld) at t=%.6f s"
                     "%s%s\n",
                     telemetry::trip_reason(t.reason),
                     static_cast<long long>(t.value), t.time,
                     os ? "; flight recorder dumped to " : "",
                     os ? path.c_str() : "");
      };
    }

    std::vector<sched::ServeJob> jobs;
    jobs.reserve(mix.size());
    sched::Scheduler scheduler(devices, opt.sched);
    // One dry-run autotune per distinct app/size template (the mix repeats
    // them), parallel across --tune-jobs workers. The tuner shares the
    // planning cache, so repeated shapes inside one sweep hit too.
    std::map<std::string, std::pair<std::int64_t, int>> tuned;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      jobs.push_back(synthetic ? sched::make_synthetic_job(mix[i], static_cast<int>(i))
                               : sched::make_serve_job(mix[i], static_cast<int>(i)));
      sched::Job& job = jobs.back().job;
      if (opt.tune_jobs) {
        const std::string key = mix[i].app + "/" + mix[i].size;
        auto it = tuned.find(key);
        if (it == tuned.end()) {
          core::TuneOptions topt;
          topt.kernel_cost = core::KernelCostHint{job.flops_per_iter, job.bytes_per_iter};
          topt.tune_jobs = *opt.tune_jobs;
          const core::TuneResult tr =
              core::autotune(*devices[0], job.spec, job.kernel, topt);
          it = tuned.emplace(key, std::make_pair(tr.chunk_size, tr.num_streams)).first;
        }
        job.spec.chunk_size = it->second.first;
        job.spec.num_streams = it->second.second;
      } else if (!bundled.empty()) {
        // No live tuner: submit at the bundle's pre-tuned shape, which is
        // also the shape its preloaded plans were compiled at.
        auto it = bundled.find(mix[i].app + "/" + mix[i].size);
        if (it != bundled.end()) {
          job.spec.chunk_size = it->second.first;
          job.spec.num_streams = it->second.second;
        }
      }
      scheduler.submit(job);
    }
    // Lineage chains ride along after the mix: stage k consumes stage k-1's
    // output, so the scheduler can stitch the intermediate host round-trips
    // into device-resident handoffs. Chains are excluded from the solo
    // baseline (sum_solo covers the mix portion only).
    if (opt.chains > 0) {
      std::vector<sched::ServeJob> chain_jobs = sched::make_chain_jobs(
          opt.chains, opt.chain_stages, opt.chain_size, static_cast<int>(jobs.size()));
      for (sched::ServeJob& cj : chain_jobs) {
        jobs.push_back(std::move(cj));
        scheduler.submit(jobs.back().job);
      }
    }
    const sched::ScheduleReport rep = scheduler.run();
    const Bytes h2d_total = scheduler.total_h2d_bytes();
    const Bytes d2h_total = scheduler.total_d2h_bytes();

    bool ok = true;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (rep.jobs[i].state != sched::JobState::Completed) continue;
      if (!jobs[i].verify()) {
        std::fprintf(stderr, "gpupipe_serve: job %zu (%s) FAILED verification\n", i,
                     rep.jobs[i].name.c_str());
        ok = false;
      }
    }

    SimTime sum_solo = 0.0;
    if (opt.solo)
      for (std::size_t i = 0; i < mix.size(); ++i)
        sum_solo += solo_runtime(mix[i], static_cast<int>(i), profile, jobs[i].job.spec);

    telemetry::Registry reg;
    scheduler.collect_metrics(reg);  // includes the plan_cache.* namespace
    if (opt.json)
      print_json(rep, sum_solo, reg, opt, h2d_total, d2h_total);
    else
      print_human(rep, jobs, sum_solo, reg, opt, h2d_total, d2h_total);
    if (!opt.json && opt.record)
      std::printf("flight recorder: %llu events (%zu retained, %llu dropped)%s\n",
                  static_cast<unsigned long long>(recorder.total_recorded()),
                  recorder.size(),
                  static_cast<unsigned long long>(recorder.dropped()),
                  watch && !watchdog.trips().empty() ? "  [watchdog tripped]" : "");

    // Exports last, from the final state (deterministic: everything above
    // ran on virtual time, so two identical runs write identical bytes).
    auto write_export = [&](const std::string& name, auto&& emit) {
      const std::string path = opt.export_dir + "/" + name;
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      if (!os) throw Error("cannot write export file '" + path + "'");
      emit(os);
      if (!opt.json) std::printf("wrote %s\n", path.c_str());
    };
    if (opt.export_jsonl) {
      write_export("serve_events.jsonl", [&](std::ostream& os) {
        telemetry::export_events_jsonl(os, recorder);
      });
      write_export("serve_series.jsonl", [&](std::ostream& os) {
        telemetry::export_series_jsonl(os, series);
      });
    }
    if (opt.export_prom)
      write_export("serve.prom",
                   [&](std::ostream& os) { telemetry::export_prometheus(os, reg); });
    if (opt.export_spans)
      write_export("serve_spans.jsonl", [&](std::ostream& os) {
        for (std::size_t i = 0; i < devices.size(); ++i)
          telemetry::export_spans_jsonl(os, devices[i]->trace(), static_cast<int>(i));
      });
    core::PlanCache::instance().set_recorder(nullptr);  // recorder dies with main
    return ok ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpupipe_serve: %s\n", e.what());
    return 1;
  }
}
