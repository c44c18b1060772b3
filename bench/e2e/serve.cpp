// The serve_* workloads: one scheduler run over a generated job mix.
#include <limits>
#include <memory>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "common/export.hpp"
#include "core/plan_cache.hpp"
#include "sched/scheduler.hpp"

namespace gpupipe::e2e {

namespace {

/// Sets a diverse job's rows and shape on top of make_synthetic_job's spec.
void apply_shape(sched::ServeJob& sj, const JobShape& s) {
  core::PipelineSpec& spec = sj.job.spec;
  const std::int64_t out_rows = sj.app == "stencil" ? s.rows - 2 : s.rows;
  spec.arrays[0].dims[0] = s.rows;
  spec.arrays[1].dims[0] = out_rows;
  spec.loop_end = out_rows;
  spec.chunk_size = s.chunk_size;
  spec.num_streams = s.num_streams;
  sj.rows = s.rows;
}

std::string affine_text(const core::Affine& a, const std::string& var) {
  std::string s = a.scale == 1 ? var : std::to_string(a.scale) + "*" + var;
  if (a.offset > 0) s += "+" + std::to_string(a.offset);
  if (a.offset < 0) s += std::to_string(a.offset);
  return s;
}

/// The directive that expresses a job spec, so the front end can be timed
/// on the same regions the scheduler serves.
RegionSpec region_of(const sched::Job& job, const gpu::DeviceProfile& device) {
  const core::PipelineSpec& spec = job.spec;
  RegionSpec r;
  r.loop_var = "r";
  r.directive = "pipeline(static[" + std::to_string(spec.chunk_size) + ", " +
                std::to_string(spec.num_streams) + "])";
  for (const core::ArraySpec& a : spec.arrays) {
    r.directive += " pipeline_map(" + std::string(core::to_string(a.map)) + ": " + a.name;
    for (std::size_t d = 0; d < a.dims.size(); ++d) {
      if (static_cast<int>(d) == a.split.dim)
        r.directive += "[" + affine_text(a.split.start, r.loop_var) + ":" +
                       std::to_string(a.split.window) + "]";
      else
        r.directive += "[0:" + std::to_string(a.dims[d]) + "]";
    }
    r.directive += ")";
    r.arrays[a.name] = dsl::HostArray{a.host, a.elem_size, a.dims};
  }
  r.directive += " pipeline_opt(" + std::to_string(spec.opt_level) + ")";
  r.spec = spec;
  r.device = device;
  r.kernel = job.kernel;
  r.cost.flops_per_iter = job.flops_per_iter;
  r.cost.bytes_per_iter = job.bytes_per_iter;
  return r;
}

/// Jobs sharing app, geometry, and shape plan identically; the first 256
/// distinct ones (in submission order, so the draw follows the seed) stand
/// for the workload in the modelled ratios and the replays.
std::vector<RegionSpec> distinct_regions(const std::vector<sched::ServeJob>& jobs,
                                         const gpu::DeviceProfile& device) {
  constexpr std::size_t kMaxRegions = 256;
  std::set<std::string> seen;
  std::vector<RegionSpec> out;
  for (const sched::ServeJob& sj : jobs) {
    const core::PipelineSpec& s = sj.job.spec;
    const std::string key = sj.app + "/" + std::to_string(s.loop_end) + "/" +
                            std::to_string(sj.row_elems) + "/" + std::to_string(s.chunk_size) +
                            "/" + std::to_string(s.num_streams);
    if (!seen.insert(key).second) continue;
    out.push_back(region_of(sj.job, device));
    if (out.size() == kMaxRegions) break;
  }
  return out;
}

/// The paper's two claims on this workload's regions: modelled time and
/// device ring memory of each region at its own shape against naive offload
/// (one chunk covering the loop, one stream), by cost-model dry run.
std::pair<double, double> modelled_ratios(const std::vector<RegionSpec>& regions) {
  gpu::Gpu g(regions.front().device, gpu::ExecMode::Modeled);
  std::vector<double> speedup, mem;
  for (const RegionSpec& r : regions) {
    core::PipelineSpec naive = r.spec;
    naive.chunk_size = naive.iterations();
    naive.num_streams = 1;
    speedup.push_back(core::estimate_pipeline_runtime(g, naive, r.cost) /
                      core::estimate_pipeline_runtime(g, r.spec, r.cost));
    mem.push_back(static_cast<double>(core::predicted_pipeline_footprint(
                      g, r.spec, r.spec.chunk_size, r.spec.num_streams)) /
                  static_cast<double>(
                      core::predicted_pipeline_footprint(g, naive, naive.chunk_size, 1)));
  }
  return {geomean(speedup), geomean(mem)};
}

}  // namespace

Iteration run_serve(const ServeInputs& in, SpanRecorder* rec) {
  using Scope = SpanRecorder::Scope;
  Iteration it;
  core::PlanCache& cache = core::PlanCache::instance();
  cache.clear();  // every pass starts cold, like a fresh process
  cache.reset_stats();
  Scope root(rec, "iteration");

  // --- set-up: machine, scheduler, and the program's jobs from the mix ---
  auto t0 = Clock::now();
  std::shared_ptr<gpu::SharedContext> ctx;
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::unique_ptr<sched::Scheduler> scheduler;
  std::vector<sched::ServeJob> jobs;
  {
    Scope s(rec, "setup");
    ctx = gpu::make_shared_context();
    const gpu::ExecMode mode = in.functional ? gpu::ExecMode::Functional : gpu::ExecMode::Modeled;
    std::vector<gpu::Gpu*> devices;
    for (const gpu::DeviceProfile& p : in.devices) {
      gpus.push_back(std::make_unique<gpu::Gpu>(p, mode, ctx));
      devices.push_back(gpus.back().get());
    }
    scheduler = std::make_unique<sched::Scheduler>(devices, in.options);
    jobs.reserve(in.mix.size() + static_cast<std::size_t>(in.chains * in.chain_stages));
    for (std::size_t i = 0; i < in.mix.size(); ++i) {
      const int id = static_cast<int>(i);
      jobs.push_back(in.functional ? sched::make_serve_job(in.mix[i], id)
                                   : sched::make_synthetic_job(in.mix[i], id));
      if (!in.shapes.empty()) apply_shape(jobs.back(), in.shapes[i]);
    }
    if (in.chains > 0) {
      for (sched::ServeJob& cj : sched::make_chain_jobs(
               in.chains, in.chain_stages, in.chain_size, static_cast<int>(jobs.size())))
        jobs.push_back(std::move(cj));
    }
  }
  it.setup_s = seconds_since(t0);
  it.regions = distinct_regions(jobs, in.devices.front());

  // --- measured: submit loop, run, metrics collection, Prometheus export ---
  sched::ScheduleReport rep;
  telemetry::Registry reg;
  std::string prom;
  t0 = Clock::now();
  {
    auto t = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      Scope s(rec, "sched.submit", static_cast<std::int32_t>(i));
      scheduler->submit(std::move(jobs[i].job));
    }
    it.layer["submit_s"] = seconds_since(t);
    t = Clock::now();
    {
      Scope s(rec, "sched.run");
      rep = scheduler->run();
    }
    it.layer["run_s"] = seconds_since(t);
    {
      Scope s(rec, "sched.collect");
      scheduler->collect_metrics(reg);
    }
    t = Clock::now();
    {
      Scope s(rec, "export");
      std::ostringstream os;
      telemetry::export_prometheus(os, reg);
      prom = os.str();
    }
    it.layer["export.prometheus_ms"] = 1e3 * seconds_since(t);
  }
  it.run_s = seconds_since(t0);

  // --- checks and modelled results (untimed) ---
  std::vector<double> turnaround;
  {
    Scope s(rec, "verify");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const sched::JobRecord& r = rep.jobs[i];
      ++it.attempted;
      if (r.state != sched::JobState::Completed) {
        ++it.failed;
        turnaround.push_back(std::numeric_limits<double>::infinity());
        continue;
      }
      turnaround.push_back(r.turnaround());
      if (!(r.arrival <= r.enqueue_time && r.enqueue_time <= r.start && r.start <= r.finish))
        it.errors.push_back("job " + r.name + ": record times out of order");
      if (!jobs[i].verify()) {
        ++it.failed;
        it.errors.push_back("job " + r.name + ": output differs from the host reference");
      }
    }
  }
  double within = 0.0;
  for (double t : turnaround) within += t <= in.slo_s ? 1.0 : 0.0;
  const auto [speedup, mem_ratio] = modelled_ratios(it.regions);
  it.sim = {{"sim_makespan_s", rep.makespan},
            {"sim_turnaround_p50_s", quantile(turnaround, 0.50)},
            {"sim_turnaround_p99_s", quantile(turnaround, 0.99)},
            {"slo_attain_frac", within / static_cast<double>(turnaround.size())},
            {"sim_speedup_geomean", speedup},
            {"sim_mem_ratio_geomean", mem_ratio}};

  const core::PlanCacheStats pc = cache.stats();
  it.layer["plan_cache.hit_rate"] = pc.hit_rate();
  it.layer["plan_cache.misses"] = static_cast<double>(pc.misses);
  it.layer["plan_cache.evictions"] = static_cast<double>(pc.evictions);
  it.layer["sim.events"] = static_cast<double>(ctx->sim.events_executed());
  it.layer["sched.queue_depth_peak"] = reg.gauge_value("sched.queue_depth_peak");
  for (const char* c : {"admission_retries", "backpressure_events", "sharded_jobs",
                        "shard_rounds", "p2p_halo_bytes", "stitched_bytes", "handoff_fallbacks"})
    it.layer[std::string("sched.") + c] =
        static_cast<double>(reg.counter_value(std::string("sched.") + c));
  it.layer["h2d_bytes"] = static_cast<double>(scheduler->total_h2d_bytes());
  it.layer["d2h_bytes"] = static_cast<double>(scheduler->total_d2h_bytes());
  double util = 0.0;
  for (int d = 0; d < scheduler->num_devices(); ++d)
    util += reg.gauge_value("sched.dev" + std::to_string(d) + ".utilization");
  it.layer["utilization_mean"] = util / scheduler->num_devices();
  it.layer["export.bytes"] = static_cast<double>(prom.size());

  std::ostringstream d;
  d << "serve: " << rep.completed << " completed, " << rep.rejected << " rejected, "
    << rep.stitched_jobs << " stitched, " << reg.counter_value("sched.sharded_jobs")
    << " sharded, " << it.regions.size() << " distinct regions";
  it.detail.push_back(d.str());
  return it;
}

}  // namespace gpupipe::e2e
