// Layer replays: single calls into each layer, timed one by one over a
// workload's distinct regions. The workload's own pass cannot separate
// these costs (planning happens inside submit, run, and the region
// functions), so the traced run measures them here from outside.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/autotune.hpp"
#include "core/layout.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_opt.hpp"
#include "sched/admission.hpp"
#include "sched/scheduler.hpp"

namespace gpupipe::e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

core::KernelFactory cost_only_kernel(double flops_per_iter, double bytes_per_iter) {
  return [flops_per_iter, bytes_per_iter](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    const double iters = static_cast<double>(ctx.iterations());
    k.flops = flops_per_iter * iters;
    k.bytes = static_cast<Bytes>(bytes_per_iter * iters);
    return k;
  };
}

namespace {

/// Ring lengths and pinned-ness exactly as PlanCache::compile derives them.
core::PipelineBuildState build_state(const gpu::Gpu& g, const core::PipelineSpec& spec) {
  core::PipelineBuildState st;
  for (const core::ArraySpec& a : spec.arrays) {
    st.ring_lens.push_back(
        std::min(core::layout::ring_len_for_spec(a, spec.loop_begin, spec.loop_end,
                                                 spec.chunk_size, spec.num_streams),
                 a.dims[static_cast<std::size_t>(a.split.dim)]));
    st.pinned.push_back(g.is_pinned(a.host));
  }
  return st;
}

/// Times `fn` under a span named `layer`; appends microseconds to `out`.
template <typename Fn>
void timed(SpanRecorder* rec, const char* layer, std::vector<double>& out, Fn&& fn) {
  SpanRecorder::Scope s(rec, layer);
  const auto t = Clock::now();
  fn();
  out.push_back(1e6 * seconds_since(t));
}

}  // namespace

std::map<std::string, double> replay_layers(const std::vector<RegionSpec>& all,
                                            bool with_submit, SpanRecorder* rec,
                                            std::vector<std::string>& errors) {
  SpanRecorder::Scope root(rec, "replay");
  const std::vector<RegionSpec> regions(all.begin(),
                                        all.begin() + std::min<std::ptrdiff_t>(64, all.size()));
  // One Modeled device per profile; half of each device's memory is
  // committed so admission solves against a partly used budget.
  std::map<std::string, std::unique_ptr<gpu::Gpu>> devices;
  std::map<std::string, std::unique_ptr<sched::AdmissionController>> admission;
  for (const RegionSpec& r : regions) {
    if (devices.count(r.device.name)) continue;
    auto g = std::make_unique<gpu::Gpu>(r.device, gpu::ExecMode::Modeled);
    auto ac = std::make_unique<sched::AdmissionController>(std::vector<gpu::Gpu*>{g.get()}, 0);
    ac->commit(0, ac->cap(0) / 2);
    admission[r.device.name] = std::move(ac);
    devices[r.device.name] = std::move(g);
  }

  // At least 200 calls per layer, so the p99 of dsl::compile has samples.
  const std::size_t rounds = std::max<std::size_t>(1, (200 + regions.size() - 1) / regions.size());
  std::vector<double> dsl_us, build_us, opt_us, validate_us, dry_us, fp_us, miss_us, hit_us,
      construct_us, enqueue_us, admit_us, nodes;
  core::PlanCache private_cache;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const RegionSpec& r : regions) {
      gpu::Gpu& g = *devices.at(r.device.name);
      const core::PipelineSpec& spec = r.spec;
      const std::int64_t c = spec.chunk_size;
      const int s = spec.num_streams;

      core::PipelineSpec parsed;
      timed(rec, "dsl", dsl_us, [&] {
        parsed = dsl::compile(r.directive, r.loop_var, spec.loop_begin, spec.loop_end, r.arrays,
                              r.env);
      });
      if (round == 0 && core::PlanCache::fingerprint(g, parsed, c, s) !=
                            core::PlanCache::fingerprint(g, spec, c, s))
        errors.push_back("directive round trip changed the plan of: " + r.directive);

      const core::PipelineBuildState state = build_state(g, spec);
      core::ExecutionPlan built;
      timed(rec, "core.plan.build", build_us, [&] {
        built = core::PlanBuilder::pipeline(spec, c, s, spec.loop_begin, spec.loop_end, state);
      });
      core::ExecutionPlan plan = built;
      timed(rec, "core.plan.optimize", opt_us,
            [&] { core::optimize_plan(plan, spec.opt_level, &g.profile(), r.cost); });
      timed(rec, "core.plan.validate", validate_us, [&] { plan.validate(); });
      timed(rec, "core.plan.dry_run", dry_us, [&] { core::dry_run(plan, g.profile(), r.cost); });
      nodes.push_back(static_cast<double>(plan.nodes.size()));
      timed(rec, "core.plan.fingerprint", fp_us,
            [&] { core::PlanCache::fingerprint(g, spec, c, s); });

      private_cache.clear();
      timed(rec, "core.plan_cache.miss", miss_us, [&] { private_cache.compile(g, spec); });
      timed(rec, "core.plan_cache.hit", hit_us, [&] { private_cache.compile(g, spec); });

      std::unique_ptr<core::Pipeline> p;
      timed(rec, "core.pipeline.construct", construct_us,
            [&] { p = std::make_unique<core::Pipeline>(g, spec); });
      timed(rec, "core.pipeline.enqueue", enqueue_us, [&] { p->enqueue(r.kernel); });
      p->wait();
      p.reset();

      const sched::AdmissionController& ac = *admission.at(r.device.name);
      timed(rec, "sched.admission", admit_us, [&] { ac.try_admit(0, spec); });
    }
  }

  std::map<std::string, double> out = {
      {"dsl.compile_us_p50", quantile(dsl_us, 0.50)},
      {"dsl.compile_us_p99", quantile(dsl_us, 0.99)},
      {"plan.build_us", median(build_us)},
      {"plan.optimize_us", median(opt_us)},
      {"plan.validate_us", median(validate_us)},
      {"plan.dry_run_us", median(dry_us)},
      {"plan.nodes", median(nodes)},
      {"plan.fingerprint_us", median(fp_us)},
      {"plan_cache.miss_us", median(miss_us)},
      {"plan_cache.hit_us", median(hit_us)},
      {"pipeline.construct_us", median(construct_us)},
      {"pipeline.enqueue_us", median(enqueue_us)},
      {"admission.try_admit_us", median(admit_us)},
  };

  // Dry-run autotune of the first four regions, one worker.
  std::vector<double> tune_ms, candidates;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, regions.size()); ++i) {
    const RegionSpec& r = regions[i];
    core::TuneOptions opt;
    opt.dry_run = true;
    opt.kernel_cost = core::KernelCostHint{r.cost.flops_per_iter, r.cost.bytes_per_iter};
    opt.tune_jobs = 1;
    std::vector<double> us;
    core::TuneResult tr;
    timed(rec, "core.autotune", us,
          [&] { tr = core::autotune(*devices.at(r.device.name), r.spec, r.kernel, opt); });
    tune_ms.push_back(us.back() / 1e3);
    candidates.push_back(static_cast<double>(tr.explored.size()));
  }
  out["autotune.region_ms"] = median(tune_ms);
  out["autotune.candidates"] = median(candidates);

  if (with_submit) {
    // A workload without a scheduler of its own: its regions as jobs on one
    // device, timing the dry-run estimate and intake every submit pays.
    gpu::Gpu& g = *devices.begin()->second;
    sched::Scheduler scheduler({&g});
    std::vector<double> submit_us;
    for (std::size_t round = 0; round < rounds; ++round) {
      for (const RegionSpec& r : regions) {
        sched::Job job;
        job.spec = r.spec;
        job.kernel = r.kernel;
        job.flops_per_iter = r.cost.flops_per_iter;
        job.bytes_per_iter = r.cost.bytes_per_iter;
        timed(rec, "sched.submit", submit_us, [&] { scheduler.submit(std::move(job)); });
      }
    }
    out["submit_us_p50"] = quantile(submit_us, 0.50);
    out["submit_us_p99"] = quantile(submit_us, 0.99);
  }
  return out;
}

}  // namespace gpupipe::e2e
