// gpupipe_compile — ahead-of-time plan compiler for serve fleets.
//
// A serve replica spends its cold start re-tuning and re-planning every job
// template in its mix; a fleet of N replicas repeats that work N times on
// every restart. This tool does the work once, offline: it reads a job mix
// (or the built-in default mix), dry-run autotunes each distinct app/size
// template, plans it at the tuned shape, and serializes everything — the
// compiled+optimized ExecutionPlans, dry-run estimates, and the TuneResults
// themselves — into one versioned bundle file that `gpupipe_serve --bundle`
// loads at startup. All of it is pure cost-model arithmetic on a
// Modeled-mode device: nothing executes, nothing is allocated.
//
// The bundle's cache artifacts are keyed by the same canonical fingerprint
// the plan cache uses (device profile + spec shape), so a bundle compiled
// for one --profile contributes nothing on another — serve simply misses
// and replans. Tuned shapes are likewise keyed per profile.
//
// Usage:
//   gpupipe_compile [mixfile] [--default-mix N] [--profile k40m|hd7970|xeonphi]
//                   [--cap MIB] [--tune-jobs N] [--no-tune] [-o FILE]
//                   [--cache-dir DIR] [--compact] [--json]
//
// --cap mirrors gpupipe_serve's admission cap so shapes are solved under
// the same budget the fleet will use. --no-tune keeps each template's
// declared shape (plan-only bundle). --cache-dir additionally writes the
// bundle's plan and estimate artifacts into a persistent plan-cache
// directory (the same tier GPUPIPE_PLAN_CACHE_DIR enables in the serving
// process); the tuning sweeps' throwaway candidates stay out of it. -o
// defaults to plan_bundle.gpb.
//
// --compact is a maintenance mode: instead of compiling, it garbage-
// collects the --cache-dir directory — quarantined corpses, version-skewed
// records, and orphaned temp files accumulate forever otherwise — and
// prints a report. Current-format records are never touched.
//
// Exit status: 0 on success, 1 on bad usage or failure.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/autotune.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "gpu/device_profile.hpp"
#include "sched/workloads.hpp"
#include "tool_util.hpp"

using namespace gpupipe;

namespace {

struct Options {
  std::string mixfile;
  int default_mix = 10;
  std::string profile = "k40m";
  std::int64_t cap_mib = 0;  ///< 0 = the device's free memory
  int tune_jobs = 0;         ///< autotune workers (0 = one per hw thread)
  bool tune = true;
  std::string output = "plan_bundle.gpb";
  std::string cache_dir;
  bool compact = false;
  bool json = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: gpupipe_compile [mixfile] [--default-mix N]\n"
               "                       [--profile k40m|hd7970|xeonphi] [--cap MIB]\n"
               "                       [--tune-jobs N] [--no-tune] [-o FILE]\n"
               "                       [--cache-dir DIR] [--compact] [--json]\n");
  return 1;
}

/// What one distinct job template compiled to.
struct TemplateResult {
  std::string name;  ///< "app/size"
  std::int64_t chunk_size = 0;
  int num_streams = 0;
  SimTime estimate = 0.0;
  core::TuneResult tune;
  bool tuned = false;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&](const char* what) -> std::string {
        if (i + 1 >= argc) throw Error(std::string(what) + " needs a value");
        return argv[++i];
      };
      if (a == "--default-mix")
        opt.default_mix = static_cast<int>(tools::parse_int(a, next(a.c_str()), 1));
      else if (a == "--profile") opt.profile = next("--profile");
      else if (a == "--cap") opt.cap_mib = tools::parse_int(a, next(a.c_str()), 1);
      else if (a == "--tune-jobs")
        opt.tune_jobs = static_cast<int>(tools::parse_int(a, next(a.c_str()), 0));
      else if (a == "--no-tune") opt.tune = false;
      else if (a == "-o") opt.output = next("-o");
      else if (a == "--cache-dir") opt.cache_dir = next("--cache-dir");
      else if (a == "--compact") opt.compact = true;
      else if (a == "--json") opt.json = true;
      else if (a == "--help" || a == "-h") return usage();
      else if (!a.empty() && a[0] == '-') throw Error("unknown option '" + a + "'");
      else opt.mixfile = a;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpupipe_compile: %s\n", e.what());
    return usage();
  }
  try {
    core::PlanCache& cache = core::PlanCache::instance();
    if (!cache.enabled()) cache.set_capacity(core::PlanCache::kDefaultCapacity);
    if (!opt.cache_dir.empty()) cache.set_disk_dir(opt.cache_dir);

    if (opt.compact) {
      if (opt.cache_dir.empty()) throw Error("--compact requires --cache-dir DIR");
      if (cache.disk_dir().empty())
        throw Error("cache directory '" + opt.cache_dir + "' is unusable");
      const auto rep = cache.compact_disk();
      if (opt.json) {
        std::printf("{\"cache_dir\":\"%s\",\"scanned\":%lld,\"kept\":%lld,"
                    "\"removed_quarantined\":%lld,\"removed_stale\":%lld,"
                    "\"removed_temp\":%lld,\"bytes_reclaimed\":%lld}\n",
                    opt.cache_dir.c_str(), static_cast<long long>(rep.scanned),
                    static_cast<long long>(rep.kept),
                    static_cast<long long>(rep.removed_quarantined),
                    static_cast<long long>(rep.removed_stale),
                    static_cast<long long>(rep.removed_temp),
                    static_cast<long long>(rep.bytes_reclaimed));
      } else {
        std::printf("gpupipe_compile: compacted %s\n", opt.cache_dir.c_str());
        std::printf("  scanned %lld files, kept %lld\n",
                    static_cast<long long>(rep.scanned),
                    static_cast<long long>(rep.kept));
        std::printf("  removed %lld quarantined, %lld stale, %lld temp "
                    "(%lld bytes reclaimed)\n",
                    static_cast<long long>(rep.removed_quarantined),
                    static_cast<long long>(rep.removed_stale),
                    static_cast<long long>(rep.removed_temp),
                    static_cast<long long>(rep.bytes_reclaimed));
      }
      return 0;
    }

    std::vector<sched::JobMixLine> mix;
    if (opt.mixfile.empty()) {
      mix = sched::default_job_mix(opt.default_mix);
    } else {
      std::ifstream f(opt.mixfile);
      if (!f) throw Error("cannot open job mix file '" + opt.mixfile + "'");
      mix = sched::parse_job_mix(f);
    }
    if (mix.empty()) throw Error("job mix is empty");

    const gpu::DeviceProfile profile = tools::profile_by_name(opt.profile);
    // Modeled mode: planning and dry-run tuning never execute or allocate,
    // and host arrays stay unpinned exactly as they are in the serve
    // process — the fingerprints match bit for bit.
    gpu::Gpu g(profile, gpu::ExecMode::Modeled);
    const Bytes cap = opt.cap_mib > 0
                          ? std::min(static_cast<Bytes>(opt.cap_mib) * MiB,
                                     g.device_mem_free())
                          : 0;

    // Phase 1: one dry-run autotune per distinct app/size template (the mix
    // repeats them; the fingerprint depends on the template, not the
    // instance). The sweep floods the cache with hundreds of throwaway
    // candidate-shape entries, so the bundle is NOT exported from this state,
    // and the disk tier is off: a candidate's estimate file on disk would let
    // phase 2 hit it without ever loading that shape's plan into the memory
    // tier, and the bundle would ship without the plan serve needs.
    const std::string disk_dir = cache.disk_dir();
    cache.set_disk_dir("");
    std::map<std::string, TemplateResult> templates;
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const std::string name = mix[i].app + "/" + mix[i].size;
      if (templates.count(name)) continue;
      sched::ServeJob sj = sched::make_serve_job(mix[i], static_cast<int>(i));
      sched::Job& job = sj.job;
      TemplateResult tr;
      tr.name = name;
      if (opt.tune) {
        core::TuneOptions topt;
        topt.dry_run = true;
        topt.kernel_cost = core::KernelCostHint{job.flops_per_iter, job.bytes_per_iter};
        topt.tune_jobs = opt.tune_jobs;
        tr.tune = core::autotune(g, job.spec, job.kernel, topt);
        tr.tuned = true;
        tr.chunk_size = tr.tune.chunk_size;
        tr.num_streams = tr.tune.num_streams;
      } else {
        tr.chunk_size = job.spec.chunk_size;
        tr.num_streams = job.spec.num_streams;
      }
      templates.emplace(name, std::move(tr));
    }

    // Phase 2: drop the sweep's leftovers, then warm the cache exactly the
    // way the scheduler will read it — one estimate per template at its
    // final shape, which solves the shape under the admission cap, and the
    // plan at that solved shape: the estimate and compiled-plan entries the
    // serve process looks up (also written to --cache-dir). Without the clear() the
    // tune sweeps of later templates evict earlier templates' real artifacts
    // from the LRU tier and the exported bundle misses in production.
    cache.clear();
    cache.set_disk_dir(disk_dir);
    cache.set_capacity(std::max(cache.capacity(), templates.size() * 64));
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const std::string name = mix[i].app + "/" + mix[i].size;
      auto it = templates.find(name);
      if (it == templates.end() || it->second.estimate != 0.0) continue;
      TemplateResult& tr = it->second;
      sched::ServeJob sj = sched::make_serve_job(mix[i], static_cast<int>(i));
      sched::Job& job = sj.job;
      job.spec.chunk_size = tr.chunk_size;
      job.spec.num_streams = tr.num_streams;
      core::DryRunCost cost;
      cost.flops_per_iter = job.flops_per_iter;
      cost.bytes_per_iter = job.bytes_per_iter;
      tr.estimate = core::estimate_pipeline_runtime(g, job.spec, cost, cap);
      // An estimate read back from --cache-dir leaves its plan on disk: load
      // the plan at the solved shape too, so the bundle carries it whatever
      // the directory held before.
      const Bytes free = g.device_mem_free();
      const core::SolvedShape solved =
          core::solve_pipeline_shape(g, job.spec, cap == 0 ? free : std::min(cap, free));
      job.spec.chunk_size = solved.chunk_size;
      job.spec.num_streams = solved.num_streams;
      cache.compile(g, job.spec);
    }

    core::PlanBundle bundle;
    cache.export_bundle(bundle);
    const std::size_t cache_artifacts = bundle.artifacts.size();
    for (const auto& [name, tr] : templates) {
      if (!tr.tuned) continue;
      core::PlanArtifact a;
      a.kind = core::ArtifactKind::Tune;
      a.key = core::tune_artifact_key(profile, name);
      a.tune = tr.tune;
      bundle.artifacts.push_back(std::move(a));
    }
    std::string err;
    if (!core::write_bundle_file(opt.output, bundle, &err))
      throw Error("cannot write bundle: " + err);

    if (opt.json) {
      std::ostringstream os;
      os.precision(17);
      os << "{\"profile\":\"" << opt.profile << "\",\"output\":\"" << opt.output
         << "\",\"templates\":[";
      bool first = true;
      for (const auto& [name, tr] : templates) {
        if (!first) os << ",";
        first = false;
        os << "{\"name\":\"" << name << "\",\"chunk_size\":" << tr.chunk_size
           << ",\"num_streams\":" << tr.num_streams << ",\"estimate_s\":" << tr.estimate
           << ",\"tuned\":" << (tr.tuned ? "true" : "false") << "}";
      }
      os << "],\"cache_artifacts\":" << cache_artifacts
         << ",\"tune_artifacts\":" << (bundle.artifacts.size() - cache_artifacts) << "}";
      std::printf("%s\n", os.str().c_str());
    } else {
      std::printf("gpupipe_compile: %zu jobs, %zu distinct templates, profile %s\n",
                  mix.size(), templates.size(), opt.profile.c_str());
      for (const auto& [name, tr] : templates)
        std::printf("  %-18s shape %lldx%d  est %.3f ms%s\n", name.c_str(),
                    static_cast<long long>(tr.chunk_size), tr.num_streams,
                    tr.estimate * 1e3, tr.tuned ? "  (tuned)" : "");
      std::printf("wrote %s: %zu cache artifacts + %zu tuned shapes\n",
                  opt.output.c_str(), cache_artifacts,
                  bundle.artifacts.size() - cache_artifacts);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpupipe_compile: %s\n", e.what());
    return 1;
  }
}
