// The paper_regions workload: the paper's four applications in their Naive,
// Pipelined, and Pipelined-buffer versions, plus seeded variants that are
// autotuned through the directive front end before they run.
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "common/export.hpp"
#include "core/autotune.hpp"
#include "core/plan_cache.hpp"

namespace gpupipe::e2e {

namespace {

enum class Version { Naive, Pipelined, Buffer };
constexpr const char* kVersionNames[] = {"Naive", "Pipelined", "Pipelined-buffer"};

apps::Measurement run_version(const Region& r, Version v, gpu::Gpu& g,
                              std::vector<double>* out = nullptr) {
  switch (r.app) {
    case App::Conv3d:
      if (v == Version::Naive) return apps::conv3d_naive(g, r.conv3d, out);
      if (v == Version::Pipelined) return apps::conv3d_pipelined(g, r.conv3d, out);
      return apps::conv3d_pipelined_buffer(g, r.conv3d, out);
    case App::Stencil: {
      if (v == Version::Naive) return apps::stencil_naive(g, r.stencil, out);
      if (v == Version::Buffer) return apps::stencil_pipelined_buffer(g, r.stencil, out);
      // The hand-coded pipeline uses OpenACC's default of one queue per
      // subtask and two planes per chunk (§V-C).
      apps::StencilConfig hand = r.stencil;
      hand.num_streams = 8;
      hand.chunk_size = 2;
      return apps::stencil_pipelined(g, hand, out);
    }
    case App::Qcd:
      if (v == Version::Naive) return apps::qcd_naive(g, r.qcd, out);
      if (v == Version::Pipelined) return apps::qcd_pipelined(g, r.qcd, out);
      return apps::qcd_pipelined_buffer(g, r.qcd, out);
    case App::Matmul:
      if (v == Version::Naive) return apps::matmul_baseline(g, r.matmul, out);
      if (v == Version::Pipelined) return apps::matmul_block_shared(g, r.matmul, out);
      return apps::matmul_pipeline_buffer(g, r.matmul, out);
  }
  throw Error("unknown app");
}

bool matches_reference(const Region& r, const std::vector<double>& out) {
  switch (r.app) {
    case App::Conv3d: return out == apps::conv3d_reference(r.conv3d);
    case App::Stencil: return out == apps::stencil_reference(r.stencil);
    case App::Qcd: return out == apps::qcd_reference(r.qcd);
    case App::Matmul: return approx_equal(out, apps::matmul_reference(r.matmul), 1e-12);
  }
  return false;
}

/// The directive each app's Pipelined-buffer version compiles (src/apps),
/// with its per-iteration roofline cost. Array pointers are left null.
RegionSpec directive_of(const Region& r) {
  RegionSpec s;
  s.device = r.device;
  auto array = [&](const char* name, std::vector<std::int64_t> dims) {
    s.arrays[name] = dsl::HostArray{nullptr, sizeof(double), std::move(dims)};
  };
  switch (r.app) {
    case App::Conv3d: {
      const apps::Conv3dConfig& c = r.conv3d;
      s.directive =
          "pipeline(static[C, S]) pipeline_map(to: A[i-1:3][0:nj][0:nk]) "
          "pipeline_map(from: B[i:1][0:nj][0:nk]) pipeline_opt(O)";
      s.loop_var = "i";
      s.spec.loop_begin = 1;
      s.spec.loop_end = c.ni - 1;
      array("A", {c.ni, c.nj, c.nk});
      array("B", {c.ni, c.nj, c.nk});
      s.env = {{"C", c.chunk_size}, {"S", c.num_streams}, {"O", c.opt_level},
               {"nj", c.nj}, {"nk", c.nk}};
      const double elems = static_cast<double>(c.nj * c.nk) * c.model.buffer_overhead;
      s.cost.flops_per_iter = c.model.flops_per_elem * elems;
      s.cost.bytes_per_iter = c.model.bytes_per_elem * elems;
      break;
    }
    case App::Stencil: {
      const apps::StencilConfig& c = r.stencil;
      s.directive =
          "pipeline(static[C, S]) pipeline_map(to: A0[k-1:3][0:ny][0:nx]) "
          "pipeline_map(from: Anext[k:1][0:ny][0:nx]) pipeline_opt(O)";
      s.loop_var = "k";
      s.spec.loop_begin = 1;
      s.spec.loop_end = c.nz - 1;
      array("A0", {c.nz, c.ny, c.nx});
      array("Anext", {c.nz, c.ny, c.nx});
      s.env = {{"C", c.chunk_size}, {"S", c.num_streams}, {"O", c.opt_level},
               {"ny", c.ny}, {"nx", c.nx}};
      const double elems = static_cast<double>(c.ny * c.nx) * c.model.buffer_overhead;
      s.cost.flops_per_iter = c.model.flops_per_elem * elems;
      s.cost.bytes_per_iter = c.model.bytes_per_elem * elems;
      break;
    }
    case App::Qcd: {
      const apps::QcdConfig& c = r.qcd;
      s.directive =
          "pipeline(static[C, S]) pipeline_map(to: psi[t-1:3][0:v]) "
          "pipeline_map(to: U[t-1:2][0:g]) pipeline_map(from: out[t:1][0:v]) pipeline_opt(O)";
      s.loop_var = "t";
      s.spec.loop_begin = 1;
      s.spec.loop_end = c.n - 1;
      array("psi", {c.n, c.spinor_plane()});
      array("U", {c.n, c.gauge_plane()});
      array("out", {c.n, c.spinor_plane()});
      s.env = {{"C", c.chunk_size}, {"S", c.num_streams}, {"O", c.opt_level},
               {"v", c.spinor_plane()}, {"g", c.gauge_plane()}};
      const double sites = static_cast<double>(c.sites_per_t());
      s.cost.flops_per_iter = c.model.flops_per_site * c.model.dslash_apps_per_pass * sites *
                              c.model.buffer_overhead / c.model.efficiency;
      s.cost.bytes_per_iter = 960.0 * sites;
      break;
    }
    case App::Matmul: {
      const apps::MatmulConfig& c = r.matmul;
      s.directive =
          "pipeline(static[C, S]) pipeline_map(to: A[0:n][k:1]) "
          "pipeline_map(to: B[k:1][0:n]) pipeline_opt(O)";
      s.loop_var = "k";
      s.spec.loop_begin = 0;
      s.spec.loop_end = c.n;
      array("A", {c.n, c.n});
      array("B", {c.n, c.n});
      s.env = {{"C", c.chunk_cols}, {"S", c.num_streams}, {"O", c.opt_level}, {"n", c.n}};
      const double pairs = static_cast<double>(c.n * c.n) * c.model.buffer_overhead;
      s.cost.flops_per_iter = 2.0 * pairs;
      s.cost.bytes_per_iter = 16.0 * pairs / c.model.tile;
      break;
    }
  }
  s.kernel = cost_only_kernel(s.cost.flops_per_iter, s.cost.bytes_per_iter);
  return s;
}

void compile(RegionSpec& s) {
  s.spec = dsl::compile(s.directive, s.loop_var, s.spec.loop_begin, s.spec.loop_end, s.arrays,
                        s.env);
}

/// Fake host addresses, 32 GiB apart: Modeled devices never dereference
/// them, and the largest array (24576^2 doubles) fits between two.
void bind_placeholders(RegionSpec& s, std::uintptr_t& next) {
  for (auto& [name, a] : s.arrays) {
    a.ptr = reinterpret_cast<std::byte*>(next);
    next += std::uintptr_t{1} << 35;
  }
}

Region with_shape(Region r, std::int64_t chunk, int streams) {
  switch (r.app) {
    case App::Conv3d: r.conv3d.chunk_size = chunk; r.conv3d.num_streams = streams; break;
    case App::Stencil: r.stencil.chunk_size = chunk; r.stencil.num_streams = streams; break;
    case App::Qcd: r.qcd.chunk_size = chunk; r.qcd.num_streams = streams; break;
    case App::Matmul: r.matmul.chunk_cols = chunk; r.matmul.num_streams = streams; break;
  }
  return r;
}

struct RegionRuns {
  const Region* region = nullptr;
  std::optional<apps::Measurement> naive, pipelined;
  apps::Measurement buffer;
};

std::int64_t elements(const std::vector<std::int64_t>& dims) {
  std::int64_t n = 1;
  for (std::int64_t d : dims) n *= d;
  return n;
}

}  // namespace

Iteration run_paper(const PaperInputs& in, SpanRecorder* rec) {
  using Scope = SpanRecorder::Scope;
  Iteration it;
  core::PlanCache& cache = core::PlanCache::instance();
  cache.clear();  // every pass starts cold, like a fresh process
  cache.reset_stats();
  Scope root(rec, "iteration");

  // --- set-up: tuning devices, host arrays, and the variants' directives ---
  auto t0 = Clock::now();
  std::map<std::string, std::unique_ptr<gpu::Gpu>> tuners;
  std::vector<std::unique_ptr<apps::HostArray<double>>> host;
  std::vector<RegionSpec> variant_specs;
  {
    Scope s(rec, "setup");
    for (const Region& v : in.variants) {
      std::unique_ptr<gpu::Gpu>& g = tuners[v.device_tag];
      if (!g) g = std::make_unique<gpu::Gpu>(v.device, gpu::ExecMode::Modeled);
      RegionSpec rs = directive_of(v);
      for (auto& [name, a] : rs.arrays) {
        host.push_back(std::make_unique<apps::HostArray<double>>(*g, elements(a.dims)));
        a.ptr = host.back()->bytes();
      }
      Scope d(rec, "dsl");
      compile(rs);
      variant_specs.push_back(std::move(rs));
    }
  }
  it.setup_s = seconds_since(t0);

  // --- measured: autotune the variants, then every region run ---
  double apps_s = 0.0;
  std::uint64_t events = 0;
  auto run = [&](const Region& r, Version v) {
    Scope s(rec, "apps");
    const auto t = Clock::now();
    gpu::Gpu g(r.device, gpu::ExecMode::Modeled);
    apps::Measurement m = run_version(r, v, g);
    events += g.simulator().events_executed();
    apps_s += seconds_since(t);
    ++it.attempted;
    return m;
  };
  std::vector<core::TuneResult> tunes;
  std::vector<RegionRuns> paper_runs, variant_runs;
  telemetry::Registry reg;
  std::string prom;
  t0 = Clock::now();
  {
    for (std::size_t i = 0; i < in.variants.size(); ++i) {
      const RegionSpec& rs = variant_specs[i];
      core::TuneOptions opt;
      opt.dry_run = true;
      opt.kernel_cost = core::KernelCostHint{rs.cost.flops_per_iter, rs.cost.bytes_per_iter};
      opt.tune_jobs = 1;
      core::TuneResult tr;
      {
        Scope s(rec, "core.autotune");
        tr = core::autotune(*tuners.at(in.variants[i].device_tag), rs.spec, rs.kernel, opt);
      }
      ++it.attempted;
      const Region tuned = with_shape(in.variants[i], tr.chunk_size, tr.num_streams);
      variant_runs.push_back({&in.variants[i], run(in.variants[i], Version::Naive), std::nullopt,
                              run(tuned, Version::Buffer)});
      tunes.push_back(std::move(tr));
    }
    for (const Region& r : in.paper) {
      RegionRuns rr{&r, std::nullopt, std::nullopt, {}};
      if (r.full_versions_fit) {
        rr.naive = run(r, Version::Naive);
        rr.pipelined = run(r, Version::Pipelined);
      }
      rr.buffer = run(r, Version::Buffer);
      paper_runs.push_back(std::move(rr));
    }
    Scope s(rec, "export");
    const auto t = Clock::now();
    for (const RegionRuns& rr : paper_runs) {
      const std::string p = "region." + rr.region->name + "." + rr.region->device_tag + ".";
      if (rr.naive) {
        reg.gauge(p + "speedup").set(rr.naive->seconds / rr.buffer.seconds);
        reg.gauge(p + "mem_ratio")
            .set(static_cast<double>(rr.buffer.reported_device_mem) /
                 static_cast<double>(rr.naive->reported_device_mem));
      }
      reg.gauge(p + "overlap_efficiency").set(rr.buffer.overlap_efficiency);
      reg.counter(p + "h2d_bytes").add(static_cast<std::int64_t>(rr.buffer.h2d_bytes));
    }
    cache.collect_metrics(reg);
    std::ostringstream os;
    telemetry::export_prometheus(os, reg);
    prom = os.str();
    it.layer["export.prometheus_ms"] = 1e3 * seconds_since(t);
  }
  it.run_s = seconds_since(t0);
  const core::PlanCacheStats pc = cache.stats();

  // --- checks (untimed): reduced sizes in Functional mode ---
  {
    Scope s(rec, "verify");
    for (const Region& r : in.functional) {
      for (Version v : {Version::Naive, Version::Pipelined, Version::Buffer}) {
        gpu::Gpu g(r.device, gpu::ExecMode::Functional);
        std::vector<double> out;
        run_version(r, v, g, &out);
        ++it.attempted;
        if (!matches_reference(r, out)) {
          ++it.failed;
          it.errors.push_back("functional " + r.name + " " +
                              kVersionNames[static_cast<int>(v)] +
                              ": output differs from the host reference");
        }
      }
    }
  }

  // --- modelled results ---
  double makespan = 0.0, h2d = 0.0, d2h = 0.0, kernel_s = 0.0;
  for (const auto* runs : {&variant_runs, &paper_runs}) {
    for (const RegionRuns& rr : *runs) {
      for (const apps::Measurement* m :
           {rr.naive ? &*rr.naive : nullptr, rr.pipelined ? &*rr.pipelined : nullptr,
            &rr.buffer}) {
        if (!m) continue;
        makespan += m->seconds;
        h2d += static_cast<double>(m->h2d_bytes);
        d2h += static_cast<double>(m->d2h_bytes);
        kernel_s += m->kernel_time;
      }
    }
  }
  // A unit of work is a tuned variant: a region autotuned through its
  // directive, then run at the tuned shape. The paper-size regions are the
  // same for every seed; they carry the speedup and memory claims instead.
  std::vector<double> turnaround, speedup, mem;
  double within = 0.0;
  for (const RegionRuns& rr : variant_runs) {
    turnaround.push_back(rr.buffer.seconds);
    within += rr.buffer.seconds <= rr.naive->seconds ? 1.0 : 0.0;
  }
  for (const RegionRuns& rr : paper_runs) {
    char line[200];
    if (rr.naive) {
      speedup.push_back(rr.naive->seconds / rr.buffer.seconds);
      mem.push_back(static_cast<double>(rr.buffer.reported_device_mem) /
                    static_cast<double>(rr.naive->reported_device_mem));
      std::snprintf(line, sizeof line,
                    "region %s %s: naive %.4f s, pipelined %.4f s, buffer %.4f s, "
                    "speedup %.3fx, mem ratio %.3f",
                    rr.region->name.c_str(), rr.region->device_tag.c_str(), rr.naive->seconds,
                    rr.pipelined->seconds, rr.buffer.seconds, speedup.back(), mem.back());
    } else {
      std::snprintf(line, sizeof line, "region %s %s: buffer %.4f s (full versions do not fit)",
                    rr.region->name.c_str(), rr.region->device_tag.c_str(), rr.buffer.seconds);
    }
    it.detail.push_back(line);
  }
  for (std::size_t i = 0; i < tunes.size(); ++i) {
    char line[200];
    const Region& v = in.variants[i];
    std::snprintf(line, sizeof line,
                  "variant %s %s: %lld iterations, tuned to %lld x %d over %zu candidates, "
                  "buffer %.4f s",
                  v.name.c_str(), v.device_tag.c_str(),
                  static_cast<long long>(variant_specs[i].spec.iterations()),
                  static_cast<long long>(tunes[i].chunk_size), tunes[i].num_streams,
                  tunes[i].explored.size(), variant_runs[i].buffer.seconds);
    it.detail.push_back(line);
  }
  it.sim = {{"sim_makespan_s", makespan},
            {"sim_turnaround_p50_s", quantile(turnaround, 0.50)},
            {"sim_turnaround_p99_s", quantile(turnaround, 0.99)},
            {"slo_attain_frac", within / static_cast<double>(variant_runs.size())},
            {"sim_speedup_geomean", geomean(speedup)},
            {"sim_mem_ratio_geomean", geomean(mem)}};

  it.layer["run_s"] = apps_s;
  it.layer["sim.events"] = static_cast<double>(events);
  it.layer["plan_cache.hit_rate"] = pc.hit_rate();
  it.layer["plan_cache.misses"] = static_cast<double>(pc.misses);
  it.layer["plan_cache.evictions"] = static_cast<double>(pc.evictions);
  it.layer["h2d_bytes"] = h2d;
  it.layer["d2h_bytes"] = d2h;
  it.layer["utilization_mean"] = kernel_s / makespan;
  it.layer["export.bytes"] = static_cast<double>(prom.size());

  // Replay inputs: every region at its own dataset and default shape.
  std::uintptr_t next = 0x600000000000ull;
  for (const auto* regions : {&in.paper, &in.variants}) {
    for (const Region& r : *regions) {
      RegionSpec rs = directive_of(r);
      bind_placeholders(rs, next);
      compile(rs);
      it.regions.push_back(std::move(rs));
    }
  }
  return it;
}

}  // namespace gpupipe::e2e
