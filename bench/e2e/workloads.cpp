#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.hpp"

namespace gpupipe::e2e {

namespace {

constexpr std::array<const char*, 3> kApps = {"stream", "stencil", "compute"};
constexpr std::array<const char*, 3> kSizes = {"small", "medium", "large"};

/// One generator stream per (seed, workload): workloads drawn with the same
/// seed do not share draws.
Rng rng_for(std::uint64_t seed, Workload w) {
  std::uint64_t s = seed;
  const std::uint64_t a = splitmix64(s);
  return Rng(a ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(w) + 1)));
}

/// 0, 1, ..., n-1 in a seeded order (Fisher-Yates).
std::vector<std::size_t> permutation(Rng& rng, std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.next_below(i)]);
  return p;
}

/// `n` draws from `values` with a fixed composition — each value appears
/// n / size times, give or take one — in a seeded order. Fixing the
/// composition keeps every seed's offered work the same; the seed decides
/// which job gets what and when it arrives.
template <typename T, std::size_t N>
std::vector<T> balanced(Rng& rng, std::size_t n, const std::array<T, N>& values) {
  std::vector<T> out;
  out.reserve(n);
  for (std::size_t i : permutation(rng, n)) out.push_back(values[i % N]);
  return out;
}

/// `n` open-loop arrivals at `rate` per modelled second: a Poisson process
/// conditioned on n arrivals in [0, n / rate) is n sorted uniform draws.
std::vector<double> poisson_arrivals(Rng& rng, int n, double rate) {
  const double window = n / rate;
  std::vector<double> t(static_cast<std::size_t>(n));
  for (double& x : t) x = rng.uniform(0.0, window);
  std::sort(t.begin(), t.end());
  return t;
}

/// `n` jobs spread evenly over the 9 app x size templates.
std::vector<sched::JobMixLine> template_mix(Rng& rng, int n, double rate) {
  constexpr std::array<int, 9> templates = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<double> arrivals = poisson_arrivals(rng, n, rate);
  const std::vector<int> drawn = balanced(rng, arrivals.size(), templates);
  std::vector<sched::JobMixLine> mix(arrivals.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix[i].app = kApps[static_cast<std::size_t>(drawn[i] % 3)];
    mix[i].size = kSizes[static_cast<std::size_t>(drawn[i] / 3)];
    mix[i].arrival = arrivals[i];
  }
  return mix;
}

std::vector<gpu::DeviceProfile> k40m_pair() { return {gpu::nvidia_k40m(), gpu::nvidia_k40m()}; }

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {Workload::PaperRegions, Workload::ServeSteady,
                                            Workload::ServeDiverse, Workload::ServeBurst,
                                            Workload::ServeChains};
  return all;
}

const char* name_of(Workload w) {
  switch (w) {
    case Workload::PaperRegions: return "paper_regions";
    case Workload::ServeSteady: return "serve_steady";
    case Workload::ServeDiverse: return "serve_diverse";
    case Workload::ServeBurst: return "serve_burst";
    case Workload::ServeChains: return "serve_chains";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : all_workloads())
    if (name == name_of(w)) return w;
  return std::nullopt;
}

ServeInputs make_serve_inputs(Workload w, std::uint64_t seed, bool quick) {
  Rng rng = rng_for(seed, w);
  ServeInputs in;
  switch (w) {
    case Workload::ServeSteady:
      // 200 jobs/s sits below the ~250 jobs/s knee of 2 x K40m.
      in.mix = template_mix(rng, quick ? 400 : 8000, 200.0);
      in.devices = k40m_pair();
      in.slo_s = 0.050;
      break;
    case Workload::ServeDiverse: {
      // Smaller chunks and fewer streams than the templates cost more
      // modelled time per job: 100 jobs/s keeps this mix below its knee.
      in.mix = template_mix(rng, quick ? 300 : 2000, 100.0);
      const std::size_t n = in.mix.size();
      const std::vector<std::int64_t> chunks =
          balanced(rng, n, std::array<std::int64_t, 4>{4, 8, 16, 32});
      const std::vector<int> streams = balanced(rng, n, std::array<int, 4>{1, 2, 3, 4});
      // Rows stratified over [64, 448]: one draw per equal-width stratum.
      const std::vector<std::size_t> stratum = permutation(rng, n);
      for (std::size_t i = 0; i < n; ++i) {
        const double u = (static_cast<double>(stratum[i]) + rng.next_double()) / n;
        in.shapes.push_back({64 + static_cast<std::int64_t>(u * 385.0), chunks[i], streams[i]});
      }
      in.devices = k40m_pair();
      in.slo_s = 0.050;
      break;
    }
    case Workload::ServeBurst:
      // 20k jobs/s: about 75x what 2 x K40m can serve.
      in.mix = template_mix(rng, quick ? 150 : 700, 20000.0);
      in.devices = k40m_pair();
      // Draining 700 jobs at the ~250 jobs/s knee takes 2.8 s; 4 s leaves
      // room for an orderly drain, which the collapse does not deliver.
      in.slo_s = 4.0;
      break;
    case Workload::ServeChains:
      in.mix = template_mix(rng, 9, 1250.0);
      in.chains = quick ? 3 : 10;
      in.functional = true;
      in.devices = {gpu::nvidia_k40m(), gpu::nvidia_k40m(), gpu::amd_hd7970()};
      in.options.shard_threshold = 4 * MiB;
      in.options.reshard_interval = 64;
      in.slo_s = 0.5;
      break;
    case Workload::PaperRegions:
      throw Error("paper_regions is not a serve workload");
  }
  return in;
}

namespace {

Region on(const std::string& tag) {
  Region r;
  r.device_tag = tag;
  r.device = tag == "k40m" ? gpu::nvidia_k40m() : gpu::amd_hd7970();
  return r;
}

Region conv3d_region(const std::string& dev, std::int64_t n) {
  Region r = on(dev);
  r.app = App::Conv3d;
  r.name = "3dconv";
  r.conv3d.ni = r.conv3d.nj = r.conv3d.nk = n;
  return r;
}

Region stencil_region(const std::string& dev, std::int64_t nx, std::int64_t nz, int sweeps,
                      std::int64_t chunk) {
  Region r = on(dev);
  r.app = App::Stencil;
  r.name = "stencil";
  r.stencil.nx = r.stencil.ny = nx;
  r.stencil.nz = nz;
  r.stencil.sweeps = sweeps;
  r.stencil.chunk_size = chunk;
  return r;
}

Region qcd_region(const std::string& dev, std::int64_t n, const char* name) {
  Region r = on(dev);
  r.app = App::Qcd;
  r.name = name;
  r.qcd.n = n;
  r.qcd.passes = 2;
  return r;
}

Region matmul_region(const std::string& dev, std::int64_t n) {
  Region r = on(dev);
  r.app = App::Matmul;
  r.name = "matmul-" + std::to_string(n);
  r.matmul.n = n;
  r.matmul.chunk_cols = std::min<std::int64_t>(512, n);
  r.full_versions_fit = 3 * r.matmul.matrix_bytes() <= r.device.usable_memory();
  return r;
}

/// Scales the work of `r` by about `f`: the split extent of 3dconv and
/// stencil, the lattice extent of qcd by f^(1/4) (work grows as n^4), and
/// the matrix size of matmul by f^(1/3).
Region scaled(Region r, double f) {
  auto scale = [](std::int64_t v, double by, std::int64_t lo) {
    return std::max(lo, static_cast<std::int64_t>(static_cast<double>(v) * by));
  };
  switch (r.app) {
    case App::Conv3d: r.conv3d.ni = scale(r.conv3d.ni, f, 4); break;
    case App::Stencil: r.stencil.nz = scale(r.stencil.nz, f, 4); break;
    case App::Qcd: r.qcd.n = scale(r.qcd.n, std::pow(f, 0.25), 4); break;
    case App::Matmul: r.matmul.n = scale(r.matmul.n, std::cbrt(f), 64); break;
  }
  return r;
}

}  // namespace

PaperInputs make_paper_inputs(std::uint64_t seed, bool quick) {
  Rng rng = rng_for(seed, Workload::PaperRegions);
  const std::string k40m = "k40m", hd7970 = "hd7970";
  PaperInputs in;

  if (quick) {
    in.paper = {stencil_region(k40m, 64, 32, 4, 4), qcd_region(k40m, 12, "qcd-small"),
                qcd_region(hd7970, 12, "qcd-small"), matmul_region(k40m, 1024)};
  } else {
    // Fig. 5 (K40m), Fig. 8 (HD 7970), and Figs. 9/10 (matmul on K40m).
    in.paper = {conv3d_region(k40m, 608), stencil_region(k40m, 256, 64, 50, 4)};
    for (const auto& dev : {k40m, hd7970}) {
      in.paper.push_back(qcd_region(dev, 12, "qcd-small"));
      in.paper.push_back(qcd_region(dev, 24, "qcd-medium"));
      in.paper.push_back(qcd_region(dev, 36, "qcd-large"));
    }
    // Fig. 8: on the HD 7970 one plane per chunk loses to Naive; five
    // chunks sit at the peak of its chunk-count sweep.
    in.paper.push_back(conv3d_region(hd7970, 256));
    in.paper.back().conv3d.chunk_size = 51;
    in.paper.push_back(stencil_region(hd7970, 320, 128, 10, 26));
    for (std::int64_t n : {1024, 2048, 4096, 8192, 10240, 12288, 14336, 20480, 24576})
      in.paper.push_back(matmul_region(k40m, n));
  }

  // Seeded variants of each app, scaled from a mid-sized dataset so the
  // dry-run sweep stays a small share of the run. Each app draws
  // u ~ U(0.5, 1.5), and each device tunes it at the antithetic work scales
  // u and 2 - u: the pair averages the base work, so every seed tunes and
  // runs about as much.
  auto bases = [&](const std::string& dev) {
    return std::array<Region, 4>{
        conv3d_region(dev, quick ? 32 : 128), stencil_region(dev, 128, quick ? 16 : 64, 4, 1),
        qcd_region(dev, quick ? 8 : 16, "qcd"), matmul_region(dev, quick ? 256 : 1024)};
  };
  std::array<double, 4> u{};
  for (double& x : u) x = rng.uniform(0.5, 1.5);
  for (const std::string& dev : {k40m, hd7970}) {
    const std::array<Region, 4> base = bases(dev);
    for (std::size_t i = 0; i < base.size(); ++i) {
      for (double f : {u[i], 2.0 - u[i]}) {
        in.variants.push_back(scaled(base[i], f));
        in.variants.back().name += "-variant";
      }
    }
  }

  // Functional correctness at reduced sizes (one device is enough: the
  // device profile changes timing, never values).
  in.functional = {conv3d_region(k40m, 12), stencil_region(k40m, 16, 12, 2, 2),
                   qcd_region(k40m, 6, "qcd"), matmul_region(k40m, 48)};
  in.functional[3].matmul.chunk_cols = 8;
  return in;
}

}  // namespace gpupipe::e2e
