// Seeded workload generators for gpupipe_bench.
//
// The seed arrives only through --seed; everything the program under test
// receives — job-mix lines, per-job shape overrides, region configurations —
// is generated here from it, so one seed always yields identical inputs.
// Arrivals are open-loop: N arrivals of a Poisson process of rate `rate`
// conditioned on the window N / rate (sorted uniform draws), which keeps the
// offered load of every seed identical while the arrival pattern varies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/conv3d.hpp"
#include "apps/matmul.hpp"
#include "apps/qcd.hpp"
#include "apps/stencil.hpp"
#include "gpu/device_profile.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"

namespace gpupipe::e2e {

enum class Workload { PaperRegions, ServeSteady, ServeDiverse, ServeBurst, ServeChains };

/// Every workload, in the order --all runs them.
const std::vector<Workload>& all_workloads();
const char* name_of(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

// --- serve_* workloads ---

/// Shape set on top of make_synthetic_job's spec (serve_diverse only). Rows
/// stay at or below 448, so the largest template's slab fits the 16 MiB
/// placeholder window make_synthetic_job reserves per array.
struct JobShape {
  std::int64_t rows = 0;
  std::int64_t chunk_size = 0;
  int num_streams = 0;
};

struct ServeInputs {
  std::vector<sched::JobMixLine> mix;
  std::vector<JobShape> shapes;  ///< one per mix line, or empty
  /// Lineage chains appended after the mix (make_chain_jobs).
  int chains = 0;
  int chain_stages = 4;
  std::string chain_size = "medium";
  /// Functional mode runs kernels and verifies outputs; Modeled mode uses
  /// make_synthetic_job (no host arrays).
  bool functional = false;
  std::vector<gpu::DeviceProfile> devices;
  sched::SchedulerOptions options;
  /// Turnaround limit behind slo_attain_frac (modelled seconds).
  double slo_s = 0.0;
};

ServeInputs make_serve_inputs(Workload w, std::uint64_t seed, bool quick);

// --- paper_regions ---

enum class App { Conv3d, Stencil, Qcd, Matmul };

/// One region of the paper's evaluation on one device. Only the config of
/// `app` is meaningful.
struct Region {
  App app = App::Stencil;
  std::string name;  ///< "3dconv", "stencil", "qcd-large", "matmul-8192", ...
  std::string device_tag;  ///< "k40m" | "hd7970"
  gpu::DeviceProfile device;
  apps::Conv3dConfig conv3d;
  apps::StencilConfig stencil;
  apps::QcdConfig qcd;
  apps::MatmulConfig matmul;
  /// False where the full-allocation versions exceed device memory (the
  /// largest Fig. 9/10 matrices): only Pipelined-buffer runs there.
  bool full_versions_fit = true;
};

struct PaperInputs {
  /// The paper's datasets (Figs. 5, 8, 9/10): Naive, Pipelined, and
  /// Pipelined-buffer each run once, in Modeled mode.
  std::vector<Region> paper;
  /// Seeded variants (work scaled by u and 2 - u, u ~ U(0.5, 1.5)):
  /// autotuned by dry run, then run Pipelined-buffer at the tuned shape and
  /// Naive.
  std::vector<Region> variants;
  /// Reduced sizes run in Functional mode and checked against the host
  /// references.
  std::vector<Region> functional;
};

PaperInputs make_paper_inputs(std::uint64_t seed, bool quick);

}  // namespace gpupipe::e2e
