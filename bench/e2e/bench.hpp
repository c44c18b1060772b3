// Internal interface between gpupipe_bench's translation units.
//
// One Iteration is one pass over a workload's generated inputs in the
// program's own order: set-up (timed as setup_s), the measured phase (timed
// as host_run_s), then the benchmark's correctness checks (untimed). The
// layer replays time single calls into each layer over the workload's
// distinct region specs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "dsl/bind.hpp"
#include "gpu/device_profile.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace gpupipe::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile (q in (0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

/// One distinct region of a workload, as the layer replays feed it: the
/// directive that expresses it, the bound spec, and its cost inputs.
struct RegionSpec {
  std::string directive;
  std::string loop_var;
  dsl::Bindings arrays;
  dsl::Env env;
  core::PipelineSpec spec;
  gpu::DeviceProfile device;
  core::KernelFactory kernel;
  core::DryRunCost cost;
};

/// A kernel factory that only carries roofline cost (Modeled mode).
core::KernelFactory cost_only_kernel(double flops_per_iter, double bytes_per_iter);

/// What one pass over a workload measured.
struct Iteration {
  double setup_s = 0.0;
  double run_s = 0.0;
  /// sim_* metrics and slo_attain_frac, in output order.
  std::vector<std::pair<std::string, double>> sim;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< correctness failures
  /// Per-layer values observed in the pass (counters, totals).
  std::map<std::string, double> layer;
  /// Human-readable per-region lines.
  std::vector<std::string> detail;
  /// Distinct region specs, for the layer replays.
  std::vector<RegionSpec> regions;
};

Iteration run_serve(const ServeInputs& in, SpanRecorder* rec);
Iteration run_paper(const PaperInputs& in, SpanRecorder* rec);

/// Times single calls into each layer over the first 64 `regions` and
/// returns the per-call medians, plus the dsl p99, plan node counts, and
/// autotune candidates. `with_submit` also replays Scheduler::submit, for
/// workloads whose own pass never submits. Front-end round-trip failures
/// land in `errors`.
std::map<std::string, double> replay_layers(const std::vector<RegionSpec>& regions,
                                            bool with_submit, SpanRecorder* rec,
                                            std::vector<std::string>& errors);

}  // namespace gpupipe::e2e
