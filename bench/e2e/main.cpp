// gpupipe_bench — the end-to-end benchmark: one workload per process.
//
// Usage:
//   gpupipe_bench --workload NAME --seed S [--seconds N] [--trace 0|1]
//                 [--quick] [--out DIR]
//
// Workloads: paper_regions, serve_steady, serve_diverse, serve_burst,
// serve_chains (README.md says what each stresses and why). --seed derives
// the seeds of 16 instances of the workload (2 with --quick, which also
// shrinks every instance to a fraction of a second). Passes cycle through
// the instances for --seconds of host time, covering each at least once
// (twice with --quick); every pass's outputs are checked, and a repeated
// instance must reproduce its sim_* metrics bit for bit. host_run_s is the
// 10th percentile of the pass times and setup_s their median; sim_* metrics
// are means over the instances.
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 pairs each untraced pass with a traced pass over the same
// instance, replays each layer over the workload's distinct regions, and
// reports the per-layer metrics; a traced pass must reproduce the untraced
// sim_* metrics exactly.
//
// Every metric is printed as "metric NAME VALUE UNIT". The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {NAME: {"value", "unit"}}}. With --out, the full result goes
// to DIR/<workload>-seed<S>[-trace].json and, traced, the recorded spans to
// DIR/<workload>-seed<S>.spans.jsonl. Exit status: 0 when every check
// passed, 1 when a check failed, 2 on bad usage.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "common/export.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"

using namespace gpupipe;
using namespace gpupipe::e2e;

namespace {

struct Options {
  Workload workload = Workload::ServeSteady;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  std::string out;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Modelled seconds carry the unit "sim_s", host seconds "s".
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_run_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_makespan_s", "sim_s"},
    {"sim_turnaround_p50_s", "sim_s"},
    {"sim_turnaround_p99_s", "sim_s"},
    {"slo_attain_frac", "frac"},
    {"sim_speedup_geomean", "x"},
    {"sim_mem_ratio_geomean", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"dsl.compile_us_p50", "us"},
    {"dsl.compile_us_p99", "us"},
    {"plan.build_us", "us"},
    {"plan.optimize_us", "us"},
    {"plan.validate_us", "us"},
    {"plan.dry_run_us", "us"},
    {"plan.nodes", "count"},
    {"plan.fingerprint_us", "us"},
    {"plan_cache.hit_us", "us"},
    {"plan_cache.miss_us", "us"},
    {"plan_cache.hit_rate", "frac"},
    {"plan_cache.misses", "count"},
    {"plan_cache.evictions", "count"},
    {"autotune.region_ms", "ms"},
    {"autotune.candidates", "count"},
    {"submit_us_p50", "us"},
    {"submit_us_p99", "us"},
    {"submit_s", "s"},
    {"admission.try_admit_us", "us"},
    {"sched.admission_retries", "count"},
    {"sched.backpressure_events", "count"},
    {"pipeline.construct_us", "us"},
    {"pipeline.enqueue_us", "us"},
    {"sim.events", "count"},
    {"sched.queue_depth_peak", "count"},
    {"run_s", "s"},
    {"run_ns_per_event", "ns"},
    {"sched.stitched_bytes", "bytes"},
    {"sched.p2p_halo_bytes", "bytes"},
    {"sched.handoff_fallbacks", "count"},
    {"sched.sharded_jobs", "count"},
    {"sched.shard_rounds", "count"},
    {"h2d_bytes", "bytes"},
    {"d2h_bytes", "bytes"},
    {"utilization_mean", "frac"},
    {"export.prometheus_ms", "ms"},
    {"export.bytes", "bytes"},
    {"self_ms.setup", "ms"},
    {"self_ms.dsl", "ms"},
    {"self_ms.core.autotune", "ms"},
    {"self_ms.apps", "ms"},
    {"self_ms.sched.submit", "ms"},
    {"self_ms.sched.run", "ms"},
    {"self_ms.sched.collect", "ms"},
    {"self_ms.export", "ms"},
    {"self_ms.verify", "ms"},
    {"self_ms.iteration", "ms"},
    {"trace_overhead_frac", "frac"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "gpupipe_bench: %s\n"
               "usage: gpupipe_bench --workload NAME --seed S [--seconds N] [--trace 0|1]\n"
               "                     [--quick] [--out DIR]\n"
               "workloads: paper_regions serve_steady serve_diverse serve_burst serve_chains\n",
               why);
  return 2;
}

/// JSON number with every digit. A rejected job's turnaround is +inf, which
/// JSON cannot spell; it is written as the largest finite double.
std::string json_number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  return telemetry::format_double(v);
}

/// Load from other processes only ever adds time to a pass, and on a shared
/// machine it comes in bursts lasting seconds to minutes; the 10th
/// percentile of the pass times tracks the program's own cost more steadily
/// than the median, without resting on the single fastest pass.
double fast_pass_time(const std::vector<double>& v) { return quantile(v, 0.10); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Everything the passes of one run accumulate.
struct Run {
  explicit Run(std::size_t instances) : first(instances) {}

  std::vector<double> setup_s, host_run_s, traced_run_s;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  /// Each instance's first untraced pass: its sim_* reference.
  std::vector<std::optional<Iteration>> first;
  std::optional<Iteration> traced;  ///< the first traced pass

  /// Folds in one pass over `instance`; its sim_* metrics must equal those
  /// of the instance's first pass bit for bit.
  void add(Iteration it, std::size_t instance, bool with_trace) {
    attempted += it.attempted;
    failed += it.failed;
    for (std::string& e : it.errors) errors.push_back(std::move(e));
    (with_trace ? traced_run_s : host_run_s).push_back(it.run_s);
    if (!with_trace) setup_s.push_back(it.setup_s);
    std::optional<Iteration>& ref = first[instance];
    if (ref) {
      for (std::size_t i = 0; i < it.sim.size(); ++i)
        if (std::memcmp(&it.sim[i].second, &ref->sim[i].second, sizeof(double)) != 0)
          errors.push_back(it.sim[i].first + " differs between passes of one instance" +
                           (with_trace ? " (traced pass)" : "") + ": " +
                           json_number(ref->sim[i].second) + " vs " +
                           json_number(it.sim[i].second));
    }
    if (!with_trace && !ref)
      ref = std::move(it);
    else if (with_trace && !traced)
      traced = std::move(it);
  }

  /// Each sim_* metric averaged over the instances that ran.
  std::map<std::string, double> sim_means() const {
    std::map<std::string, double> sum;
    int n = 0;
    for (const std::optional<Iteration>& it : first) {
      if (!it) continue;
      ++n;
      for (const auto& [name, v] : it->sim) sum[name] += v;
    }
    for (auto& [name, v] : sum) v /= n;
    return sum;
  }
};

bool parse(int argc, char** argv, Options& o, std::string& err) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--quick") {
      o.quick = true;
      continue;
    }
    const char* v = value();
    if (!v) return err = a + " needs a value", false;
    char* end = nullptr;
    if (a == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return err = std::string("unknown workload '") + v + "'", false;
      o.workload = *w;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '-' || end == v || *end) return err = "--seed needs a whole number", false;
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (end == v || *end || !(o.seconds >= 0.0 && o.seconds <= 3600.0))
        return err = "--seconds needs a number in [0, 3600]", false;
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return err = "--trace takes 0 or 1", false;
      o.trace = *v == '1';
    } else if (a == "--out") {
      o.out = v;
    } else {
      return err = "unknown option '" + a + "'", false;
    }
  }
  if (!have_workload || !have_seed) return err = "--workload and --seed are required", false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string err;
  if (!parse(argc, argv, o, err)) return usage(err.c_str());

  // Pin the planning cache to its defaults: no environment override, no
  // disk tier, so every pass starts from the same empty memory cache.
  core::PlanCache::instance().set_capacity(core::PlanCache::kDefaultCapacity);
  core::PlanCache::instance().set_disk_dir("");

  // Every run covers several instances of the workload, each generated
  // from its own seed derived from --seed; pass n runs instance n mod K.
  // Averaging the sim_* metrics over K instances keeps them from hinging on
  // one arrival pattern, and the host statistics cover every instance.
  const std::size_t instances = o.quick ? 2 : 16;
  const bool paper = o.workload == Workload::PaperRegions;
  std::vector<PaperInputs> paper_in;
  std::vector<ServeInputs> serve_in;
  std::uint64_t seed_state = o.seed;
  for (std::size_t k = 0; k < instances; ++k) {
    const std::uint64_t seed = splitmix64(seed_state);
    if (paper)
      paper_in.push_back(make_paper_inputs(seed, o.quick));
    else
      serve_in.push_back(make_serve_inputs(o.workload, seed, o.quick));
  }
  auto pass = [&](std::size_t k, SpanRecorder* rec) {
    return paper ? run_paper(paper_in[k], rec) : run_serve(serve_in[k], rec);
  };

  Run run(instances);
  SpanRecorder spans;
  std::map<std::string, double> layer;
  const auto start = Clock::now();
  try {
    // Untraced runs cover every instance (twice with --quick); traced runs
    // pair each untraced pass with a traced pass over the same instance.
    const std::size_t min_passes = o.trace ? 1 : (o.quick ? 2 : 1) * instances;
    for (std::size_t n = 0; n < min_passes || seconds_since(start) < o.seconds; ++n) {
      const std::size_t k = n % instances;
      run.add(pass(k, nullptr), k, false);
      if (o.trace) {
        // Only the first traced pass keeps its spans; later ones measure
        // tracing overhead.
        SpanRecorder discarded;
        run.add(pass(k, run.traced ? &discarded : &spans), k, true);
      }
      if (!run.errors.empty()) break;
    }
    if (o.trace) {
      layer = run.traced->layer;
      const std::map<std::string, double> self = spans.self_seconds(0);
      for (const auto& [name, s] : self) layer["self_ms." + name] = 1e3 * s;
      const std::vector<double> submits = spans.durations("sched.submit", 0);
      layer["submit_us_p50"] = 1e6 * quantile(submits, 0.50);
      layer["submit_us_p99"] = 1e6 * quantile(submits, 0.99);
      for (auto& [name, v] : replay_layers(run.first[0]->regions, paper, &spans, run.errors))
        layer[name] = v;
      layer["run_ns_per_event"] = 1e9 * layer["run_s"] / std::max(1.0, layer["sim.events"]);
      layer["trace_overhead_frac"] =
          fast_pass_time(run.traced_run_s) / fast_pass_time(run.host_run_s) - 1.0;
    }
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("exception: ") + e.what());
    ++run.attempted;
    ++run.failed;
  }

  const bool ran = run.first[0].has_value();
  const bool correct = run.errors.empty() && ran;
  std::map<std::string, double> e2e;
  if (ran) {
    e2e = run.sim_means();
    e2e["setup_s"] = median(run.setup_s);
    e2e["host_run_s"] = fast_pass_time(run.host_run_s);
    e2e["peak_rss_mb"] = peak_rss_mib();
    for (const std::string& line : run.first[0]->detail) std::printf("%s\n", line.c_str());
  }
  // Untraced runs report the end-to-end set; traced runs add the per-layer
  // set, which is all their JSON line carries. A layer the workload never
  // enters reads 0.
  auto lookup = [](const std::map<std::string, double>& values, const char* name) {
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
  };
  for (const MetricDef& d : kEndToEnd)
    std::printf("metric %s %s %s\n", d.name, json_number(lookup(e2e, d.name)).c_str(), d.unit);
  if (o.trace)
    for (const MetricDef& d : kPerLayer)
      std::printf("metric %s %s %s\n", d.name, json_number(lookup(layer, d.name)).c_str(),
                  d.unit);
  for (const std::string& e : run.errors)
    std::fprintf(stderr, "gpupipe_bench: FAILED: %s\n", e.c_str());

  std::ostringstream result;
  result << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
         << std::max<std::int64_t>(1, run.attempted) << ", \"failed\": " << run.failed
         << ", \"metrics\": {";
  const char* sep = "";
  auto emit = [&](const MetricDef& d, const std::map<std::string, double>& values) {
    result << sep << "\"" << d.name << "\": {\"value\": " << json_number(lookup(values, d.name))
           << ", \"unit\": \"" << d.unit << "\"}";
    sep = ", ";
  };
  if (ran) {
    if (o.trace)
      for (const MetricDef& d : kPerLayer) emit(d, layer);
    else
      for (const MetricDef& d : kEndToEnd) emit(d, e2e);
  }
  result << "}}";

  if (!o.out.empty()) {
    std::filesystem::create_directories(o.out);
    const std::string base = o.out + "/" + name_of(o.workload) + "-seed" + std::to_string(o.seed);
    std::ofstream f(base + (o.trace ? "-trace" : "") + ".json");
    auto list = [&f](const std::vector<double>& v) {
      f << "[";
      for (std::size_t i = 0; i < v.size(); ++i) f << (i ? ", " : "") << json_number(v[i]);
      f << "]";
    };
    f << "{\"workload\": \"" << name_of(o.workload) << "\", \"seed\": " << o.seed
      << ", \"quick\": " << (o.quick ? "true" : "false") << ", \"instances\": " << instances
      << ", \"host_run_s\": ";
    list(run.host_run_s);
    f << ", \"traced_run_s\": ";
    list(run.traced_run_s);
    f << ", \"setup_s\": ";
    list(run.setup_s);
    f << ", \"instance_sim\": [";
    for (std::size_t k = 0; k < instances; ++k) {
      f << (k ? ", " : "") << "{";
      if (run.first[k])
        for (std::size_t i = 0; i < run.first[k]->sim.size(); ++i)
          f << (i ? ", " : "") << "\"" << run.first[k]->sim[i].first
            << "\": " << json_number(run.first[k]->sim[i].second);
      f << "}";
    }
    f << "], \"result\": " << result.str() << "}\n";
    if (o.trace) {
      std::ofstream s(base + ".spans.jsonl");
      spans.write_jsonl(s);
    }
  }
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}
