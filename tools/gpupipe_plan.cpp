// gpupipe-plan — plan inspection for pipelined regions.
//
// Reads a region-description file (format: tools/region_file.hpp), binds
// the symbolic extents with -D defines, compiles the directive into a
// PipelineSpec, builds its ExecutionPlan, and dumps it:
//
//   --summary   node/byte counts and the dry-run predicted makespan (default)
//   --dot       the op graph in Graphviz DOT form
//   --trace     the dry-run timeline as Chrome-trace JSON (chrome://tracing)
//   --metrics   execute the region on a Modeled device and print the
//               telemetry registry snapshot as JSON (plan, stats, trace,
//               optimization, and device metrics)
//   --annotate  execute the region, dry-run the same plan, and print
//               measured vs modelled time per plan node plus the mean
//               relative model error
//   --tune      sweep (chunk_size, num_streams) candidates with the dry-run
//               autotuner and print the exploration table (never executes:
//               the kernel term comes from --flops-per-iter/--bytes-per-iter;
//               candidates whose lower bound exceeds the best print as
//               "pruned"; --tune-jobs N parallelizes the sweep, --json emits
//               the TuneResult as JSON, pruned entries as "pruned":true)
//
// --summary/--dot/--trace never execute: the plan is pure arithmetic and
// the timeline comes from a cost-model dry run. --metrics/--annotate run
// the plan through the real executor on a Modeled-mode device (timing only,
// no data) so the printed numbers are the executed ones.
//
// Usage: gpupipe_plan region.pipe -D nz=64 -D ny=32 -D nx=32
//            [--dot | --trace | --summary | --metrics | --annotate | --tune]
//            [--profile k40m|hd7970|xeonphi] [--json] [--tune-jobs N]
//            [--shards N] [--shard-index I]
//            [--flops-per-iter F] [--bytes-per-iter B] [-o out]
//
// --shards N partitions the region's loop into N equal-weight shards
// (core::shard_pipeline_specs — the same slicing the elastic scheduler
// performs) and inspects shard --shard-index I (default 0) instead of the
// whole region, so the P2pSend/P2pRecv halo-exchange nodes a sharded run
// would execute are visible in --dot / --summary / --trace.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/autotune.hpp"
#include "core/pipeline.hpp"
#include "core/plan.hpp"
#include "core/plan_opt.hpp"
#include "core/telemetry.hpp"
#include "dsl/bind.hpp"
#include "gpu/device_profile.hpp"
#include "region_file.hpp"
#include "tool_util.hpp"

namespace {

using gpupipe::Error;

// Minimal integer-expression evaluator for loop bounds and array extents
// ("nz-1", "2*n+1"): + - * / with the usual precedence, parentheses, unary
// minus, and identifiers resolved through the -D environment.
class ExprEval {
 public:
  ExprEval(const std::string& text, const gpupipe::dsl::Env& env)
      : text_(text), env_(env) {}

  std::int64_t eval() {
    const std::int64_t v = sum();
    skip_ws();
    if (pos_ != text_.size())
      throw Error("cannot parse expression '" + text_ + "'");
    return v;
  }

 private:
  std::int64_t sum() {
    std::int64_t v = product();
    for (;;) {
      skip_ws();
      if (accept('+')) v += product();
      else if (accept('-')) v -= product();
      else return v;
    }
  }
  std::int64_t product() {
    std::int64_t v = factor();
    for (;;) {
      skip_ws();
      if (accept('*')) v *= factor();
      else if (accept('/')) {
        const std::int64_t d = factor();
        if (d == 0) throw Error("division by zero in '" + text_ + "'");
        v /= d;
      } else return v;
    }
  }
  std::int64_t factor() {
    skip_ws();
    if (accept('-')) return -factor();
    if (accept('(')) {
      const std::int64_t v = sum();
      skip_ws();
      if (!accept(')')) throw Error("missing ')' in '" + text_ + "'");
      return v;
    }
    if (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      std::int64_t v = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        v = v * 10 + (text_[pos_++] - '0');
      return v;
    }
    if (pos_ < text_.size() && (std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
                                text_[pos_] == '_')) {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        name += text_[pos_++];
      const auto it = env_.find(name);
      if (it == env_.end())
        throw Error("undefined symbol '" + name + "' (pass -D " + name + "=<value>)");
      return it->second;
    }
    throw Error("cannot parse expression '" + text_ + "'");
  }
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool accept(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& text_;
  const gpupipe::dsl::Env& env_;
  std::size_t pos_ = 0;
};

std::int64_t eval_expr(const std::string& text, const gpupipe::dsl::Env& env) {
  return ExprEval(text, env).eval();
}

gpupipe::Bytes elem_size_of(const std::string& type) {
  if (type == "double") return 8;
  if (type == "float") return 4;
  throw Error("unsupported element type '" + type + "' (use double or float)");
}

void print_opt_report(std::ostream& os, const gpupipe::core::OptReport& report,
                      int opt_level) {
  os << "optimization: level " << opt_level << "\n";
  if (opt_level == 0) return;
  for (const auto& p : report.passes) {
    char elapsed[32];
    std::snprintf(elapsed, sizeof(elapsed), "%.1f us", p.elapsed_s * 1e6);
    os << "  pass " << p.pass << ": removed " << p.nodes_removed << " nodes, changed "
       << p.nodes_changed << ", saved " << p.bytes_saved << " bytes in " << elapsed
       << "\n";
    for (const auto& [name, bytes] : p.bytes_saved_by_array)
      if (bytes > 0) os << "    " << name << ": " << bytes << " bytes\n";
  }
  if (report.stitched_bytes > 0)
    os << "  stitched bytes: " << report.stitched_bytes << "\n";
  if (report.fused_kernels > 0)
    os << "  fused kernels: " << report.fused_kernels << "\n";
  os << "  nodes: " << report.nodes_before << " -> " << report.nodes_after << "\n";
  os << "  h2d bytes: " << report.h2d_bytes_before << " -> " << report.h2d_bytes_after
     << "\n";
  os << "  d2h bytes: " << report.d2h_bytes_before << " -> " << report.d2h_bytes_after
     << "\n";
}

void print_summary(std::ostream& os, const gpupipe::core::ExecutionPlan& plan,
                   const gpupipe::core::DryRunResult& dry) {
  using gpupipe::core::PlanOp;
  std::map<PlanOp, std::int64_t> counts;
  gpupipe::Bytes h2d = 0, d2h = 0;
  std::size_t edges = 0;
  for (const auto& n : plan.nodes) {
    ++counts[n.op];
    edges += n.deps.size();
    if (n.op == PlanOp::H2D) h2d += n.bytes;
    if (n.op == PlanOp::D2H) d2h += n.bytes;
  }
  os << "plan: " << plan.origin << " (chunk_size " << plan.chunk_size << ", "
     << plan.num_streams << " streams)\n";
  os << "nodes: " << plan.nodes.size() << " (";
  bool first = true;
  for (const auto& [op, count] : counts) {
    if (!first) os << ", ";
    first = false;
    os << count << " " << gpupipe::core::to_string(op);
  }
  os << "), " << edges << " dependency edges\n";
  os << "h2d bytes: " << h2d << "\n";
  os << "d2h bytes: " << d2h << "\n";
  os << "predicted makespan: " << dry.makespan << " s\n";
}

int usage(int code) {
  std::fprintf(stderr,
               "usage: gpupipe_plan <region-file> [-D name=value ...]\n"
               "           [--dot | --trace | --summary | --metrics | --annotate | "
               "--tune]\n"
               "           [--opt | --opt=N | --no-opt] [--json] [--tune-jobs N]\n"
               "           [--shards N] [--shard-index I]\n"
               "           [--profile k40m|hd7970|xeonphi]\n"
               "           [--flops-per-iter F] [--bytes-per-iter B] [-o out]\n");
  return code;
}

/// --tune: the dry-run autotuner's exploration record, as a table or JSON.
/// Entirely device-free — the analytic kernel hint replaces the probe.
/// Pruned candidates were never replayed, so they carry no makespan.
void run_tune(std::ostream& os, const gpupipe::core::PipelineSpec& spec,
              const gpupipe::gpu::DeviceProfile& profile,
              const gpupipe::core::DryRunCost& cost, int tune_jobs, bool json) {
  gpupipe::gpu::Gpu g(profile, gpupipe::gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  gpupipe::core::TuneOptions topt;
  topt.kernel_cost =
      gpupipe::core::KernelCostHint{cost.flops_per_iter, cost.bytes_per_iter};
  topt.tune_jobs = tune_jobs;
  // The kernel factory is never invoked: with an analytic kernel_cost the
  // dry sweep skips the probe execution.
  const gpupipe::core::TuneResult r = gpupipe::core::autotune(
      g, spec, [](const gpupipe::core::ChunkContext&) { return gpupipe::gpu::KernelDesc{}; },
      topt);
  std::size_t pruned = 0, infeasible = 0;
  for (const auto& c : r.explored) {
    pruned += c.pruned() ? 1 : 0;
    infeasible += c.feasible ? 0 : 1;
  }
  if (json) {
    os.precision(17);
    os << "{\"best\":{\"chunk_size\":" << r.chunk_size << ",\"num_streams\":"
       << r.num_streams << ",\"makespan_s\":" << r.best_time << "},\"explored\":[";
    for (std::size_t i = 0; i < r.explored.size(); ++i) {
      const auto& c = r.explored[i];
      if (i > 0) os << ",";
      os << "{\"chunk_size\":" << c.chunk_size << ",\"num_streams\":" << c.num_streams
         << ",\"feasible\":" << (c.feasible ? "true" : "false");
      if (c.pruned())
        os << ",\"pruned\":true";  // never replayed: no makespan
      else if (c.feasible)
        os << ",\"makespan_s\":" << c.measured;
      os << "}";
    }
    os << "]}\n";
    return;
  }
  os << "autotune: " << r.explored.size() << " candidates ("
     << r.explored.size() - pruned - infeasible << " replayed, " << pruned << " pruned, "
     << infeasible << " infeasible), best chunk " << r.chunk_size << " x " << r.num_streams
     << " streams (" << r.best_time << " s)\n";
  char line[128];
  std::snprintf(line, sizeof(line), "%8s %8s %14s %6s\n", "chunk", "streams",
                "makespan_s", "");
  os << line;
  for (const auto& c : r.explored) {
    const bool best = c.chunk_size == r.chunk_size && c.num_streams == r.num_streams;
    if (c.feasible && !c.pruned())
      std::snprintf(line, sizeof(line), "%8lld %8d %14.6e %6s\n",
                    static_cast<long long>(c.chunk_size), c.num_streams, c.measured,
                    best ? "best" : "");
    else
      std::snprintf(line, sizeof(line), "%8lld %8d %14s %6s\n",
                    static_cast<long long>(c.chunk_size), c.num_streams,
                    c.feasible ? "pruned" : "infeasible", "");
    os << line;
  }
}

/// Executes the region through the real Pipeline/PlanExecutor stack on a
/// Modeled-mode device (timing only; the kernel is a roofline stub fed by
/// the --flops-per-iter/--bytes-per-iter knobs). Hazard validation is off —
/// this is an inspection tool, not the test suite.
void run_measured(std::ostream& os, const std::string& mode,
                  const gpupipe::core::PipelineSpec& spec,
                  const gpupipe::gpu::DeviceProfile& profile,
                  gpupipe::core::DryRunCost cost) {
  gpupipe::gpu::Gpu g(profile, gpupipe::gpu::ExecMode::Modeled);
  g.hazards().set_enabled(false);
  g.trace().set_enabled(true);  // both modes read the measured spans
  gpupipe::core::Pipeline pipe(g, spec);
  pipe.run([&](const gpupipe::core::ChunkContext& ctx) {
    gpupipe::gpu::KernelDesc k;
    k.name = "chunk" + std::to_string(ctx.chunk_index());
    const double iters = static_cast<double>(ctx.iterations());
    k.flops = cost.flops_per_iter * iters;
    k.bytes = static_cast<gpupipe::Bytes>(cost.bytes_per_iter * iters);
    if (cost.flops_per_iter == 0.0 && cost.bytes_per_iter == 0.0 &&
        cost.seconds_per_iter > 0.0)
      k.fixed_duration = cost.seconds_per_iter * iters;
    return k;
  });

  if (mode == "--metrics") {
    gpupipe::telemetry::Registry reg;
    pipe.collect_metrics(reg);
    gpupipe::core::collect_trace_metrics(reg, g.trace());
    gpupipe::core::collect_device_metrics(reg, g);
    reg.to_json(os);
    return;
  }
  // --annotate: model the very plan that just executed and join the two
  // timelines node by node.
  cost.live_streams = pipe.effective_streams();
  const gpupipe::core::DryRunResult dry =
      gpupipe::core::dry_run(pipe.execution_plan(), profile, cost);
  const gpupipe::core::PlanAnnotation ann =
      gpupipe::core::annotate_plan(pipe.execution_plan(), g.trace(), dry.trace);
  gpupipe::core::print_annotation(os, ann);
}

}  // namespace

int main(int argc, char** argv) {
  std::string input_path, output_path, mode = "--summary";
  int opt_override = -1;  // -1 = use the directive's pipeline_opt level
  int tune_jobs = 1;
  int shards = 0;       // 0 = inspect the whole region unsharded
  int shard_index = 0;  // which shard's plan to dump with --shards
  bool json = false;
  gpupipe::dsl::Env env;
  gpupipe::gpu::DeviceProfile profile = gpupipe::gpu::nvidia_k40m();
  gpupipe::core::DryRunCost cost;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-D" && i + 1 < argc) {
        const std::string def = argv[++i];
        const auto eq = def.find('=');
        if (eq == std::string::npos) throw Error("-D expects name=value, got: " + def);
        env[def.substr(0, eq)] =
            gpupipe::tools::parse_int("-D " + def.substr(0, eq), def.substr(eq + 1));
      } else if (arg == "--dot" || arg == "--trace" || arg == "--summary" ||
                 arg == "--metrics" || arg == "--annotate" || arg == "--tune") {
        mode = arg;
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--tune-jobs" && i + 1 < argc) {
        tune_jobs = static_cast<int>(gpupipe::tools::parse_int("--tune-jobs", argv[++i], 0));
      } else if (arg == "--shards" && i + 1 < argc) {
        shards = static_cast<int>(gpupipe::tools::parse_int("--shards", argv[++i], 1, 64));
      } else if (arg == "--shard-index" && i + 1 < argc) {
        shard_index =
            static_cast<int>(gpupipe::tools::parse_int("--shard-index", argv[++i], 0));
      } else if (arg == "--opt") {
        opt_override = 1;
      } else if (arg.rfind("--opt=", 0) == 0) {
        opt_override =
            static_cast<int>(gpupipe::tools::parse_int("--opt=", arg.substr(6), 0, 2));
      } else if (arg == "--no-opt") {
        opt_override = 0;
      } else if (arg == "--profile" && i + 1 < argc) {
        profile = gpupipe::tools::profile_by_name(argv[++i]);
      } else if (arg == "--flops-per-iter" && i + 1 < argc) {
        cost.flops_per_iter = gpupipe::tools::parse_double("--flops-per-iter", argv[++i], 0.0);
      } else if (arg == "--bytes-per-iter" && i + 1 < argc) {
        cost.bytes_per_iter = gpupipe::tools::parse_double("--bytes-per-iter", argv[++i], 0.0);
      } else if (arg == "-o" && i + 1 < argc) {
        output_path = argv[++i];
      } else if (arg == "-h" || arg == "--help") {
        return usage(0);
      } else if (input_path.empty()) {
        input_path = arg;
      } else {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        return 2;
      }
    }
    if (input_path.empty()) return usage(2);

    std::ifstream file(input_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", input_path.c_str());
      return 2;
    }
    const gpupipe::dsl::CodegenInput in = gpupipe::tools::parse_region_file(file);

    // Bind the arrays to freshly reserved host storage. Nothing is ever
    // copied or executed, but real extents keep the plan byte-exact.
    gpupipe::dsl::Bindings arrays;
    std::vector<std::unique_ptr<std::byte[]>> storage;
    for (const auto& decl : in.arrays) {
      gpupipe::dsl::HostArray a;
      a.elem_size = elem_size_of(decl.elem_type);
      std::int64_t elems = 1;
      for (const auto& dim : decl.dims) {
        a.dims.push_back(eval_expr(dim, env));
        elems *= a.dims.back();
      }
      storage.push_back(std::make_unique_for_overwrite<std::byte[]>(
          static_cast<std::size_t>(elems) * a.elem_size));
      a.ptr = storage.back().get();
      arrays.emplace(decl.name, std::move(a));
    }

    const std::int64_t begin = eval_expr(in.loop_begin, env);
    const std::int64_t end = eval_expr(in.loop_end, env);
    gpupipe::core::PipelineSpec spec =
        gpupipe::dsl::compile(in.directive, in.loop_var, begin, end, arrays, env);
    if (opt_override >= 0) spec.opt_level = opt_override;

    // --shards: slice the loop like the elastic scheduler would and inspect
    // one shard's sub-plan (with its P2P halo-exchange nodes) instead. The
    // executing modes need a live peer wired up, so only the pure-arithmetic
    // inspections support it.
    if (shards > 0 && (mode == "--metrics" || mode == "--annotate" || mode == "--tune"))
      throw Error("--shards supports --summary, --dot, and --trace only");
    if (shards > 0) {
      const auto slices = gpupipe::core::shard_pipeline_specs(
          spec, std::vector<double>(static_cast<std::size_t>(shards), 1.0));
      if (shard_index >= static_cast<int>(slices.size()))
        throw Error("--shard-index " + std::to_string(shard_index) + " out of range (" +
                    std::to_string(slices.size()) + " shards after partitioning)");
      spec = slices[static_cast<std::size_t>(shard_index)].spec;
    }

    // Build at the spec's level and run the level-2 passes explicitly, so
    // the report of both is available for the summary.
    spec.validate();
    gpupipe::core::OptReport report;
    gpupipe::core::ExecutionPlan plan = gpupipe::core::PlanBuilder::pipeline(
        spec, spec.chunk_size, spec.num_streams, spec.loop_begin, spec.loop_end,
        gpupipe::core::PipelineBuildState::predicted(spec), &report);
    // The profile lets level >=2 arbitrate kernel fusion with a dry-run cost
    // comparison instead of fusing unconditionally.
    report.append(gpupipe::core::optimize_plan(plan, spec.opt_level, &profile));

    std::ofstream out_file;
    if (!output_path.empty()) {
      out_file.open(output_path);
      if (!out_file) throw Error("cannot write " + output_path);
    }
    std::ostream& os = output_path.empty() ? std::cout : out_file;

    if (mode == "--tune") {
      run_tune(os, spec, profile, cost, tune_jobs, json);
    } else if (mode == "--metrics" || mode == "--annotate") {
      run_measured(os, mode, spec, profile, cost);
    } else if (mode == "--dot") {
      plan.to_dot(os);
    } else {
      cost.live_streams = spec.num_streams;
      const gpupipe::core::DryRunResult dry = gpupipe::core::dry_run(plan, profile, cost);
      if (mode == "--trace") {
        dry.trace.dump_chrome_json(os);
      } else {
        print_summary(os, plan, dry);
        print_opt_report(os, report, spec.opt_level);
      }
    }
    if (!output_path.empty())
      std::fprintf(stderr, "wrote %s\n", output_path.c_str());
    return 0;
  } catch (const Error& e) {
    // Bad flags and malformed inputs land here (tools::parse_int and
    // friends throw Error, never std::invalid_argument): one line + usage.
    std::fprintf(stderr, "gpupipe-plan: %s\n", e.what());
    return usage(1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gpupipe-plan: %s\n", e.what());
    return 1;
  }
}
