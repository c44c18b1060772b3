// Ablation: the adaptive scheduler extension (the paper's stated future
// work, implemented in src/core).
//
// A deliberately bad static chunk size (1 iteration) on a fine-grained
// workload wastes time on per-chunk overheads and sub-saturation transfers;
// the adaptive schedule probes the first chunk, then re-chunks the remaining
// iterations at the autotuner's replay-sweep pick for the probe's kernel
// time. This bench compares static chunk sizes against the adaptive pick
// across workload granularities.
#include "bench/bench_util.hpp"
#include "bench/workloads.hpp"
#include "core/pipeline.hpp"

namespace gpupipe::bench {
namespace {

struct Outcome {
  SimTime seconds = 0.0;
  std::int64_t chunk = 0;
};

/// Streams `rows` rows of `row_elems` doubles through a pipelined doubling
/// kernel and reports the region time.
Outcome run_synthetic(std::int64_t rows, std::int64_t row_elems, core::ScheduleKind kind,
                      std::int64_t chunk) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  quiet(g);
  std::byte* in = g.host_alloc(static_cast<Bytes>(rows * row_elems) * sizeof(double));
  std::byte* out = g.host_alloc(static_cast<Bytes>(rows * row_elems) * sizeof(double));

  core::PipelineSpec spec;
  spec.schedule = kind;
  spec.chunk_size = chunk;
  spec.num_streams = 2;
  spec.loop_begin = 0;
  spec.loop_end = rows;
  spec.arrays = {
      core::ArraySpec{"in", core::MapType::To, in, sizeof(double), {rows, row_elems},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
      core::ArraySpec{"out", core::MapType::From, out, sizeof(double), {rows, row_elems},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
  };
  core::Pipeline p(g, spec);
  const SimTime t0 = g.host_now();
  p.run([row_elems](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.name = "double";
    k.flops = static_cast<double>(ctx.iterations() * row_elems);
    k.bytes = static_cast<Bytes>(ctx.iterations() * row_elems) * 16;
    return k;
  });
  g.synchronize();
  Outcome o{g.host_now() - t0, p.effective_chunk_size()};
  g.host_free(in);
  g.host_free(out);
  return o;
}

constexpr std::int64_t kRows = 4096;
constexpr std::int64_t kRowElems[] = {512, 4096, 32768};  // 4 KiB .. 256 KiB rows

void register_all() {
  for (std::int64_t re : kRowElems) {
    for (std::int64_t c : {std::int64_t{1}, std::int64_t{16}, std::int64_t{256}}) {
      const std::string name = "ablation_schedule/static/row_KiB:" +
                               std::to_string(re * 8 / 1024) + "/chunk:" + std::to_string(c);
      benchmark::RegisterBenchmark(name.c_str(), [re, c](benchmark::State& st) {
        const double t = run_synthetic(kRows, re, core::ScheduleKind::Static, c).seconds;
        for (auto _ : st) st.SetIterationTime(t);
        st.counters["sim_s"] = t;
      })->UseManualTime()->Iterations(1);
    }
    const std::string name =
        "ablation_schedule/adaptive/row_KiB:" + std::to_string(re * 8 / 1024);
    benchmark::RegisterBenchmark(name.c_str(), [re](benchmark::State& st) {
      const auto o = run_synthetic(kRows, re, core::ScheduleKind::Adaptive, 1);
      for (auto _ : st) st.SetIterationTime(o.seconds);
      st.counters["sim_s"] = o.seconds;
      st.counters["chosen_chunk"] = static_cast<double>(o.chunk);
    })->UseManualTime()->Iterations(1);
  }
}

void print_figure() {
  std::printf("\nAblation — static vs adaptive schedule (4096 rows, 2 streams)\n");
  Table t({"row size", "static c=1 (s)", "static c=16 (s)", "static c=256 (s)",
           "adaptive (s)", "adaptive picked"});
  for (std::int64_t re : kRowElems) {
    const auto s1 = run_synthetic(kRows, re, core::ScheduleKind::Static, 1);
    const auto s16 = run_synthetic(kRows, re, core::ScheduleKind::Static, 16);
    const auto s256 = run_synthetic(kRows, re, core::ScheduleKind::Static, 256);
    const auto ad = run_synthetic(kRows, re, core::ScheduleKind::Adaptive, 1);
    t.add_row({std::to_string(re * 8 / 1024) + " KiB", Table::num(s1.seconds, 4),
               Table::num(s16.seconds, 4), Table::num(s256.seconds, 4),
               Table::num(ad.seconds, 4), "chunk " + std::to_string(ad.chunk)});
  }
  t.print(std::cout);
  std::printf(
      "The adaptive schedule should track the best static column without manual "
      "tuning, from a chunk-size-1 starting point.\n");
}

}  // namespace
}  // namespace gpupipe::bench

int main(int argc, char** argv) {
  gpupipe::bench::register_all();
  return gpupipe::bench::bench_main(argc, argv, gpupipe::bench::print_figure);
}
