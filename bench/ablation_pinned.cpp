// Ablation: pinned host memory (§IV — the prototype "uses cudaHostalloc()
// to allocate pinned host memory, which avoids the data movement time from
// virtual to pinned buffer memory").
//
// Re-runs the 3-D convolution pipeline with pinned vs pageable host arrays
// on the K40m profile, and shows host_register() (the cudaHostRegister
// equivalent) recovering the pinned rate for externally allocated memory.
#include "bench/bench_util.hpp"
#include "bench/workloads.hpp"
#include "core/pipeline.hpp"

namespace gpupipe::bench {
namespace {

struct Outcome {
  double seconds;
  double h2d;
};

/// Streams a volume through a pipelined doubling kernel; host memory is
/// allocated pinned/pageable, optionally registered afterwards.
Outcome run_variant(bool pinned, bool registered) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  quiet(g);
  g.trace().set_enabled(true);  // the H2D column sums the recorded spans
  const std::int64_t rows = 512, row_elems = 262144;  // 2 MiB rows, 1 GiB total
  const Bytes bytes = static_cast<Bytes>(rows * row_elems) * sizeof(double);
  std::byte* in = g.host_alloc(bytes, pinned);
  std::byte* out = g.host_alloc(bytes, pinned);
  if (registered) {
    g.host_register(in, bytes);
    g.host_register(out, bytes);
  }

  core::PipelineSpec spec;
  spec.chunk_size = 4;
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
    k.flops = static_cast<double>(ctx.iterations() * row_elems);
    k.bytes = static_cast<Bytes>(ctx.iterations() * row_elems) * 16;
    return k;
  });
  const auto by_kind = g.trace().time_by_kind();
  auto h2d = by_kind.find(sim::SpanKind::H2D);
  return {g.host_now() - t0, h2d == by_kind.end() ? 0.0 : h2d->second};
}

const char* kVariants[] = {"pinned", "pageable", "pageable+host_register"};

Outcome variant(int i) {
  switch (i) {
    case 0: return run_variant(true, false);
    case 1: return run_variant(false, false);
    default: return run_variant(false, true);
  }
}

void register_all() {
  for (int i = 0; i < 3; ++i) {
    benchmark::RegisterBenchmark((std::string("ablation_pinned/") + kVariants[i]).c_str(),
                                 [i](benchmark::State& st) {
                                   const Outcome o = variant(i);
                                   for (auto _ : st) st.SetIterationTime(o.seconds);
                                   st.counters["h2d_s"] = o.h2d;
                                 })
        ->UseManualTime()->Iterations(1);
  }
}

void print_figure() {
  std::printf("\nAblation — host memory pinning (1 GiB streamed volume, K40m)\n");
  Table t({"host memory", "region (s)", "H2D busy (s)", "vs pinned"});
  const Outcome base = variant(0);
  for (int i = 0; i < 3; ++i) {
    const Outcome o = variant(i);
    t.add_row({kVariants[i], Table::num(o.seconds, 3), Table::num(o.h2d, 3),
               Table::num(o.seconds / base.seconds) + "x"});
  }
  t.print(std::cout);
  std::printf("Pageable memory pays the staging penalty; host_register() (the "
              "cudaHostRegister equivalent) recovers the pinned rate.\n");
}

}  // namespace
}  // namespace gpupipe::bench

int main(int argc, char** argv) {
  gpupipe::bench::register_all();
  return gpupipe::bench::bench_main(argc, argv, gpupipe::bench::print_figure);
}
