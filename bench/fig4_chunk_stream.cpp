// Reproduces Fig. 4: execution time of the runtime's pipelined QCD (large
// test case) as chunk size (1,2,4,8) and stream count (1..5) vary on the
// K40m profile. Paper findings: two streams are much better than one; more
// than four streams add nothing; larger chunks generally do not hurt.
#include "bench/bench_util.hpp"
#include "bench/workloads.hpp"

namespace gpupipe::bench {
namespace {

const gpu::DeviceProfile kProfile = gpu::nvidia_k40m();
constexpr std::int64_t kChunks[] = {1, 2, 4, 8};
constexpr int kStreams[] = {1, 2, 3, 4, 5};

/// Quick (CI) runs sweep the medium lattice, full runs the large one.
char dataset() { return quick_mode() ? 'm' : 'l'; }

const apps::Measurement& qcd_m(std::int64_t chunk, int streams) {
  return cached("fig4-" + std::to_string(chunk) + "-" + std::to_string(streams), [&] {
    auto cfg = qcd_cfg(dataset());
    cfg.chunk_size = chunk;
    cfg.num_streams = streams;
    return run_on(kProfile, [&](gpu::Gpu& g) { return apps::qcd_pipelined_buffer(g, cfg); });
  });
}

/// The buffered pipeline at plan-optimization level `opt` (default tuning):
/// the opt-0 vs opt-1 pair measures halo reuse's H2D savings.
const apps::Measurement& qcd_opt_m(int opt) {
  return cached("fig4-opt" + std::to_string(opt), [&] {
    auto cfg = qcd_cfg(dataset());
    cfg.opt_level = opt;
    return run_on(kProfile, [&](gpu::Gpu& g) { return apps::qcd_pipelined_buffer(g, cfg); });
  });
}

void register_all() {
  for (std::int64_t c : kChunks) {
    for (int s : kStreams) {
      const std::string name =
          "fig4/qcd-large/chunk:" + std::to_string(c) + "/streams:" + std::to_string(s);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [c, s](benchmark::State& st) { report(st, qcd_m(c, s)); })
          ->UseManualTime()->Iterations(1);
    }
  }
}

void print_figure() {
  std::printf("\nFig. 4 — QCD (%s) execution time [s], chunk size x stream count on %s\n",
              qcd_name(dataset()), kProfile.name.c_str());
  Table t({"chunk_size", "1 stream", "2 streams", "3 streams", "4 streams", "5 streams"});
  for (std::int64_t c : kChunks) {
    std::vector<std::string> row{std::to_string(c)};
    for (int s : kStreams) row.push_back(Table::num(qcd_m(c, s).seconds, 3));
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("paper: 2 streams >> 1 stream; >= 4 streams flat; larger chunks benign\n");

  // Machine-readable artifact: the sweep plus the two figures CI gates on —
  // copy/compute overlap at the default tuning, and halo reuse's H2D
  // savings (opt level 0 vs 1 on the same workload).
  Artifact a("fig4_chunk_stream");
  a.config("profile", kProfile.name);
  a.config("workload", qcd_name(dataset()));
  a.config("quick", quick_mode());
  for (std::int64_t c : kChunks)
    for (int s : kStreams)
      a.measurement("chunk" + std::to_string(c) + ".streams" + std::to_string(s),
                    qcd_m(c, s));
  const auto& opt0 = qcd_opt_m(0);
  const auto& opt1 = qcd_opt_m(1);
  a.metric("opt0.h2d_bytes", static_cast<double>(opt0.h2d_bytes));
  a.metric("opt1.h2d_bytes", static_cast<double>(opt1.h2d_bytes));
  a.derived("speedup_2_vs_1_streams", qcd_m(1, 1).seconds / qcd_m(1, 2).seconds);
  a.derived("overlap_efficiency", qcd_opt_m(1).overlap_efficiency);
  a.derived("h2d_savings_pct",
            100.0 * (1.0 - static_cast<double>(opt1.h2d_bytes) /
                               static_cast<double>(opt0.h2d_bytes)));
  a.write();
}

}  // namespace
}  // namespace gpupipe::bench

int main(int argc, char** argv) {
  gpupipe::bench::register_all();
  return gpupipe::bench::bench_main(argc, argv, gpupipe::bench::print_figure);
}
