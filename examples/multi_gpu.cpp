// Multi-GPU co-scheduling (extension; the paper's future work targets
// "multi-nodes with different accelerators").
//
// One pipelined region is fanned out across several simulated devices that
// share a single host thread and virtual clock: MultiPipeline slices the
// split loop proportionally to device throughput, runs one pipelined
// sub-region per device concurrently, and results land in the shared host
// arrays. The demo scales a row-streaming workload across 1 and 2 identical
// K40m-class devices, then across a heterogeneous K40m + HD7970 pair, and
// validates every result (exit status 1 when any is wrong).
//
// This demo shows STATIC partitioning — weights fixed up front, fixed
// device set, boundary windows re-uploaded from the host. The repo also
// has DYNAMIC sharding on the serving path, which re-weights per round and
// exchanges halos device-to-device:
//
//   | | static (this demo) | dynamic sharding |
//   |---|---|---|
//   | API            | core::MultiPipeline   | sched::Scheduler + ShardRun |
//   | weights        | fixed, caller/FLOPs   | live load, every round      |
//   | device set     | fixed                 | elastic join/leave          |
//   | halo transport | host re-upload        | P2P (P2pSend/P2pRecv)       |
//   | try it         | ./build/examples/multi_gpu |
//                      gpupipe_serve --shard-threshold 1 --devices 2 |
//   | docs           | docs/architecture.md  | docs/sharding.md            |
//
// Build & run:  ./build/examples/multi_gpu
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/multi.hpp"
#include "gpu/device_profile.hpp"

using namespace gpupipe;

namespace {
constexpr std::int64_t kRows = 512;
constexpr std::int64_t kRowElems = 4096;

core::PipelineSpec make_spec(std::vector<double>& in, std::vector<double>& out) {
  core::PipelineSpec spec;
  spec.chunk_size = 8;
  spec.num_streams = 2;
  spec.loop_begin = 0;
  spec.loop_end = kRows;
  spec.arrays = {
      core::ArraySpec{"in", core::MapType::To, reinterpret_cast<std::byte*>(in.data()),
                      sizeof(double), {kRows, kRowElems},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
      core::ArraySpec{"out", core::MapType::From, reinterpret_cast<std::byte*>(out.data()),
                      sizeof(double), {kRows, kRowElems},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
  };
  return spec;
}

core::KernelFactory kernel() {
  return [](const core::ChunkContext& ctx) {
    gpu::KernelDesc k;
    k.name = "transform";
    k.flops = static_cast<double>(ctx.iterations() * kRowElems) * 4.0;
    k.bytes = static_cast<Bytes>(ctx.iterations() * kRowElems) * sizeof(double) * 96;
    const core::BufferView in = ctx.view("in");
    const core::BufferView out = ctx.view("out");
    const std::int64_t lo = ctx.begin(), hi = ctx.end();
    k.body = [in, out, lo, hi] {
      for (std::int64_t r = lo; r < hi; ++r) {
        const double* src = in.slab_ptr(r);
        double* dst = out.slab_ptr(r);
        for (std::int64_t j = 0; j < kRowElems; ++j) dst[j] = src[j] * src[j] + 1.0;
      }
    };
    return k;
  };
}

bool verify(const std::vector<double>& in, const std::vector<double>& out) {
  for (std::size_t i = 0; i < in.size(); ++i)
    if (out[i] != in[i] * in[i] + 1.0) return false;
  return true;
}
}  // namespace

int main() {
  bool all_verified = true;
  auto run = [&](const char* label, const std::vector<gpu::DeviceProfile>& profiles,
                 std::vector<double> weights = {}) {
    auto ctx = gpu::make_shared_context();
    std::vector<std::unique_ptr<gpu::Gpu>> gpus;
    std::vector<core::DeviceShare> shares;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      gpus.push_back(
          std::make_unique<gpu::Gpu>(profiles[i], gpu::ExecMode::Functional, ctx));
      // weight <= 0 derives the share from peak flops.
      shares.push_back({gpus.back().get(), weights.empty() ? 0.0 : weights[i]});
    }
    std::vector<double> in(kRows * kRowElems), out(kRows * kRowElems, 0.0);
    std::iota(in.begin(), in.end(), 0.0);

    core::MultiPipeline mp(shares, make_spec(in, out));
    const SimTime t0 = gpus[0]->host_now();
    mp.run(kernel());
    const SimTime elapsed = gpus[0]->host_now() - t0;

    printf("%-22s %8.3f ms  slices:", label, elapsed * 1e3);
    for (int i = 0; i < mp.device_count(); ++i) {
      const auto [lo, hi] = mp.slice(i);
      printf(" [%lld,%lld)", static_cast<long long>(lo), static_cast<long long>(hi));
    }
    const bool ok = verify(in, out);
    all_verified = all_verified && ok;
    printf("  %s\n", ok ? "verified" : "WRONG RESULT");

    // Per-device telemetry: each sub-pipeline reports under "dev<i>.".
    telemetry::Registry reg;
    mp.collect_metrics(reg);
    for (int i = 0; i < mp.device_count(); ++i) {
      const std::string p = "dev" + std::to_string(i) + ".";
      const auto [lo, hi] = mp.slice(i);
      if (lo == hi) continue;  // empty slice: no pipeline, no metrics
      printf("    dev%d: chunks %-3lld kernels %-3lld h2d %6.1f MiB  "
             "d2h %6.1f MiB  ring %5.1f MiB  streams %d\n",
             i, static_cast<long long>(reg.counter_value(p + "stats.chunks")),
             static_cast<long long>(reg.counter_value(p + "stats.kernels")),
             static_cast<double>(reg.counter_value(p + "stats.h2d_bytes")) / MiB,
             static_cast<double>(reg.counter_value(p + "stats.d2h_bytes")) / MiB,
             reg.gauge_value(p + "pipeline.buffer_footprint_bytes") / MiB,
             static_cast<int>(reg.gauge_value(p + "pipeline.num_streams")));
    }
    return elapsed;
  };

  const SimTime t1 = run("1x K40m", {gpu::nvidia_k40m()});
  const SimTime t2 = run("2x K40m", {gpu::nvidia_k40m(), gpu::nvidia_k40m()});
  printf("dual-device scaling: %.2fx\n", t1 / t2);
  // Heterogeneous pairing: flops-proportional splitting would overload the
  // AMD device, whose per-transfer setup cost dominates at this chunk size.
  // Weights are workload knowledge here; core::autotune could derive them.
  run("K40m + HD7970 (85/15)", {gpu::nvidia_k40m(), gpu::amd_hd7970()}, {0.85, 0.15});
  return all_verified ? 0 : 1;
}
