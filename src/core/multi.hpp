// Multi-device co-scheduling (extension).
//
// The paper's future work targets "multi-nodes with different accelerators"
// and cites CoreTSAR's device co-scheduling as a sibling technique that
// divides computation across devices along one dimension. MultiPipeline
// combines both ideas: the split loop is partitioned into one contiguous
// sub-range per device (proportional to device throughput or explicit
// weights), each sub-range runs through its own pipelined region, and all
// devices execute concurrently under one shared simulation context.
//
// Requirements: every Gpu must share one SharedContext (one host thread),
// and the spec's schedule must be static (split-phase execution).
//
// This is STATIC partitioning: the weight vector is fixed before launch,
// the device set never changes, and array windows that straddle a slice
// boundary are re-uploaded from the host by both neighbours. The serving
// path has a DYNAMIC counterpart — sched::ShardRun (sched/shard.hpp,
// docs/sharding.md) — which re-partitions by live load at round
// boundaries, tolerates device join/leave mid-job, and moves boundary
// halos device-to-device via P2pSend/P2pRecv plan nodes instead of
// bouncing them through the host. Prefer MultiPipeline for a one-shot
// region on a fixed machine; the scheduler's sharding for serving.
#pragma once

#include <vector>

#include "core/pipeline.hpp"

namespace gpupipe::core {

/// How MultiPipeline divides the split loop across devices.
struct DeviceShare {
  gpu::Gpu* device = nullptr;
  /// Relative share of iterations; <= 0 means "derive from peak_flops".
  double weight = 0.0;
};

/// One pipelined region fanned out over several devices.
class MultiPipeline {
 public:
  /// Builds one Pipeline per device over a contiguous slice of the loop.
  /// Array windows may straddle slice boundaries; each device's pipeline
  /// transfers its own window, so halo indices near a boundary are sent to
  /// both neighbours (inputs are read-only, outputs never overlap).
  MultiPipeline(std::vector<DeviceShare> devices, const PipelineSpec& spec);

  /// Runs the region on every device concurrently and blocks until all
  /// slices completed.
  void run(const KernelFactory& make_kernel);

  int device_count() const { return static_cast<int>(parts_.size()); }
  /// The loop sub-range assigned to device `i`.
  std::pair<std::int64_t, std::int64_t> slice(int i) const {
    return {parts_[static_cast<std::size_t>(i)].begin,
            parts_[static_cast<std::size_t>(i)].end};
  }
  Pipeline& pipeline(int i) { return *parts_[static_cast<std::size_t>(i)].pipeline; }

  /// Sum of ring-buffer footprints across devices.
  Bytes buffer_footprint() const;

  /// Collects every per-device pipeline's metrics into `reg` under
  /// `prefix` + "dev<i>." namespaces (empty slices are skipped).
  void collect_metrics(telemetry::Registry& reg, const std::string& prefix = {}) const;

 private:
  struct Part {
    gpu::Gpu* device;
    std::int64_t begin;
    std::int64_t end;
    std::unique_ptr<Pipeline> pipeline;  // null for empty slices
  };
  std::vector<Part> parts_;
};

}  // namespace gpupipe::core
