// Device performance/capacity profiles.
//
// A DeviceProfile captures everything the simulator needs to time GPU
// operations: memory capacity, roofline throughputs, the host<->device
// transfer bandwidth curve, per-operation latencies, and engine topology.
// Two calibrated profiles ship with the library, modelled on the two GPUs of
// the paper's evaluation (NVIDIA Tesla K40m and AMD Radeon HD 7970).
#pragma once

#include <algorithm>
#include <string>

#include "common/units.hpp"

namespace gpupipe::gpu {

/// Tunable description of a simulated GPU.
struct DeviceProfile {
  std::string name;

  // --- Memory capacity ---
  /// Physical device memory.
  Bytes total_memory = 0;
  /// Memory unavailable to allocations (ECC overhead, driver context,
  /// command queues). usable = total - reserved.
  Bytes reserved_memory = 0;
  /// Baseline footprint the driver/runtime context contributes to *observed*
  /// GPU memory usage (what nvidia-smi style accounting reports on top of
  /// client allocations). Reported, not subtracted from usable memory.
  Bytes context_memory = 0;
  /// Additional observed footprint per live stream (command queues,
  /// scheduling state) — the paper notes memory use grows slightly with the
  /// stream count (§V-C).
  Bytes per_stream_memory = 0;

  // --- Roofline throughput ---
  /// Peak double-precision throughput (flop/s).
  double peak_flops = 0.0;
  /// Device memory bandwidth (bytes/s).
  double mem_bandwidth = 0.0;

  // --- Host <-> device transfers ---
  /// Peak PCIe transfer bandwidth (bytes/s), reached asymptotically.
  double pcie_bandwidth = 0.0;
  /// Half-saturation size: a transfer of this many *contiguous* bytes runs
  /// at half of peak bandwidth (bw(s) = peak * s / (s + half_saturation)).
  /// Devices needing large transfers to reach peak have a large value; this
  /// is the mechanism behind the paper's AMD chunk-count sensitivity (§V-B).
  Bytes pcie_half_saturation = 0;
  /// Row-width half-saturation for 2-D (strided) transfers: a transfer
  /// whose contiguous rows are this many bytes wide runs at half the rate a
  /// fully contiguous transfer of the same total size would. Models the
  /// DMA engine's per-row re-arm cost — why the paper's non-contiguous
  /// column-block copies "take much longer" (SSV-E).
  Bytes pcie_row_half_saturation = 0;
  /// Bandwidth multiplier (<1) when the host buffer is pageable rather than
  /// pinned (extra staging copy through the driver's pinned pool).
  double pageable_penalty = 1.0;

  // --- Per-operation latencies ---
  /// Device-side fixed cost to set up one DMA transfer.
  SimTime copy_setup_latency = 0.0;
  /// Extra cost per non-contiguous segment (row) of a 2-D transfer.
  SimTime copy_segment_latency = 0.0;
  /// Device-side fixed cost to launch one kernel.
  SimTime kernel_launch_latency = 0.0;
  /// Host-side CPU time consumed by one runtime API call (enqueue, event
  /// record, stream create, ...). Many small chunks => many API calls; on
  /// devices/drivers where this is large, fine-grained pipelining loses.
  SimTime api_call_host_overhead = 0.0;
  /// Additional device scheduling cost per operation for every live stream
  /// beyond the first (hardware queue arbitration).
  SimTime sched_overhead_per_stream = 0.0;

  // --- Engine topology ---
  /// Concurrent host-to-device DMA channels.
  int h2d_engines = 1;
  /// Concurrent device-to-host DMA channels.
  int d2h_engines = 1;
  /// When true, H2D and D2H share a single DMA engine (no full-duplex).
  bool unified_copy_engine = false;
  /// Kernels that can execute concurrently (1 = kernels serialise).
  int max_concurrent_kernels = 1;

  // --- Allocation granularity ---
  Bytes pitch_alignment = 512;
  Bytes alloc_alignment = 256;

  /// Memory available to client allocations.
  Bytes usable_memory() const { return total_memory - reserved_memory; }

  /// Effective PCIe bandwidth for a transfer of `total` bytes arranged as
  /// rows of `row_width` bytes (row_width == total for 1-D copies). The
  /// total size governs startup amortisation; the row width governs the
  /// strided-transfer efficiency.
  double transfer_bandwidth(Bytes total, Bytes row_width, bool pinned) const {
    const double t = static_cast<double>(total);
    double bw = pcie_bandwidth * t / (t + static_cast<double>(pcie_half_saturation));
    if (row_width < total) {
      const double w = static_cast<double>(row_width);
      bw *= w / (w + static_cast<double>(pcie_row_half_saturation));
    }
    if (!pinned) bw *= pageable_penalty;
    return bw;
  }

  // --- Service times ---
  // The one home of each operation's device time: gpu::Gpu charges them
  // and core::dry_run replays them, so a predicted plan makespan matches
  // the simulated one bit for bit. Stream arbitration comes on top.

  /// A host<->device copy of `height` rows of `width` contiguous bytes:
  /// setup, a per-row re-arm for every row after the first, and the bytes
  /// at transfer_bandwidth.
  SimTime copy_time(Bytes width, Bytes height, bool pinned) const {
    const Bytes total = width * height;
    return copy_setup_latency + copy_segment_latency * static_cast<double>(height - 1) +
           static_cast<double>(total) / transfer_bandwidth(total, width, pinned);
  }
  /// A device-to-device copy of `n` bytes, at device memory bandwidth.
  SimTime d2d_time(Bytes n) const {
    return copy_setup_latency + static_cast<double>(n) / mem_bandwidth;
  }
  /// A peer-to-peer copy of `n` bytes to `peer`, at the slower bus.
  SimTime p2p_time(Bytes n, const DeviceProfile& peer) const {
    return copy_setup_latency + static_cast<double>(n) / std::min(pcie_bandwidth,
                                                                  peer.pcie_bandwidth);
  }
  /// A kernel's roofline: launch latency plus the longer of its compute
  /// and its memory traffic.
  SimTime kernel_time(double flops, double bytes) const {
    return kernel_launch_latency + std::max(flops / peak_flops, bytes / mem_bandwidth);
  }
  /// Hardware stream arbitration: what every device operation (not a pure
  /// command marker) costs extra with `live_streams` streams live.
  SimTime stream_arbitration(int live_streams) const {
    return live_streams > 1 ? sched_overhead_per_stream * static_cast<double>(live_streams - 1)
                            : 0.0;
  }
};

/// The profile's canonical key text: the name, then every numeric field
/// (common/key_text.hpp encoding, so locale-independent). Plan-cache keys
/// and bundle tune keys start with it, so two devices share cached plans
/// exactly when their profiles agree field for field. gpu::Gpu formats it
/// once, in its constructor (Gpu::profile_key()).
std::string profile_key(const DeviceProfile& p);

/// NVIDIA Tesla K40m-like profile (the paper's primary platform).
DeviceProfile nvidia_k40m();

/// AMD Radeon HD 7970-like profile (the paper's secondary platform):
/// smaller memory, higher per-call overheads, and a transfer bandwidth curve
/// that only saturates for multi-megabyte contiguous segments.
DeviceProfile amd_hd7970();

/// Intel Xeon Phi 7120-like coprocessor profile (the paper's future-work
/// platform): lower double-precision peak than the GPUs, high on-card
/// bandwidth, but offload transfers over a software-managed channel with
/// substantial per-operation latency.
DeviceProfile intel_xeonphi();

}  // namespace gpupipe::gpu
