// Shared infrastructure for the four evaluation applications.
//
// Every application ships three versions mirroring the paper's §IV:
//   * Naive            — synchronous OpenACC-style offload (full transfers,
//                        no overlap),
//   * Pipelined        — hand-coded OpenACC-style pipelining (manual chunk
//                        loop, async queues, FULL device arrays),
//   * Pipelined-buffer — the paper's runtime (src/core): ring buffers,
//                        automatic index translation, reduced memory.
//
// All versions of an application run the same functional math (validated by
// tests against host references); only orchestration differs. Measurement
// reports virtual time of the region containing the GPU operations — "the
// function that contains the GPU operations, including all transfers but
// ignoring time for code that is identical in all versions" (§V).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/checksum.hpp"
#include "gpu/gpu.hpp"
#include "sim/trace.hpp"

namespace gpupipe::apps {

/// Result of timing one version of one application.
struct Measurement {
  /// Virtual seconds spent in the measured region.
  SimTime seconds = 0.0;
  /// Peak client device allocations during the region.
  Bytes peak_device_mem = 0;
  /// Peak observed device memory (allocations + driver context +
  /// per-stream state); the Fig. 6 / Fig. 10 metric.
  Bytes reported_device_mem = 0;
  /// Busy time per operation kind during the region (Fig. 3 left).
  SimTime h2d_time = 0.0;
  SimTime d2h_time = 0.0;
  SimTime kernel_time = 0.0;
  /// Bytes moved per direction during the region (from the trace).
  Bytes h2d_bytes = 0;
  Bytes d2h_bytes = 0;
  /// Copy/compute overlap achieved vs. achievable (sim::overlap_efficiency).
  double overlap_efficiency = 0.0;
  /// FNV-1a checksum of the output (0 in Modeled mode).
  std::uint64_t checksum = 0;
};

/// Runs `fn` between quiesced device states and reports timing/memory. The
/// per-kind figures come from the device trace, so recording is on for the
/// region; the caller's setting is restored afterwards and the region's
/// spans stay in the trace.
template <typename Fn>
Measurement measure(gpu::Gpu& g, Fn&& fn) {
  g.synchronize();
  g.reset_peak_mem();
  g.trace().clear();
  const bool was_recording = g.trace().enabled();
  g.trace().set_enabled(true);
  Measurement m;
  const SimTime t0 = g.host_now();
  fn();
  g.synchronize();
  g.trace().set_enabled(was_recording);
  m.seconds = g.host_now() - t0;
  m.peak_device_mem = g.device_mem_stats().peak;
  m.reported_device_mem = g.reported_peak_memory();
  const auto by_kind = g.trace().time_by_kind();
  auto get = [&](sim::SpanKind k) {
    auto it = by_kind.find(k);
    return it == by_kind.end() ? 0.0 : it->second;
  };
  m.h2d_time = get(sim::SpanKind::H2D);
  m.d2h_time = get(sim::SpanKind::D2H);
  m.kernel_time = get(sim::SpanKind::Kernel);
  for (const sim::Span& s : g.trace().spans()) {
    if (s.kind == sim::SpanKind::H2D) m.h2d_bytes += s.bytes;
    if (s.kind == sim::SpanKind::D2H) m.d2h_bytes += s.bytes;
  }
  m.overlap_efficiency = sim::overlap_efficiency(g.trace());
  return m;
}

/// A host array allocated through the runtime (pinned by default). In
/// Modeled mode the pointer is address-space only; data() must not be
/// dereferenced then — use filled()/checksum() guards.
template <typename T>
class HostArray {
 public:
  HostArray(gpu::Gpu& g, std::int64_t count, bool pinned = true)
      : gpu_(g), count_(count),
        ptr_(reinterpret_cast<T*>(g.host_alloc(static_cast<Bytes>(count) * sizeof(T), pinned))) {}
  ~HostArray() { gpu_.host_free(reinterpret_cast<std::byte*>(ptr_)); }
  HostArray(const HostArray&) = delete;
  HostArray& operator=(const HostArray&) = delete;

  T* data() { return ptr_; }
  const T* data() const { return ptr_; }
  std::byte* bytes() { return reinterpret_cast<std::byte*>(ptr_); }
  std::int64_t count() const { return count_; }
  Bytes size_bytes() const { return static_cast<Bytes>(count_) * sizeof(T); }
  /// True when the backing store is real and may be dereferenced.
  bool functional() const { return gpu_.functional(); }

  /// Fills with a deterministic pattern (no-op in Modeled mode).
  template <typename Gen>
  void fill(Gen&& gen) {
    if (!functional()) return;
    for (std::int64_t i = 0; i < count_; ++i) ptr_[i] = gen(i);
  }
  void fill_value(T v) {
    fill([v](std::int64_t) { return v; });
  }

  /// FNV-1a of the contents (0 in Modeled mode).
  std::uint64_t checksum() const {
    if (!functional()) return 0;
    return fnv1a(std::span<const T>(ptr_, static_cast<std::size_t>(count_)));
  }

 private:
  gpu::Gpu& gpu_;
  std::int64_t count_;
  T* ptr_;
};


/// Copies an array's contents into `out` (cleared; left empty in Modeled
/// mode) — lets tests compare results numerically.
template <typename T>
void capture(const HostArray<T>& arr, std::vector<T>* out) {
  if (out == nullptr) return;
  out->clear();
  if (!arr.functional()) return;
  out->assign(arr.data(), arr.data() + arr.count());
}

}  // namespace gpupipe::apps
