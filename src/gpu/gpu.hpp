// The simulated GPU runtime — a CUDA-flavoured API over the discrete-event
// core.
//
// A `Gpu` owns one simulated device: its memory spaces, DMA/compute engines,
// streams, events, and a virtual host clock. Host code calls the API exactly
// like a CUDA program would (create streams, malloc, memcpyAsync, launch,
// record/wait events, synchronize); every call charges host API overhead and
// enqueues timed operations, and synchronisation advances the virtual clock.
//
// In ExecMode::Functional, device memory is real and kernels/copies execute,
// so results can be validated. In ExecMode::Modeled, only timing happens,
// allowing paper-scale (multi-GB) workloads.
#pragma once

#include <deque>
#include <map>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "gpu/device_profile.hpp"
#include "gpu/hazard.hpp"
#include "gpu/memory.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace gpupipe::gpu {

class Gpu;

/// Simulation context shared by every device of one "machine": the virtual
/// event clock plus the single host thread's clock. A default-constructed
/// Gpu owns a private context; passing one context to several Gpus models a
/// multi-GPU node driven by one host thread (the substrate for
/// core::MultiPipeline co-scheduling).
struct SharedContext {
  sim::Simulator sim;
  SimTime host_time = 0.0;
  /// Host memory is machine-wide: pinned-ness of a pointer must be visible
  /// to every device. Created by the first device (which fixes the
  /// ExecMode); later devices must use the same mode.
  std::unique_ptr<Allocator> host_pinned;
  std::unique_ptr<Allocator> host_pageable;
  std::map<const std::byte*, Bytes> registered_host;
  /// One tracker for the whole machine: addresses are globally unique, so
  /// peer-to-peer transfers and cross-device races are validated too. The
  /// kernel and stream names in its op labels live in the task arena.
  HazardTracker hazards{&sim.extension<sim::TaskArena>().labels()};
};

/// Creates a context to share between devices.
inline std::shared_ptr<SharedContext> make_shared_context() {
  return std::make_shared<SharedContext>();
}

/// An in-order command queue. Create via Gpu::create_stream; operations
/// enqueued on the same stream execute in enqueue order.
class Stream {
 public:
  int id() const { return id_; }
  const std::string& name() const { return name_; }

 private:
  friend class Gpu;
  Stream(int id, std::string name, StringId name_id)
      : id_(id), name_(std::move(name)), name_id_(name_id) {}
  int id_;
  std::string name_;
  StringId name_id_;      // the name in the task arena (event labels)
  sim::TaskPtr last_;     // tail of the in-order chain
  StringId lane_id_ = 0;  // trace lane, interned lazily (0 = not yet)
};

/// A marker recorded into a stream; complete once all prior work on that
/// stream finished. Used for cross-stream dependencies and timing.
class GpuEvent {
  /// Only Gpu can name this, so only Gpu constructs events — through
  /// std::make_shared, one allocation for the event and its count.
  class Key {
    friend class Gpu;
    Key() = default;
  };

 public:
  GpuEvent(Key, sim::TaskPtr task) : task_(std::move(task)) {}
  bool complete() const { return task_->done(); }
  /// Virtual time at which the event fired (valid once complete()).
  SimTime timestamp() const { return task_->end_time(); }
  /// Runs `fn` when the event fires, inside the marker task's own
  /// completion: no event is scheduled, so the timeline is unchanged. Runs
  /// at once if the event already fired. `fn` may outlive whoever armed it
  /// (the event fires whenever someone steps the context), so it must own
  /// what it touches.
  template <typename F>
  void on_complete(F&& fn) {
    task_->on_complete(std::forward<F>(fn));
  }

 private:
  friend class Gpu;
  sim::TaskPtr task_;
};
using EventPtr = std::shared_ptr<GpuEvent>;

/// Description of one kernel launch: a functional body plus the inputs the
/// roofline cost model needs. duration = launch latency +
/// max(flops / peak_flops, bytes / mem_bandwidth), unless fixed_duration
/// overrides it.
struct KernelDesc {
  std::string name = "kernel";
  /// Floating-point operations performed.
  double flops = 0.0;
  /// Effective device-memory traffic in bytes (reads + writes, after cache
  /// reuse — the calibration knob distinguishing naive from tiled kernels).
  Bytes bytes = 0;
  /// Functional body; runs at completion time in Functional mode. May be
  /// empty in Modeled mode.
  std::function<void()> body;
  /// Overrides the roofline model when set (tests, microbenchmarks).
  std::optional<SimTime> fixed_duration;
  /// Declared memory effects for hazard validation (optional).
  MemEffects effects;
};

/// One simulated GPU device plus its host-side runtime.
class Gpu {
 public:
  explicit Gpu(DeviceProfile profile, ExecMode mode = ExecMode::Functional,
               std::shared_ptr<SharedContext> context = nullptr);
  ~Gpu();
  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  const DeviceProfile& profile() const { return profile_; }
  /// gpu::profile_key(profile()), formatted once at construction (the
  /// profile never changes): the prefix of every plan-cache key.
  const std::string& profile_key() const { return profile_key_; }
  ExecMode mode() const { return mode_; }
  /// True when kernels and copies actually execute.
  bool functional() const { return mode_ == ExecMode::Functional; }

  // --- Streams and events ---

  /// Creates an in-order stream. The returned reference stays valid for the
  /// lifetime of the Gpu.
  Stream& create_stream(std::string name = {});
  /// Marks a stream unused again (reduces the live-stream count that feeds
  /// the per-stream scheduling overhead model). The reference stays valid
  /// but must not be used afterwards.
  void destroy_stream(Stream& s);
  /// The implicit stream used by the synchronous convenience API.
  Stream& default_stream() { return *default_stream_; }
  /// Streams currently live (excluding the default stream).
  int live_streams() const { return live_streams_; }

  /// Records an event after all work currently enqueued on `s`.
  EventPtr record_event(Stream& s);
  /// Makes all *subsequent* work on `s` wait until `ev` fires.
  void wait_event(Stream& s, const EventPtr& ev);
  /// True when the event has fired (does not advance time).
  bool query(const EventPtr& ev) const { return ev->complete(); }
  /// Seconds between two completed events (cudaEventElapsedTime analogue).
  SimTime elapsed(const EventPtr& from, const EventPtr& to) const {
    require(from && to && from->complete() && to->complete(),
            "elapsed() needs two completed events");
    return to->timestamp() - from->timestamp();
  }

  /// Blocks the host until all enqueued work completed.
  void synchronize();
  /// Blocks the host until all work enqueued on `s` completed.
  void synchronize(Stream& s);
  /// Blocks the host until `ev` fires.
  void synchronize(const EventPtr& ev);

  // --- Memory ---

  /// Allocates device memory; throws OomError when it does not fit.
  std::byte* device_malloc(Bytes size);
  /// Allocates a pitched 2-D device region (rows padded to pitch alignment).
  Pitched device_malloc_pitched(Bytes width_bytes, Bytes height);
  void device_free(std::byte* p);
  /// Typed convenience wrapper around device_malloc.
  template <typename T>
  T* device_alloc(std::size_t count) {
    return reinterpret_cast<T*>(device_malloc(count * sizeof(T)));
  }

  /// Allocates host memory through the runtime. Pinned memory transfers at
  /// full bandwidth; pageable memory pays profile().pageable_penalty.
  std::byte* host_alloc(Bytes size, bool pinned = true);
  void host_free(std::byte* p);
  /// True when `p` points into a pinned host allocation (or a registered
  /// external range).
  bool is_pinned(const std::byte* p) const;

  /// Registers externally allocated host memory (e.g. a std::vector's
  /// storage) as pinned, like cudaHostRegister: subsequent transfers from
  /// the range run at full bandwidth instead of paying the pageable
  /// penalty. The range must not overlap an existing registration.
  void host_register(const std::byte* p, Bytes size);
  /// Removes a registration made with host_register (exact base pointer).
  void host_unregister(const std::byte* p);

  /// Device allocation statistics (source of the memory-usage figures).
  const MemStats& device_mem_stats() const { return device_mem_.stats(); }
  /// Peak *observed* device memory: client allocations plus the driver
  /// context and per-stream runtime state (what external tools would
  /// report; the basis of the paper's Fig. 6/10 memory measurements).
  Bytes reported_peak_memory() const {
    return device_mem_.stats().peak + profile_.context_memory +
           profile_.per_stream_memory * static_cast<Bytes>(max_live_streams_);
  }
  Bytes device_mem_free() const {
    return device_mem_.capacity() - device_mem_.stats().current;
  }
  void reset_peak_mem() { device_mem_.reset_peak(); }

  // --- Transfers ---

  sim::TaskPtr memcpy_h2d_async(std::byte* dst, const std::byte* src, Bytes n, Stream& s);
  sim::TaskPtr memcpy_d2h_async(std::byte* dst, const std::byte* src, Bytes n, Stream& s);
  sim::TaskPtr memcpy_d2d_async(std::byte* dst, const std::byte* src, Bytes n, Stream& s);

  /// Peer-to-peer copy: `src` on this device to `dst_on_peer` on `peer`
  /// (cudaMemcpyPeerAsync analogue). Both devices must share a context.
  /// Occupies this device's DMA engine; rate is the slower of the two
  /// devices' bus bandwidths.
  sim::TaskPtr memcpy_p2p_async(Gpu& peer, std::byte* dst_on_peer, const std::byte* src,
                                Bytes n, Stream& s);

  /// 2-D (strided) copies: `height` rows of `width` bytes; source rows are
  /// `spitch` bytes apart, destination rows `dpitch` bytes apart. Effective
  /// bandwidth is determined by the contiguous row width — the mechanism
  /// that makes fine-grained non-contiguous transfers slow.
  sim::TaskPtr memcpy2d_h2d_async(std::byte* dst, Bytes dpitch, const std::byte* src,
                                  Bytes spitch, Bytes width, Bytes height, Stream& s);
  sim::TaskPtr memcpy2d_d2h_async(std::byte* dst, Bytes dpitch, const std::byte* src,
                                  Bytes spitch, Bytes width, Bytes height, Stream& s);

  /// Synchronous convenience wrappers (enqueue on the default stream and
  /// wait).
  void memcpy_h2d(std::byte* dst, const std::byte* src, Bytes n);
  void memcpy_d2h(std::byte* dst, const std::byte* src, Bytes n);

  // --- Kernels ---

  /// Launches a kernel on `s`; returns the underlying task (for tests).
  sim::TaskPtr launch(Stream& s, KernelDesc desc);

  // --- Host clock and instrumentation ---

  /// Current host virtual time (includes API overheads and waits).
  SimTime host_now() const { return ctx_->host_time; }
  /// Charges `t` seconds of host-side computation to the virtual clock.
  void host_compute(SimTime t);

  /// The device's span timeline. Recording starts off, like a real runtime
  /// without a profiler attached: a reader turns it on with
  /// trace().set_enabled(true) before the work it wants to see.
  sim::Trace& trace() { return trace_; }
  HazardTracker& hazards() { return ctx_->hazards; }
  sim::Simulator& simulator() { return ctx_->sim; }
  const std::shared_ptr<SharedContext>& context() const { return ctx_; }
  /// Busy time of each engine (utilisation introspection for tests).
  SimTime h2d_busy_time() const { return h2d_->busy_time(); }
  SimTime d2h_busy_time() const { return d2h().busy_time(); }
  SimTime compute_busy_time() const { return compute_->busy_time(); }

 private:
  struct CopyShape {
    Bytes width = 0;   // contiguous segment size
    Bytes height = 1;  // number of segments
    Bytes total() const { return width * height; }
  };

  sim::Engine& d2h() const { return profile_.unified_copy_engine ? *h2d_ : *d2h_engine_; }
  void host_advance(SimTime t) { ctx_->host_time += t; }
  void wait_for(const sim::TaskPtr& t);
  sim::TaskPtr submit(Stream& s, sim::Engine& engine, SimTime duration, sim::SpanKind kind,
                      OpLabel label, Bytes bytes, std::function<void()> payload,
                      MemEffects effects);
  sim::TaskPtr copy_common(Stream& s, sim::Engine& engine, sim::SpanKind kind,
                           std::byte* dst, Bytes dpitch, const std::byte* src, Bytes spitch,
                           CopyShape shape, bool pinned, const char* what);
  /// Interns a kernel or stream name for op labels.
  StringId intern_name(std::string_view name) { return command_->arena().intern(name); }

  DeviceProfile profile_;
  std::string profile_key_;
  ExecMode mode_;
  std::shared_ptr<SharedContext> ctx_;
  std::unique_ptr<sim::Engine> h2d_;
  std::unique_ptr<sim::Engine> d2h_engine_;
  std::unique_ptr<sim::Engine> compute_;
  std::unique_ptr<sim::Engine> command_;  // zero-duration markers (events)
  Allocator device_mem_;
  sim::Trace trace_;
  std::deque<Stream> streams_;
  Stream* default_stream_ = nullptr;
  int live_streams_ = 0;
  int max_live_streams_ = 0;
  int next_stream_id_ = 0;
};

}  // namespace gpupipe::gpu
