#include "gpu/gpu.hpp"

#include <cstring>

namespace gpupipe::gpu {

namespace {
// Fake address-space bases keep Modeled-mode pointers from the three memory
// spaces disjoint (so bounds checks still work without backing store).
constexpr std::uintptr_t kDeviceBase = 0x2000'0000'0000ULL;
constexpr std::uintptr_t kPinnedBase = 0x3000'0000'0000ULL;
constexpr std::uintptr_t kPageableBase = 0x3800'0000'0000ULL;
}  // namespace

namespace {
// Each device gets a disjoint slice of the Modeled-mode fake address space
// so bounds checks stay meaningful with several devices per context.
std::uintptr_t next_device_base() {
  static std::uintptr_t base = kDeviceBase;
  const std::uintptr_t b = base;
  base += 0x0100'0000'0000ULL;  // 1 TiB apart
  return b;
}

// What a hazard check needs of one operation. The label rides here, not in
// the on_start closure, which stays small enough for the task's inline
// callback storage.
struct CheckedOp {
  MemEffects effects;
  OpLabel label;
};
}  // namespace

Gpu::Gpu(DeviceProfile profile, ExecMode mode, std::shared_ptr<SharedContext> context)
    : profile_(std::move(profile)),
      profile_key_(gpu::profile_key(profile_)),
      mode_(mode),
      ctx_(context ? std::move(context) : make_shared_context()),
      device_mem_(mode, profile_.usable_memory(), profile_.alloc_alignment,
                  next_device_base()) {
  if (!ctx_->host_pinned) {
    ctx_->host_pinned = std::make_unique<Allocator>(mode, 0, 64, kPinnedBase);
    ctx_->host_pageable = std::make_unique<Allocator>(mode, 0, 64, kPageableBase);
  }
  require(ctx_->host_pinned->mode() == mode,
          "all devices sharing a context must use the same ExecMode");
  require(profile_.total_memory > profile_.reserved_memory, "profile has no usable memory");
  require(profile_.pcie_bandwidth > 0 && profile_.mem_bandwidth > 0 && profile_.peak_flops > 0,
          "profile throughputs must be positive");
  sim::Simulator& sim = ctx_->sim;
  h2d_ = std::make_unique<sim::Engine>(sim, "h2d", profile_.h2d_engines);
  if (!profile_.unified_copy_engine)
    d2h_engine_ = std::make_unique<sim::Engine>(sim, "d2h", profile_.d2h_engines);
  compute_ = std::make_unique<sim::Engine>(sim, "compute", profile_.max_concurrent_kernels);
  command_ = std::make_unique<sim::Engine>(sim, "command", 1 << 20);
  streams_.emplace_back(Stream{next_stream_id_++, "stream0", intern_name("stream0")});
  default_stream_ = &streams_.back();
  trace_.set_enabled(false);
}

Gpu::~Gpu() = default;

// --- Streams and events ---

Stream& Gpu::create_stream(std::string name) {
  host_advance(profile_.api_call_host_overhead);
  const int id = next_stream_id_++;
  if (name.empty()) name = "stream" + std::to_string(id);
  const StringId name_id = intern_name(name);
  streams_.emplace_back(Stream{id, std::move(name), name_id});
  ++live_streams_;
  max_live_streams_ = std::max(max_live_streams_, live_streams_);
  return streams_.back();
}

void Gpu::destroy_stream(Stream& s) {
  require(&s != default_stream_, "cannot destroy the default stream");
  host_advance(profile_.api_call_host_overhead);
  ensure(live_streams_ > 0, "live stream count underflow");
  --live_streams_;
  s.last_.reset();
}

EventPtr Gpu::record_event(Stream& s) {
  host_advance(profile_.api_call_host_overhead);
  auto marker = submit(s, *command_, 0.0, sim::SpanKind::Sync, OpLabel{"event", 0, s.name_id_},
                       0, {}, {});
  return std::make_shared<GpuEvent>(GpuEvent::Key{}, std::move(marker));
}

void Gpu::wait_event(Stream& s, const EventPtr& ev) {
  require(ev != nullptr, "wait_event on null event");
  host_advance(profile_.api_call_host_overhead);
  // A wait marker records no span and touches no memory.
  auto marker = sim::Task::create(*command_, 0.0);
  if (s.last_) marker->depends_on(s.last_);
  marker->depends_on(ev->task_);
  marker->submit(ctx_->host_time);
  s.last_ = std::move(marker);
}

void Gpu::synchronize() {
  host_advance(profile_.api_call_host_overhead);
  ctx_->sim.run_all();
  ctx_->host_time = std::max(ctx_->host_time, ctx_->sim.now());
}

void Gpu::synchronize(Stream& s) {
  host_advance(profile_.api_call_host_overhead);
  wait_for(s.last_);
}

void Gpu::synchronize(const EventPtr& ev) {
  require(ev != nullptr, "synchronize on null event");
  host_advance(profile_.api_call_host_overhead);
  wait_for(ev->task_);
}

void Gpu::wait_for(const sim::TaskPtr& t) {
  if (!t || t->done()) return;
  ctx_->sim.run_until([&] { return t->done(); });
  ctx_->host_time = std::max(ctx_->host_time, ctx_->sim.now());
}

// --- Memory ---

std::byte* Gpu::device_malloc(Bytes size) {
  host_advance(profile_.api_call_host_overhead);
  return device_mem_.allocate(size);
}

Pitched Gpu::device_malloc_pitched(Bytes width_bytes, Bytes height) {
  host_advance(profile_.api_call_host_overhead);
  return device_mem_.allocate_pitched(width_bytes, height, profile_.pitch_alignment);
}

void Gpu::device_free(std::byte* p) {
  host_advance(profile_.api_call_host_overhead);
  device_mem_.deallocate(p);
}

std::byte* Gpu::host_alloc(Bytes size, bool pinned) {
  host_advance(profile_.api_call_host_overhead);
  return (pinned ? *ctx_->host_pinned : *ctx_->host_pageable).allocate(size);
}

void Gpu::host_free(std::byte* p) {
  host_advance(profile_.api_call_host_overhead);
  if (ctx_->host_pinned->owner_base(p)) {
    ctx_->host_pinned->deallocate(p);
  } else {
    ctx_->host_pageable->deallocate(p);
  }
}

bool Gpu::is_pinned(const std::byte* p) const {
  if (ctx_->host_pinned->owner_base(p) != nullptr) return true;
  auto it = ctx_->registered_host.upper_bound(p);
  if (it == ctx_->registered_host.begin()) return false;
  --it;
  return p < it->first + it->second;
}

void Gpu::host_register(const std::byte* p, Bytes size) {
  require(p != nullptr && size > 0, "host_register needs a non-empty range");
  host_advance(profile_.api_call_host_overhead);
  // Reject overlap with an existing registration.
  auto& reg = ctx_->registered_host;
  auto it = reg.upper_bound(p);
  if (it != reg.end())
    require(p + size <= it->first, "host_register range overlaps an existing registration");
  if (it != reg.begin()) {
    auto prev = std::prev(it);
    require(prev->first + prev->second <= p,
            "host_register range overlaps an existing registration");
  }
  reg.emplace(p, size);
}

void Gpu::host_unregister(const std::byte* p) {
  host_advance(profile_.api_call_host_overhead);
  auto it = ctx_->registered_host.find(p);
  require(it != ctx_->registered_host.end(), "host_unregister of unknown pointer");
  ctx_->registered_host.erase(it);
}

// --- Internal submission ---

sim::TaskPtr Gpu::submit(Stream& s, sim::Engine& engine, SimTime duration, sim::SpanKind kind,
                         OpLabel label, Bytes bytes, std::function<void()> payload,
                         MemEffects effects) {
  // Hardware stream arbitration: every extra live stream adds scheduling
  // cost to every operation (except pure command markers).
  if (&engine != command_.get() && live_streams_ > 1)
    duration += profile_.sched_overhead_per_stream * (live_streams_ - 1);

  auto task = sim::Task::create(engine, duration,
                                functional() ? std::move(payload) : std::function<void()>{});
  if (s.last_) task->depends_on(s.last_);

  if (ctx_->hazards.enabled() && (!effects.reads.empty() || !effects.writes.empty())) {
    sim::Task* raw = task.get();
    auto op = std::make_shared<const CheckedOp>(CheckedOp{std::move(effects), label});
    task->on_start([hazards = &ctx_->hazards, raw, op] {
      hazards->begin_op(op->effects, raw->start_time(), raw->start_time() + raw->duration(),
                        op->label);
    });
  }

  // The label is formatted only for a recorded span.
  if (trace_.enabled()) {
    if (s.lane_id_ == 0) s.lane_id_ = trace_.intern(s.name());
    // The plan node and job trace id are captured now, at submission: by the
    // time the span is recorded (completion) the executor has moved on to
    // other nodes and the scheduler to other jobs.
    task->set_span(trace_, kind, s.lane_id_,
                   trace_.intern(label.format(engine.arena().labels())), bytes,
                   trace_.plan_node(), trace_.trace_id());
  }

  task->submit(ctx_->host_time);
  s.last_ = task;
  return task;
}

// --- Transfers ---

SimTime Gpu::copy_duration(const CopyShape& shape, bool pinned) const {
  const double bw = profile_.transfer_bandwidth(shape.total(), shape.width, pinned);
  return profile_.copy_setup_latency +
         profile_.copy_segment_latency * static_cast<double>(shape.height - 1) +
         static_cast<double>(shape.total()) / bw;
}

sim::TaskPtr Gpu::copy_common(Stream& s, sim::Engine& engine, sim::SpanKind kind,
                              std::byte* dst, Bytes dpitch, const std::byte* src, Bytes spitch,
                              CopyShape shape, bool pinned, const char* what) {
  require(shape.width > 0 && shape.height > 0, "copy extent must be positive");
  require(dpitch >= shape.width && spitch >= shape.width, "pitch smaller than row width");
  host_advance(profile_.api_call_host_overhead);

  const Bytes dspan = (shape.height - 1) * dpitch + shape.width;
  const Bytes sspan = (shape.height - 1) * spitch + shape.width;

  // Bounds-check whichever side lives in device memory (works in both modes
  // because the allocator tracks fake addresses too).
  const bool dst_is_device = kind == sim::SpanKind::H2D || kind == sim::SpanKind::D2D;
  const bool src_is_device = kind == sim::SpanKind::D2H || kind == sim::SpanKind::D2D;
  if (dst_is_device)
    require(device_mem_.contains(dst, dspan), "copy destination out of device bounds");
  if (src_is_device)
    require(device_mem_.contains(src, sspan), "copy source out of device bounds");

  std::function<void()> payload;
  if (functional()) {
    payload = [dst, dpitch, src, spitch, shape] {
      for (Bytes r = 0; r < shape.height; ++r)
        std::memcpy(dst + r * dpitch, src + r * spitch, shape.width);
    };
  }

  MemEffects effects;
  if (dst_is_device) effects.writes.push_back({dst, shape.width, dpitch, shape.height});
  if (src_is_device) effects.reads.push_back({src, shape.width, spitch, shape.height});

  return submit(s, engine, copy_duration(shape, pinned), kind, OpLabel{what, shape.total(), 0},
                shape.total(), std::move(payload), std::move(effects));
}

sim::TaskPtr Gpu::memcpy_h2d_async(std::byte* dst, const std::byte* src, Bytes n, Stream& s) {
  return copy_common(s, *h2d_, sim::SpanKind::H2D, dst, n, src, n, CopyShape{n, 1},
                     is_pinned(src), "h2d");
}

sim::TaskPtr Gpu::memcpy_d2h_async(std::byte* dst, const std::byte* src, Bytes n, Stream& s) {
  return copy_common(s, d2h(), sim::SpanKind::D2H, dst, n, src, n, CopyShape{n, 1},
                     is_pinned(dst), "d2h");
}

sim::TaskPtr Gpu::memcpy_d2d_async(std::byte* dst, const std::byte* src, Bytes n, Stream& s) {
  // Device-to-device copies run at device memory bandwidth on the H2D
  // engine; they are rare in this workload set.
  require(n > 0, "copy extent must be positive");
  host_advance(profile_.api_call_host_overhead);
  require(device_mem_.contains(dst, n), "copy destination out of device bounds");
  require(device_mem_.contains(src, n), "copy source out of device bounds");
  std::function<void()> payload;
  if (functional()) payload = [dst, src, n] { std::memmove(dst, src, n); };
  MemEffects effects;
  effects.writes.push_back({dst, n});
  effects.reads.push_back({src, n});
  const SimTime dur =
      profile_.copy_setup_latency + static_cast<double>(n) / profile_.mem_bandwidth;
  return submit(s, *h2d_, dur, sim::SpanKind::D2D, OpLabel{"d2d", n, 0}, n, std::move(payload),
                std::move(effects));
}

sim::TaskPtr Gpu::memcpy_p2p_async(Gpu& peer, std::byte* dst_on_peer, const std::byte* src,
                                   Bytes n, Stream& s) {
  require(n > 0, "copy extent must be positive");
  require(peer.ctx_ == ctx_, "peer-to-peer copy requires devices sharing one context");
  host_advance(profile_.api_call_host_overhead);
  require(device_mem_.contains(src, n), "p2p source out of device bounds");
  require(peer.device_mem_.contains(dst_on_peer, n), "p2p destination out of device bounds");
  std::function<void()> payload;
  if (functional()) payload = [dst_on_peer, src, n] { std::memcpy(dst_on_peer, src, n); };
  MemEffects effects;
  effects.reads.push_back({src, n});
  effects.writes.push_back({dst_on_peer, n});
  const double bw = std::min(profile_.pcie_bandwidth, peer.profile_.pcie_bandwidth);
  const SimTime dur = profile_.copy_setup_latency + static_cast<double>(n) / bw;
  return submit(s, *h2d_, dur, sim::SpanKind::D2D, OpLabel{"p2p", n, 0}, n, std::move(payload),
                std::move(effects));
}

sim::TaskPtr Gpu::memcpy2d_h2d_async(std::byte* dst, Bytes dpitch, const std::byte* src,
                                     Bytes spitch, Bytes width, Bytes height, Stream& s) {
  return copy_common(s, *h2d_, sim::SpanKind::H2D, dst, dpitch, src, spitch,
                     CopyShape{width, height}, is_pinned(src), "h2d2D");
}

sim::TaskPtr Gpu::memcpy2d_d2h_async(std::byte* dst, Bytes dpitch, const std::byte* src,
                                     Bytes spitch, Bytes width, Bytes height, Stream& s) {
  return copy_common(s, d2h(), sim::SpanKind::D2H, dst, dpitch, src, spitch,
                     CopyShape{width, height}, is_pinned(dst), "d2h2D");
}

void Gpu::memcpy_h2d(std::byte* dst, const std::byte* src, Bytes n) {
  wait_for(memcpy_h2d_async(dst, src, n, *default_stream_));
}

void Gpu::memcpy_d2h(std::byte* dst, const std::byte* src, Bytes n) {
  wait_for(memcpy_d2h_async(dst, src, n, *default_stream_));
}

// --- Kernels ---

sim::TaskPtr Gpu::launch(Stream& s, KernelDesc desc) {
  host_advance(profile_.api_call_host_overhead);
  SimTime duration;
  if (desc.fixed_duration) {
    duration = *desc.fixed_duration;
  } else {
    const double compute = desc.flops / profile_.peak_flops;
    const double memory = static_cast<double>(desc.bytes) / profile_.mem_bandwidth;
    duration = profile_.kernel_launch_latency + std::max(compute, memory);
  }
  return submit(s, *compute_, duration, sim::SpanKind::Kernel,
                OpLabel{nullptr, 0, intern_name(desc.name)}, desc.bytes, std::move(desc.body),
                std::move(desc.effects));
}

// --- Host clock ---

void Gpu::host_compute(SimTime t) {
  require(t >= 0.0, "host compute time must be non-negative");
  host_advance(t);
}

}  // namespace gpupipe::gpu
