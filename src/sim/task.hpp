// Tasks and capacity-limited engines on top of the event queue.
//
// An Engine models a hardware resource that can service a bounded number of
// operations concurrently (a DMA copy engine, the compute engine, the device
// command scheduler). A Task is one unit of work with:
//   * a fixed service duration,
//   * predecessor dependencies (it cannot start before they complete),
//   * a release time (it cannot start before the host enqueued it),
//   * a payload executed at completion (the functional side effect — e.g.
//     actually performing the memcpy or running the kernel body).
//
// Tasks queue FIFO per engine; an engine starts the oldest ready task
// whenever a slot is free. This queueing structure — not any hard-coded
// timing — is what produces overlap, contention, and pipeline bubbles.
//
// Storage: tasks live in a per-simulator TaskArena (reached through
// Simulator::extension), not in individually heap-allocated shared_ptr
// blocks. TaskPtr is an intrusive handle — copying bumps a non-atomic
// refcount; when the last reference drops the slot returns to the arena's
// free list. Successor lists are index-linked edges in a shared pool, so
// steady-state task churn performs no allocation.
// A task's completion event drains every successor that became ready, in
// dependency-registration order — the exact sequence-number assignment the
// per-successor dispatch always produced, which is what keeps traces
// bit-identical across the old and new cores.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/inline_callable.hpp"
#include "common/string_table.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace gpupipe::sim {

class Engine;
class Task;
class TaskArena;

/// Intrusive handle to an arena-owned Task. Pointer-sized; copying adjusts a
/// non-atomic refcount (the simulation is single-threaded). Dropping the
/// last reference recycles the task's arena slot.
class TaskPtr {
 public:
  TaskPtr() = default;
  TaskPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  explicit TaskPtr(Task* t);
  TaskPtr(const TaskPtr& o);
  TaskPtr(TaskPtr&& o) noexcept : ptr_(o.ptr_) { o.ptr_ = nullptr; }
  TaskPtr& operator=(const TaskPtr& o);
  TaskPtr& operator=(TaskPtr&& o) noexcept;
  ~TaskPtr();

  /// Drops the reference (handle becomes null).
  void reset() { *this = TaskPtr(); }

  /// Transfers ownership out without adjusting the refcount (the caller now
  /// owns one reference and must TaskArena::release_ref it).
  Task* leak() {
    Task* p = ptr_;
    ptr_ = nullptr;
    return p;
  }

  Task* get() const { return ptr_; }
  Task* operator->() const { return ptr_; }
  Task& operator*() const { return *ptr_; }
  explicit operator bool() const { return ptr_ != nullptr; }
  friend bool operator==(const TaskPtr& a, const TaskPtr& b) { return a.ptr_ == b.ptr_; }
  friend bool operator==(const TaskPtr& a, std::nullptr_t) { return a.ptr_ == nullptr; }

 private:
  Task* ptr_ = nullptr;
};

/// One schedulable operation. Create via Task::create, wire dependencies,
/// then submit(). All methods must be called from simulation context
/// (single-threaded).
class Task {
 public:
  /// Inline storage for the payload / start / completion callables; closures
  /// bigger than this transparently go through the heap fallback.
  using Callback = InlineCallable<32>;

  /// Creates a task serviced by `engine` for `duration` simulated seconds.
  static TaskPtr create(Engine& engine, SimTime duration);

  /// As above with a `payload` that runs exactly once, at completion time.
  template <typename F>
  static TaskPtr create(Engine& engine, SimTime duration, F&& payload) {
    TaskPtr t = create(engine, duration);
    t->assign_payload(std::forward<F>(payload));
    return t;
  }

  /// Declares that this task cannot start until `pred` completes.
  /// Must be called before submit(). No-op if `pred` already completed.
  void depends_on(const TaskPtr& pred);

  /// Releases the task to its engine at virtual time `release` (>= now).
  /// After submission the task starts as soon as its dependencies are done,
  /// the release time has passed, and the engine has a free slot.
  void submit(SimTime release);

  /// Registers `fn` to run when the task completes. If already complete,
  /// runs immediately. Multiple registrations run in registration order.
  template <typename F>
  void on_complete(F&& fn);

  /// Registers `fn` to run when the task begins service (used e.g. for
  /// hazard validation). Must be set before the task starts.
  template <typename F>
  void on_start(F&& fn);

  /// Built-in trace sink: when set, completion records one span into
  /// `trace` with the given pre-interned lane/label ids — the allocation-
  /// free replacement for an on_complete closure per traced operation.
  void set_span(Trace& trace, SpanKind kind, StringId lane, StringId label, Bytes bytes,
                std::int64_t node, std::int32_t trace_id = -1) {
    trace_ = &trace;
    span_kind_ = kind;
    span_lane_ = lane;
    span_label_ = label;
    span_bytes_ = bytes;
    span_node_ = node;
    span_trace_ = trace_id;
  }

  bool submitted() const { return submitted_; }
  bool done() const { return done_; }
  /// Start of service (valid once started).
  SimTime start_time() const { return start_; }
  /// End of service (valid once done()).
  SimTime end_time() const { return end_; }
  SimTime duration() const { return duration_; }

  /// Trivial default constructor: a freshly allocated slot is uninitialised
  /// until TaskArena::allocate writes every live field. Keeping the ctor
  /// trivial lets the arena default-initialise 1024-task chunks without
  /// writing the whole slab once just to overwrite it at first use. Public
  /// only for the array allocator; tasks are created through Task::create.
  Task() = default;

 private:
  friend class Engine;
  friend class TaskArena;
  friend class TaskPtr;

  template <typename F>
  void assign_payload(F&& fn);

  void dependency_done();
  void maybe_ready();
  void complete();

  static constexpr std::uint32_t kNone = 0xffffffffu;

  // Callbacks live in the arena's pool behind uint32 handles (kNone = unset):
  // most serve-scale tasks set none of the three, so the task itself stays
  // small and per-task initialisation touches no callable storage.
  //
  // Deliberately no default member initialisers (see Task() above):
  // TaskArena::allocate resets every field a task reads before set_span, and
  // set_span writes the span_* group as a unit.
  TaskArena* arena_;
  Engine* engine_;
  Trace* trace_;
  SimTime duration_;
  SimTime start_;
  SimTime end_;
  Bytes span_bytes_;
  std::int64_t span_node_;
  std::uint32_t index_;
  std::uint32_t payload_;
  std::uint32_t start_cb_;
  std::uint32_t complete_cb_;
  StringId span_lane_;
  StringId span_label_;
  std::int32_t span_trace_;  // owning job's trace id (-1 outside a job)
  std::uint32_t succ_head_;  // edge-pool list of tasks waiting on us
  std::uint32_t succ_tail_;
  std::uint32_t refs_;
  int pending_deps_;
  SpanKind span_kind_;
  bool submitted_;
  bool released_;
  bool queued_;
  bool done_;
};

/// Per-simulator slab of tasks and successor edges. Obtained via
/// Simulator::extension<TaskArena>(); engines cache the pointer. Slots are
/// recycled through free lists, so `slots()` is the all-time high-water
/// footprint while `live()` tracks current usage.
class TaskArena {
 public:
  TaskArena() = default;
  TaskArena(const TaskArena&) = delete;
  TaskArena& operator=(const TaskArena&) = delete;
  ~TaskArena() { draining_ = true; }

  /// Tasks currently alive (referenced or in flight).
  std::size_t live() const { return live_; }
  /// Most tasks ever alive at once.
  std::size_t high_water() const { return high_water_; }
  /// Task slots allocated (never shrinks; recycled via free list).
  std::size_t slots() const { return size_; }
  /// Tasks created over the arena's lifetime.
  std::uint64_t created() const { return created_; }
  /// Successor-edge slots allocated.
  std::size_t edge_slots() const { return edges_.size(); }
  /// Interned operation names (kernel and stream names of op labels).
  const StringTable& labels() const { return labels_; }
  /// Interns a name into labels().
  StringId intern(std::string_view label) { return labels_.intern(label); }

 private:
  friend class Engine;
  friend class Task;
  friend class TaskPtr;

  struct Edge {
    std::uint32_t task;  // successor's arena index
    std::uint32_t next;
  };

  // 1024-task chunks: stable addresses (handles and raw pointers survive
  // growth) without a deque's per-512-byte-block allocation churn.
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkMask = (1u << kChunkShift) - 1u;

  Task& task_ref(std::uint32_t i) { return chunks_[i >> kChunkShift][i & kChunkMask]; }

  /// Registers the release / completion tagged-event handlers with `sim`
  /// (once per simulator; engines call this from their constructor). Tasks
  /// then ride the simulator's typed fast path: a pending event is a task
  /// index plus a manually held reference, not a pooled closure.
  void bind(Simulator& sim) {
    if (release_tag_ != 0) return;
    release_tag_ = sim.register_tagged(&TaskArena::on_release_event, this);
    completion_tag_ = sim.register_tagged(&TaskArena::on_completion_event, this);
  }

  static void on_release_event(void* ctx, std::uint32_t index);
  static void on_completion_event(void* ctx, std::uint32_t index);

  TaskPtr allocate(Engine& engine, SimTime duration);

  void add_successor(Task& pred, Task& succ) {
    std::uint32_t e;
    if (edge_free_ != Task::kNone) {
      e = edge_free_;
      edge_free_ = edges_[e].next;
      edges_[e] = Edge{succ.index_, Task::kNone};
    } else {
      e = static_cast<std::uint32_t>(edges_.size());
      edges_.push_back(Edge{succ.index_, Task::kNone});
    }
    ++succ.refs_;  // the edge keeps the successor alive until notified
    if (pred.succ_tail_ == Task::kNone) {
      pred.succ_head_ = e;
    } else {
      edges_[pred.succ_tail_].next = e;
    }
    pred.succ_tail_ = e;
  }

  void free_edge(std::uint32_t e) {
    edges_[e].next = edge_free_;
    edge_free_ = e;
  }

  /// Stores `fn` in the callback pool, (re)binding `slot`. Wrapping an
  /// *empty* std::function must leave the slot unset (legacy callers pass
  /// default-constructed payloads), so test that common case first.
  template <typename F>
  void assign_callback(std::uint32_t& slot, F&& fn) {
    if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>>) {
      if (!fn) return;
    }
    if (slot != Task::kNone) {
      callbacks_[slot] = Task::Callback(std::forward<F>(fn));
      return;
    }
    if (!callback_free_.empty()) {
      slot = callback_free_.back();
      callback_free_.pop_back();
      callbacks_[slot] = Task::Callback(std::forward<F>(fn));
    } else {
      slot = static_cast<std::uint32_t>(callbacks_.size());
      callbacks_.emplace_back(std::forward<F>(fn));
    }
  }

  /// Moves the callable out of the pool and frees the slot. Invoke the
  /// returned value, never callbacks_[slot] in place: running a callback can
  /// create tasks with new callbacks and grow the pool under it.
  Task::Callback take_callback(std::uint32_t& slot) {
    Task::Callback cb = std::move(callbacks_[slot]);
    callback_free_.push_back(slot);
    slot = Task::kNone;
    return cb;
  }

  void drop_callback(std::uint32_t& slot) {
    if (slot == Task::kNone) return;
    callbacks_[slot].reset();
    callback_free_.push_back(slot);
    slot = Task::kNone;
  }

  static void release_ref(Task* t) {
    ensure(t->refs_ > 0, "task refcount underflow");
    if (--t->refs_ == 0 && !t->arena_->draining_) t->arena_->recycle(t);
  }

  /// Returns a task's slot to the free list. Reached only with refcount 0,
  /// i.e. no handle, queue entry, pending event, or edge references it.
  void recycle(Task* t) {
    // A task recycled before completing (created but dropped unsubmitted)
    // still holds edges to successors that will now never be notified; its
    // successors stay pending forever — the same deadlock semantics the
    // shared_ptr core had — but their edge references must be released.
    std::uint32_t e = t->succ_head_;
    t->succ_head_ = t->succ_tail_ = Task::kNone;
    while (e != Task::kNone) {
      const Edge edge = edges_[e];
      free_edge(e);
      release_ref(&task_ref(edge.task));
      e = edge.next;
    }
    drop_callback(t->payload_);
    drop_callback(t->start_cb_);
    drop_callback(t->complete_cb_);
    free_.push_back(t->index_);
    --live_;
  }

  std::vector<std::unique_ptr<Task[]>> chunks_;
  std::size_t size_ = 0;
  std::vector<std::uint32_t> free_;
  std::vector<Edge> edges_;
  std::uint32_t edge_free_ = Task::kNone;
  std::vector<Task::Callback> callbacks_;
  std::vector<std::uint32_t> callback_free_;
  std::uint32_t release_tag_ = 0;
  std::uint32_t completion_tag_ = 0;
  StringTable labels_;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t created_ = 0;
  bool draining_ = false;
};

/// A capacity-limited FIFO server.
class Engine {
 public:
  /// `capacity` concurrent service slots (e.g. 1 per DMA engine).
  Engine(Simulator& sim, std::string name, int capacity)
      : sim_(sim), arena_(sim.extension<TaskArena>()), name_(std::move(name)),
        capacity_(capacity) {
    require(capacity >= 1, "engine capacity must be >= 1");
    arena_.bind(sim);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const std::string& name() const { return name_; }
  int capacity() const { return capacity_; }
  /// Tasks currently in service.
  int busy() const { return busy_; }
  /// Tasks ready but waiting for a slot.
  std::size_t queued() const { return ready_.size(); }
  /// Total busy time integrated over all slots (for utilisation metrics).
  /// In-flight tasks are pro-rated to the current clock, so a mid-run sample
  /// never exceeds capacity * elapsed time.
  SimTime busy_time() const {
    return completed_busy_ + static_cast<double>(busy_) * sim_.now() - inflight_start_sum_;
  }
  Simulator& simulator() { return sim_; }
  TaskArena& arena() { return arena_; }

 private:
  friend class Task;
  friend class TaskArena;

  void enqueue(TaskPtr t) {
    // Invariant: a task only waits in ready_ while every slot is busy
    // (dispatch drains the queue whenever one frees up), so a free slot
    // implies an empty queue and the task can start directly — same event
    // schedule order as push-then-dispatch, without touching the deque.
    if (busy_ < capacity_) {
      start(std::move(t));
    } else {
      ready_.push_back(std::move(t));
    }
  }

  void dispatch() {
    while (busy_ < capacity_ && !ready_.empty()) {
      TaskPtr t = std::move(ready_.front());
      ready_.pop_front();
      start(std::move(t));
    }
  }

  void start(TaskPtr t) {
    ++busy_;
    Task* raw = t.get();
    raw->start_ = sim_.now();
    inflight_start_sum_ += raw->start_;
    if (raw->start_cb_ != Task::kNone) {
      Task::Callback cb = arena_.take_callback(raw->start_cb_);
      cb();
    }
    // The pending completion event owns the reference t held (released in
    // finish); the event itself is just the task's index on the typed path.
    sim_.schedule_tagged(sim_.now() + raw->duration_, arena_.completion_tag_,
                         raw->index_);
    t.leak();
  }

  /// Completion-event body. `raw` carries the reference start() leaked.
  void finish(Task* raw) {
    --busy_;
    inflight_start_sum_ -= raw->start_;
    completed_busy_ += sim_.now() - raw->start_;
    raw->complete();
    dispatch();
    TaskArena::release_ref(raw);
  }

  Simulator& sim_;
  TaskArena& arena_;
  std::string name_;
  int capacity_;
  int busy_ = 0;
  SimTime completed_busy_ = 0.0;
  SimTime inflight_start_sum_ = 0.0;
  std::deque<TaskPtr> ready_;
};

inline TaskPtr::TaskPtr(Task* t) : ptr_(t) {
  if (ptr_) ++ptr_->refs_;
}
inline TaskPtr::TaskPtr(const TaskPtr& o) : ptr_(o.ptr_) {
  if (ptr_) ++ptr_->refs_;
}
inline TaskPtr& TaskPtr::operator=(const TaskPtr& o) {
  if (ptr_ != o.ptr_) {
    Task* old = ptr_;
    ptr_ = o.ptr_;
    if (ptr_) ++ptr_->refs_;
    if (old) TaskArena::release_ref(old);
  }
  return *this;
}
inline TaskPtr& TaskPtr::operator=(TaskPtr&& o) noexcept {
  if (this != &o) {
    Task* old = ptr_;
    ptr_ = o.ptr_;
    o.ptr_ = nullptr;
    if (old) TaskArena::release_ref(old);
  }
  return *this;
}
inline TaskPtr::~TaskPtr() {
  if (ptr_) TaskArena::release_ref(ptr_);
}

inline TaskPtr TaskArena::allocate(Engine& engine, SimTime duration) {
  Task* t;
  std::uint32_t idx;
  if (!free_.empty()) {
    idx = free_.back();
    free_.pop_back();
    t = &task_ref(idx);
  } else {
    // Default-init (not make_unique's value-init): Task is trivially
    // constructible precisely so a fresh chunk costs an allocation, not a
    // 120 KiB slab write that the field resets below redo anyway.
    static_assert(std::is_trivially_default_constructible_v<Task>);
    if ((size_ >> kChunkShift) == chunks_.size())
      chunks_.emplace_back(new Task[std::size_t{1} << kChunkShift]);
    idx = static_cast<std::uint32_t>(size_++);
    t = &task_ref(idx);
  }
  t->arena_ = this;
  t->engine_ = &engine;
  t->index_ = idx;
  t->duration_ = duration;
  t->start_ = t->end_ = 0.0;
  t->trace_ = nullptr;
  t->payload_ = t->start_cb_ = t->complete_cb_ = Task::kNone;
  t->succ_head_ = t->succ_tail_ = Task::kNone;
  t->refs_ = 0;
  t->pending_deps_ = 0;
  t->submitted_ = t->released_ = t->queued_ = t->done_ = false;
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  ++created_;
  return TaskPtr(t);
}

template <typename F>
void Task::assign_payload(F&& fn) {
  arena_->assign_callback(payload_, std::forward<F>(fn));
}

template <typename F>
void Task::on_complete(F&& fn) {
  if (done_) {
    fn();
    return;
  }
  if (complete_cb_ == kNone) {
    arena_->assign_callback(complete_cb_, std::forward<F>(fn));
  } else {
    // Chain in registration order; the composite usually outgrows the inline
    // buffer, which is fine — multi-registration is a cold path.
    Callback prev = arena_->take_callback(complete_cb_);
    arena_->assign_callback(
        complete_cb_,
        [prev = std::move(prev), next = Callback(std::forward<F>(fn))]() mutable {
          prev();
          next();
        });
  }
}

template <typename F>
void Task::on_start(F&& fn) {
  require(!submitted_, "on_start must be set before submit()");
  arena_->assign_callback(start_cb_, std::forward<F>(fn));
}

inline TaskPtr Task::create(Engine& engine, SimTime duration) {
  require(duration >= 0.0, "task duration must be non-negative");
  return engine.arena().allocate(engine, duration);
}

inline void Task::depends_on(const TaskPtr& pred) {
  require(pred != nullptr, "dependency must not be null");
  require(!submitted_, "dependencies must be declared before submit()");
  if (pred->done_) return;
  ++pending_deps_;
  arena_->add_successor(*pred.get(), *this);
}

inline void Task::submit(SimTime release) {
  require(!submitted_, "task submitted twice");
  submitted_ = true;
  Simulator& sim = engine_->simulator();
  require(release >= sim.now(), "release time is in the past");
  if (release > sim.now()) {
    ++refs_;  // the pending release event keeps the task alive
    sim.schedule_tagged(release, arena_->release_tag_, index_);
  } else {
    released_ = true;
    maybe_ready();
  }
}

inline void TaskArena::on_release_event(void* ctx, std::uint32_t index) {
  Task* t = &static_cast<TaskArena*>(ctx)->task_ref(index);
  t->released_ = true;
  t->maybe_ready();
  release_ref(t);
}

inline void TaskArena::on_completion_event(void* ctx, std::uint32_t index) {
  Task* t = &static_cast<TaskArena*>(ctx)->task_ref(index);
  t->engine_->finish(t);
}

inline void Task::dependency_done() {
  ensure(pending_deps_ > 0, "dependency count underflow");
  --pending_deps_;
  maybe_ready();
}

inline void Task::maybe_ready() {
  if (queued_ || done_ || !submitted_ || !released_ || pending_deps_ > 0) return;
  queued_ = true;
  engine_->enqueue(TaskPtr(this));
}

inline void Task::complete() {
  ensure(!done_, "task completed twice");
  done_ = true;
  end_ = engine_->simulator().now();
  if (payload_ != kNone) {
    Callback payload = arena_->take_callback(payload_);
    payload();
  }
  if (trace_) {
    trace_->record(Span{span_kind_, span_lane_, span_label_, span_trace_, start_, end_,
                        span_bytes_, span_node_});
  }
  if (complete_cb_ != kNone) {
    Callback cb = arena_->take_callback(complete_cb_);
    cb();
  }
  // Notify successors in registration order; each may enqueue on (and kick)
  // its own engine immediately, which reproduces the legacy event-sequence
  // assignment exactly.
  TaskArena& arena = *arena_;
  std::uint32_t e = succ_head_;
  succ_head_ = succ_tail_ = kNone;
  while (e != kNone) {
    const TaskArena::Edge edge = arena.edges_[e];
    arena.free_edge(e);
    Task* succ = &arena.task_ref(edge.task);
    succ->dependency_done();
    TaskArena::release_ref(succ);
    e = edge.next;
  }
}

}  // namespace gpupipe::sim
