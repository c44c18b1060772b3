// Multi-tenant job scheduler over a shared simulated machine.
//
// The executors below src/core run one region at a time (or one region
// mirrored across devices — MultiPipeline). The Scheduler generalizes that
// to a serving scenario: many independent jobs, arriving over virtual time,
// share the devices of one gpu::SharedContext. Each admitted job becomes a
// core::Pipeline driven through the split-phase enqueue()/wait() interface,
// so chunks of concurrent jobs interleave on a device's copy and compute
// engines inside the single discrete-event simulation — overlap across
// tenants falls out of the same event machinery that overlaps stages within
// one pipeline.
//
// Control loop (all in virtual time, fully deterministic):
//   * arrivals enter a bounded ready queue (JobQueue); a full queue is
//     backpressure — the job waits at the source,
//   * a queue policy (FIFO / priority / shortest-job-first on the cost-model
//     dry-run estimate) picks the next job; a placement policy (least-loaded
//     by outstanding estimated seconds / round-robin) orders the devices,
//   * the AdmissionController solves the job against the device's remaining
//     memory budget, shrinking the chunk/stream shape exactly like a solo
//     pipeline under pipeline_mem_limit; admission failure retries with
//     exponential backoff, and a job is rejected only when it cannot fit an
//     idle device or its retry budget runs out,
//   * completion is signalled by hooks on events recorded on the job's own
//     streams — never by draining the device, which would serialize
//     tenants, and never by rescanning every running job after each event.
//
// The scheduler never preempts and never advances time while any decision
// is possible; time only moves to the next arrival, retry gate, or job
// completion. Ties everywhere break by submission order.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/pipeline.hpp"
#include "core/timeseries.hpp"
#include "sched/admission.hpp"
#include "sched/job.hpp"
#include "sched/queue.hpp"
#include "sched/shard.hpp"

namespace gpupipe::sched {

/// How the scheduler orders devices when placing an admitted job.
enum class PlacementPolicy {
  LeastLoaded,  ///< fewest outstanding estimated seconds first
  RoundRobin,   ///< rotate a cursor over the devices
};

inline const char* to_string(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::LeastLoaded: return "least-loaded";
    case PlacementPolicy::RoundRobin: return "round-robin";
  }
  return "?";
}

/// One scripted elastic capacity change: a device joins or leaves the
/// schedulable set at `time` (virtual). A leaving device drains what it
/// already runs — in-flight solo jobs and the current shard round finish —
/// but receives nothing new; sharded jobs re-partition their remaining
/// iterations at the next round boundary.
struct DeviceEvent {
  SimTime time = 0.0;
  int device = 0;
  bool join = false;  ///< false = leave
};

struct SchedulerOptions {
  QueuePolicy queue_policy = QueuePolicy::Fifo;
  PlacementPolicy placement = PlacementPolicy::LeastLoaded;
  /// Per-device committed-footprint cap; 0 means each device's free memory
  /// at scheduler construction.
  Bytes device_mem_cap = 0;
  /// Ready-queue capacity; arrivals beyond it are backpressured.
  std::size_t queue_capacity = 64;
  /// Exponential backoff between admission attempts of one job.
  SimTime backoff_initial = msec(1);
  double backoff_factor = 2.0;
  SimTime backoff_max = 0.5;
  /// Rejection threshold: placement rounds before the scheduler gives up.
  int max_admission_attempts = 12;

  /// Elastic sharding (sched/shard.hpp): a queued job whose predicted solo
  /// ring footprint reaches this threshold is split across the available
  /// devices with P2P halo exchange instead of running on one. 0 = off.
  Bytes shard_threshold = 0;
  /// Devices one sharded job may span per round.
  int max_shards = 4;
  /// Loop iterations per shard round; round boundaries are where an
  /// elastic reshard (device join/leave, load shift) takes effect.
  /// 0 = one round per job (no mid-job resharding).
  std::int64_t reshard_interval = 0;
  /// Scripted device join/leave times (applied in time order; ties by
  /// position). Empty = the device set is fixed for the whole run.
  std::vector<DeviceEvent> device_events;

  /// Inter-job plan stitching (docs/stitching.md): when a job declares
  /// lineage (Job::consumes) and the cost model predicts a win, the
  /// producer's D2H tail is redirected into device-resident staging and the
  /// consumer's H2D head reads it back, skipping the host round-trip. The
  /// consumer prefers the producer's device; a placement split falls back
  /// to a P2P staging mirror. Lineage-free mixes are unaffected.
  bool stitching = true;

  /// Live observability hooks, all optional and caller-owned (must outlive
  /// run()). With every hook null the control loop is byte-identical to an
  /// unobserved run: recording never changes a scheduling decision.
  /// Structured control-flow events (admission, shrink, reject, backoff,
  /// placement, completion, deadline miss) land here with the job's trace
  /// id.
  telemetry::FlightRecorder* recorder = nullptr;
  /// Stall / deadline-storm / disk-corruption anomaly detector; fed
  /// completions and misses live, checked on the sampling cadence.
  telemetry::Watchdog* watchdog = nullptr;
  /// Periodic sampling sink (queue depth, committed bytes, utilization,
  /// plan-cache hit rate over time).
  telemetry::TimeSeriesStore* series = nullptr;
  /// Sim-time cadence for `series`/`watchdog` sampling ticks (0 = off).
  /// Ticks bound virtual-time advancement, so samples land at exact
  /// multiples of the cadence and two runs' series are byte-identical.
  SimTime sample_every = 0.0;
};

/// What one run() produced (virtual times; jobs in submission order).
struct ScheduleReport {
  SimTime start = 0.0;     ///< host time when run() began
  SimTime makespan = 0.0;  ///< last completion minus start
  int completed = 0;
  int rejected = 0;
  std::int64_t backpressure_events = 0;
  std::int64_t admission_retries = 0;
  std::int64_t admission_shrinks = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t stitched_jobs = 0;      ///< jobs that ran with >= 1 handoff wired
  Bytes stitched_bytes = 0;            ///< host transfer bytes stitched away
  std::int64_t handoff_fallbacks = 0;  ///< consume links that crossed devices
  std::vector<JobRecord> jobs;
};

/// Admits, places, and interleaves jobs across the devices of one shared
/// context. Submit every job first, then call run() once.
class Scheduler {
 public:
  /// All devices must share one SharedContext (one host thread, one clock).
  Scheduler(std::vector<gpu::Gpu*> devices, SchedulerOptions opts = {});
  /// Frees any handoff staging a failed run() left behind (normal runs
  /// retire every link when its last consumer turns terminal).
  ~Scheduler();

  /// Registers a job; returns its id (== submission index). The solo
  /// runtime estimate (SJF rank, least-loaded weight) is a cost-model dry
  /// run against the first device's profile, computed once when the job
  /// arrives in run() — against the memory budget device 0 offered here.
  int submit(Job job);

  /// Executes every submitted job to completion or rejection. Call once.
  ScheduleReport run();

  /// Derives the `sched.` telemetry namespace from the finished run into
  /// `reg` (metric names get `prefix` prepended). Pull-based, like
  /// Pipeline::collect_metrics.
  void collect_metrics(telemetry::Registry& reg, const std::string& prefix = {}) const;

  int num_devices() const { return static_cast<int>(devices_.size()); }
  const AdmissionController& admission() const { return admission_; }
  const SchedulerOptions& options() const { return opts_; }
  const std::vector<JobRecord>& records() const { return records_; }
  /// Host-transfer totals summed over every completed solo pipeline — the
  /// denominator/numerator pair behind bench_stitch's savings floor.
  Bytes total_h2d_bytes() const;
  Bytes total_d2h_bytes() const;

 private:
  /// One device-resident lineage handoff: a producer's output array stashed
  /// in a staging link on its device, read back by the consumers'
  /// handoff-in nodes. Staging (and any mirror) lives until every wired
  /// consumer is terminal; its bytes are committed to admission so tenants
  /// cannot be planned into memory the link occupies.
  struct HandoffLink {
    int producer = -1;      ///< producer job id
    std::string array;      ///< producer's array name (consumer lookup key)
    int device = -1;        ///< device holding `staging`
    Bytes bytes = 0;        ///< full-array staging size
    int consumers = 0;      ///< wired consumers not yet terminal
    /// The producer pushes into it and same-device consumers pull from it;
    /// a null stage marks the link retired.
    core::DeviceLink staging;
    /// Cross-device fallback: a placement split mirrors the staging onto
    /// the consumer's device with one P2P copy, and that consumer pulls
    /// from the mirror, ordered after the copy by its `ready` event. A null
    /// stage means no mirror.
    core::DeviceLink mirror;
    int mirror_device = -1;
  };

  struct Active {
    int id = -1;
    int device = -1;
    Bytes footprint = 0;
    SimTime estimate = 0.0;
    std::unique_ptr<core::Pipeline> pipeline;
    std::unique_ptr<ShardRun> shard;  ///< multi-device path (pipeline null)
    /// Estimated-seconds load added per device at start (removed on
    /// completion) — one entry for solo jobs, one per shard otherwise.
    std::vector<std::pair<int, SimTime>> shares;
    std::vector<gpu::EventPtr> events;  ///< one per pipeline stream
  };

  /// Completion by notification. arm_completion() hooks the stream events
  /// of a solo pipeline or of one shard round; the last of them to fire
  /// marks the job done and raises `signalled`, so the control loop waits on
  /// one flag instead of rescanning every running job after each event. The
  /// hooks share ownership of the board: one firing after the scheduler is
  /// gone (an abandoned run drained by someone else) writes here, never
  /// into freed memory.
  struct CompletionBoard {
    /// By job id: armed events still to fire; 0 = done, -1 = not armed (not
    /// running, or a sharded job stalled between rounds — it waits for a
    /// device event, not a completion).
    std::vector<int> unfired;
    bool signalled = false;  ///< some job turned done since the last poll
  };

  SimTime host_now() const { return ctx_->host_time; }
  bool all_terminal() const {
    return completed_ + rejected_ == static_cast<int>(jobs_.size());
  }

  /// Completes the jobs the board marked done (in active_ order) and retries
  /// stalled shard rounds; a no-op without a signal or a stalled round.
  bool poll_completions();
  /// Hooks `events` so job `id` reads done once every one of them fired.
  void arm_completion(int id, const std::vector<gpu::EventPtr>& events);
  /// Sets records_[id].estimate from the budget submit() recorded.
  void estimate_arrival(int id);
  bool intake();
  /// Queues arrived job `id`; false when the queue is full (backpressure,
  /// counted once per job).
  bool try_enqueue(int id);
  bool dispatch();
  /// Applies scripted DeviceEvents whose time has passed.
  bool process_device_events();
  /// Indices of devices currently in the schedulable set.
  std::vector<int> available_devices() const;
  /// Whether `id` qualifies for the sharded path right now.
  bool shard_eligible(int id) const;
  /// Tries to start `id` sharded across >= 2 available devices; false
  /// leaves the job queued for the solo path.
  bool try_start_sharded(int id);
  /// (Re)starts the next round of an active sharded job with fresh devices
  /// and weights; false when no device can take a shard right now.
  bool launch_shard_round(Active& a);
  void start_job(int id, int dev, const AdmissionDecision& d);
  void reject_job(int id, std::int64_t reason_code, std::string reason);
  void complete_job(Active& a);
  std::vector<int> placement_order() const;
  /// placement_order with the device holding `id`'s consumed staging (if
  /// any) promoted to the front — the lineage co-placement preference.
  std::vector<int> placement_order_for(int id) const;
  /// True when every lineage producer of `id` reached a terminal state.
  bool lineage_ready(int id) const;
  /// Moves arrived lineage waiters whose producers turned terminal into the
  /// ready queue; consumers of a rejected producer are rejected here.
  bool drain_lineage_waiters();
  /// The link stashing `in`'s producer array, or null.
  HandoffLink* link_for(const JobInput& in) const;
  /// Wires produce-side ArrayHandoffs into `id`'s frozen `spec` for every
  /// stitchable consumer array (cost-model gated; staging on `dev`).
  /// `ends[k]` receives the DeviceLink the spec's handoff k binds.
  void wire_producer_handoffs(int id, int dev, core::PipelineSpec& spec,
                              std::vector<core::DeviceLink*>& ends);
  /// Wires consume-side ArrayHandoffs for inputs whose producer stashed a
  /// link; a link on another device gets a P2P mirror (the fallback path).
  void wire_consumer_handoffs(int id, int dev, core::PipelineSpec& spec,
                              std::vector<core::DeviceLink*>& ends);
  /// Drops one consumer from every link `id` consumed, retiring drained
  /// links (staging freed, admission released).
  void release_consumed_links(int id);
  void retire_link(HandoffLink& link);
  /// Mirrors `link`'s staging onto `dev` with one P2P copy; false when it
  /// cannot fit (or a mirror already lives on a third device).
  bool stage_mirror(HandoffLink& link, int dev);
  /// Last resort when a mirror cannot fit: drains the staging back to the
  /// producer's host buffer so the consumer can run unstitched.
  void rescue_to_host(HandoffLink& link);
  void advance();
  void advance_to(SimTime t);
  void advance_until_completion_or(SimTime bound);
  void note_queue_depth();
  void record_flight(telemetry::FlightEventKind kind, int job, std::int64_t a = 0,
                     std::int64_t b = 0);
  void maybe_sample();
  void sample_at(SimTime t);
  bool sampling() const {
    return opts_.sample_every > 0.0 &&
           (opts_.series != nullptr || opts_.watchdog != nullptr);
  }

  std::vector<gpu::Gpu*> devices_;
  std::shared_ptr<gpu::SharedContext> ctx_;
  SchedulerOptions opts_;
  AdmissionController admission_;
  JobQueue queue_;

  std::vector<Job> jobs_;
  std::vector<JobRecord> records_;
  std::vector<Bytes> estimate_budget_;  ///< device-0 budget at submit()
  std::vector<int> arrival_order_;
  std::size_t next_pending_ = 0;
  std::size_t estimated_ = 0;  ///< arrival_order_ prefix already estimated
  std::vector<Active> active_;
  std::shared_ptr<CompletionBoard> board_ = std::make_shared<CompletionBoard>();
  int stalled_shards_ = 0;  ///< sharded jobs waiting for a device between rounds
  std::vector<SimTime> outstanding_;  ///< estimated seconds running per device
  std::vector<char> dev_available_;   ///< elastic membership (DeviceEvents)
  std::vector<DeviceEvent> dev_events_;  ///< sorted by (time, position)
  std::size_t next_dev_event_ = 0;
  std::vector<SimTime> busy0_;  ///< compute busy time at run() start
  int rr_cursor_ = 0;

  bool ran_ = false;
  SimTime t0_ = 0.0;
  SimTime next_sample_ = std::numeric_limits<SimTime>::infinity();
  SimTime makespan_ = 0.0;
  int completed_ = 0;
  int rejected_ = 0;
  std::int64_t lineage_jobs_ = 0;  ///< jobs submitted with inputs (metric gate)
  std::vector<std::unique_ptr<HandoffLink>> links_;
  std::vector<int> lineage_wait_;  ///< arrived, held for producer completion
  std::size_t queue_depth_peak_ = 0;
  std::vector<std::size_t> queue_depth_samples_;
};

}  // namespace gpupipe::sched
