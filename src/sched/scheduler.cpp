#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "core/layout.hpp"
#include "core/plan_cache.hpp"

namespace gpupipe::sched {

namespace {
constexpr SimTime kInf = std::numeric_limits<SimTime>::infinity();

const std::vector<double>& time_bounds() {
  static const std::vector<double> b = {1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                                        0.1,  0.3,  1.0,  3.0,  10.0};
  return b;
}

int array_index(const core::PipelineSpec& spec, const std::string& name) {
  for (std::size_t i = 0; i < spec.arrays.size(); ++i)
    if (spec.arrays[i].name == name) return static_cast<int>(i);
  return -1;
}

/// The report totals the job records already hold, summed in one place for
/// run() and the exported counters.
ScheduleReport job_totals(const std::vector<JobRecord>& records) {
  ScheduleReport t;
  for (const JobRecord& r : records) {
    // Every pick that neither starts nor rejects a job defers it once.
    t.admission_retries += std::max(r.admission_attempts - 1, 0);
    t.admission_shrinks += r.shrunk;
    t.deadline_misses += r.deadline_missed;
    t.stitched_jobs += r.stitched_in || r.stitched_out;
    t.stitched_bytes += r.stitched_bytes;
  }
  return t;
}

/// The dry-run kernel cost of `job`'s roofline hints.
core::DryRunCost cost_of(const Job& job) {
  core::DryRunCost cost;
  cost.flops_per_iter = job.flops_per_iter;
  cost.bytes_per_iter = job.bytes_per_iter;
  return cost;
}
}  // namespace

Scheduler::Scheduler(std::vector<gpu::Gpu*> devices, SchedulerOptions opts)
    : devices_(std::move(devices)),
      opts_(opts),
      admission_(devices_, opts.device_mem_cap),
      queue_(opts.queue_policy, opts.queue_capacity) {
  require(!devices_.empty(), "scheduler needs at least one device");
  for (gpu::Gpu* g : devices_) require(g != nullptr, "scheduler device is null");
  ctx_ = devices_[0]->context();
  for (gpu::Gpu* g : devices_)
    require(g->context() == ctx_,
            "scheduler devices must share one SharedContext (one host thread)");
  require(opts_.backoff_factor >= 1.0, "backoff factor must be >= 1");
  require(opts_.max_admission_attempts >= 1, "max admission attempts must be >= 1");
  require(opts_.max_shards >= 1, "max_shards must be >= 1");
  outstanding_.assign(devices_.size(), 0.0);
  dev_available_.assign(devices_.size(), 1);
  dev_completed_.assign(devices_.size(), 0);
  dev_events_ = opts_.device_events;
  std::stable_sort(dev_events_.begin(), dev_events_.end(),
                   [](const DeviceEvent& a, const DeviceEvent& b) { return a.time < b.time; });
  for (const DeviceEvent& e : dev_events_)
    require(e.device >= 0 && e.device < num_devices(),
            "device event names a device outside the machine");
}

Scheduler::~Scheduler() {
  for (auto& l : links_) retire_link(*l);
}

int Scheduler::submit(Job job) {
  require(!ran_, "submit after run() is not supported");
  job.spec.validate();
  require(job.spec.schedule == core::ScheduleKind::Static,
          "scheduler jobs need the static schedule (split-phase execution)");
  const int id = static_cast<int>(jobs_.size());
  for (const JobInput& in : job.inputs) {
    require(in.producer >= 0 && in.producer < id,
            "job '" + job.name + "': lineage producer must be submitted first");
    bool found = false;
    for (const core::ArraySpec& a : job.spec.arrays) {
      if (a.name != in.array) continue;
      found = true;
      require(a.map != core::MapType::From,
              "job '" + job.name + "': consumed array '" + in.array +
                  "' must be an input (map to/tofrom)");
    }
    require(found, "job '" + job.name + "': consumes unmapped array '" + in.array + "'");
  }
  if (!job.inputs.empty()) ++lineage_jobs_;

  JobRecord r;
  r.id = id;
  r.name = job.name;
  // The trace id joins this job's flight-recorder events with the spans its
  // pipeline records on the device (sim::Span::trace). Deterministic by
  // default: the submission index, unless the caller pinned one.
  r.trace_id = job.trace_id >= 0 ? job.trace_id : static_cast<std::int32_t>(id);
  r.priority = job.priority;
  r.arrival = job.arrival;
  // The solo estimate waits for the job's arrival (estimate_arrival), right
  // before its plan is used, so a one-off shape compiles once while its
  // plan is still cached. Its memory budget is fixed now, the way
  // estimate_pipeline_runtime would read it here: by arrival, device 0
  // holds other tenants' rings.
  const Bytes cap = admission_.cap(0);
  const Bytes mem_free = devices_[0]->device_mem_free();
  estimate_budget_.push_back(cap == 0 ? mem_free : std::min(cap, mem_free));

  jobs_.push_back(std::move(job));
  records_.push_back(std::move(r));
  stalled_.push_back(0);
  return id;
}

void Scheduler::estimate_arrival(int id) {
  const std::size_t idx = static_cast<std::size_t>(id);
  const Job& job = jobs_[idx];
  const core::DryRunCost cost = cost_of(job);
  try {
    // Estimated against the first device: placement assumes a homogeneous
    // machine (the usual serving setup; MultiPipeline handles heterogeneous
    // splits of a single region).
    records_[idx].estimate = core::estimate_pipeline_runtime_at(
        *devices_[0], job.spec, cost, estimate_budget_[idx]);
  } catch (const gpu::OomError&) {
    // Cannot fit even an idle device; dispatch rejects it through the
    // normal impossible() path.
    records_[idx].estimate = kInf;
  }
}

// --- Control loop ---

ScheduleReport Scheduler::run() {
  require(!ran_, "Scheduler::run may be called once");
  ran_ = true;
  t0_ = host_now();
  busy0_.clear();
  for (gpu::Gpu* g : devices_) busy0_.push_back(g->compute_busy_time());

  arrival_order_.resize(jobs_.size());
  for (std::size_t i = 0; i < jobs_.size(); ++i) arrival_order_[i] = static_cast<int>(i);
  std::sort(arrival_order_.begin(), arrival_order_.end(), [this](int a, int b) {
    const SimTime ta = jobs_[static_cast<std::size_t>(a)].arrival;
    const SimTime tb = jobs_[static_cast<std::size_t>(b)].arrival;
    if (ta != tb) return ta < tb;
    return a < b;
  });

  if (sampling()) next_sample_ = t0_ + opts_.sample_every;
  board_->unfired.assign(jobs_.size(), -1);

  while (!all_terminal()) {
    bool progress = true;
    while (progress) {
      progress = false;
      if (process_device_events()) progress = true;
      if (poll_completions()) progress = true;
      if (intake()) progress = true;
      if (dispatch()) progress = true;
    }
    // Sample after the decision loop drained: the series then reflect the
    // post-completion, post-dispatch state at the tick time.
    maybe_sample();
    if (all_terminal()) break;
    advance();
  }

  ScheduleReport rep = job_totals(records_);
  rep.start = t0_;
  SimTime last = t0_;
  for (const JobRecord& r : records_)
    if (r.state == JobState::Completed) last = std::max(last, r.finish);
  makespan_ = last - t0_;
  rep.makespan = makespan_;
  rep.completed = completed_;
  rep.rejected = rejected_;
  rep.backpressure_events = backpressure_events_;
  rep.handoff_fallbacks = handoff_fallbacks_;
  rep.jobs = records_;
  return rep;
}

bool Scheduler::poll_completions() {
  if (!board_->signalled && stalled_shards_ == 0) return false;
  board_->signalled = false;
  bool progress = false;
  for (std::size_t i = 0; i < active_.size();) {
    Active& a = active_[i];
    if (a.shard && !a.shard->live() && !a.shard->finished()) {
      // Stalled at a round boundary (no device could take a shard when the
      // last round drained) — retry now that the picture may have changed.
      if (launch_shard_round(a)) {
        --stalled_shards_;
        ++shard_rounds_;
        record_flight(telemetry::FlightEventKind::Reshard, a.id,
                      a.shard->device_mask(), a.shard->remaining());
        progress = true;
      }
      ++i;
      continue;
    }
    int& unfired = board_->unfired[static_cast<std::size_t>(a.id)];
    if (unfired != 0) {
      ++i;
      continue;
    }
    unfired = -1;
    if (a.shard) {
      a.shard->finish_round();
      progress = true;
      if (!a.shard->finished()) {
        // Round boundary: re-partition the remaining iterations over the
        // devices available *now* — the elastic reshard point. A failed
        // launch (e.g. every device left) keeps the job active; it retries
        // once a device event or completion changes the picture.
        if (launch_shard_round(a)) {
          ++shard_rounds_;
          record_flight(telemetry::FlightEventKind::Reshard, a.id,
                        a.shard->device_mask(), a.shard->remaining());
          progress = true;
        } else {
          ++stalled_shards_;
        }
        ++i;
        continue;
      }
    }
    complete_job(a);
    active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(i));
    progress = true;
  }
  return progress;
}

bool Scheduler::process_device_events() {
  bool progress = false;
  while (next_dev_event_ < dev_events_.size() &&
         dev_events_[next_dev_event_].time <= host_now()) {
    const DeviceEvent& e = dev_events_[next_dev_event_++];
    dev_available_[static_cast<std::size_t>(e.device)] = e.join ? 1 : 0;
    log_debug("sched: dev", e.device, e.join ? " joined" : " left", " at ", e.time, "s");
    progress = true;
  }
  return progress;
}

std::vector<int> Scheduler::available_devices() const {
  std::vector<int> out;
  for (int d = 0; d < num_devices(); ++d)
    if (dev_available_[static_cast<std::size_t>(d)]) out.push_back(d);
  return out;
}

bool Scheduler::intake() {
  bool progress = drain_lineage_waiters();
  while (next_pending_ < arrival_order_.size()) {
    const int id = arrival_order_[next_pending_];
    const std::size_t idx = static_cast<std::size_t>(id);
    if (jobs_[idx].arrival > host_now()) break;
    // First sight of this arrival (a backpressured head comes back on every
    // pass): estimate it before the queue or the lineage wait needs the key.
    if (next_pending_ == estimated_) {
      estimate_arrival(id);
      ++estimated_;
    }
    if (!jobs_[idx].inputs.empty()) {
      // Lineage consumer: hold it out of the ready queue until every
      // producer is terminal — queued it would only burn admission attempts
      // on inputs that do not exist yet. It occupies no queue slot, so it
      // cannot backpressure unrelated arrivals.
      lineage_wait_.push_back(id);
      ++next_pending_;
      progress = true;
      continue;
    }
    if (!try_enqueue(id)) break;
    ++next_pending_;
    progress = true;
  }
  return progress;
}

bool Scheduler::try_enqueue(int id) {
  const std::size_t idx = static_cast<std::size_t>(id);
  if (queue_.full()) {
    if (!stalled_[idx]) {
      stalled_[idx] = 1;
      ++backpressure_events_;
      record_flight(telemetry::FlightEventKind::Backpressure, id);
      log_debug("sched: backpressure — job ", id, " (", jobs_[idx].name,
                ") waits for a queue slot");
    }
    return false;
  }
  JobQueue::Item it;
  it.job = id;
  it.seq = static_cast<std::uint64_t>(id);
  it.priority = jobs_[idx].priority;
  it.estimate = records_[idx].estimate;
  ensure(queue_.push(it), "queue push failed after full() check");
  records_[idx].state = JobState::Queued;
  records_[idx].enqueue_time = host_now();
  record_flight(telemetry::FlightEventKind::Enqueue, id);
  note_queue_depth();
  return true;
}

bool Scheduler::lineage_ready(int id) const {
  for (const JobInput& in : jobs_[static_cast<std::size_t>(id)].inputs) {
    const JobState s = records_[static_cast<std::size_t>(in.producer)].state;
    if (s != JobState::Completed && s != JobState::Rejected) return false;
  }
  return true;
}

bool Scheduler::drain_lineage_waiters() {
  bool progress = false;
  for (std::size_t i = 0; i < lineage_wait_.size();) {
    const int id = lineage_wait_[i];
    const std::size_t idx = static_cast<std::size_t>(id);
    if (!lineage_ready(id)) {
      ++i;
      continue;
    }
    bool producer_rejected = false;
    for (const JobInput& in : jobs_[idx].inputs)
      if (records_[static_cast<std::size_t>(in.producer)].state == JobState::Rejected)
        producer_rejected = true;
    if (producer_rejected) {
      reject_job(id, telemetry::kRejectLineage, "a lineage producer was rejected");
      lineage_wait_.erase(lineage_wait_.begin() + static_cast<std::ptrdiff_t>(i));
      progress = true;
      continue;
    }
    if (!try_enqueue(id)) {
      ++i;
      continue;
    }
    lineage_wait_.erase(lineage_wait_.begin() + static_cast<std::ptrdiff_t>(i));
    progress = true;
  }
  return progress;
}

bool Scheduler::dispatch() {
  bool progress = false;
  // One batched wakeup per dispatch round: every job whose retry gate has
  // passed re-enters the eligible set here, so the pick loop below never
  // rescans the backed-off tail.
  const std::size_t woken = queue_.wake(host_now());
  if (woken > 0)
    record_flight(telemetry::FlightEventKind::QueueWake, -1,
                  static_cast<std::int64_t>(woken));
  while (JobQueue::Item* it = queue_.pick(host_now())) {
    const int id = it->job;
    const std::size_t idx = static_cast<std::size_t>(id);
    ++records_[idx].admission_attempts;

    bool started = shard_eligible(id) && try_start_sharded(id);
    if (!started) {
      for (int dev : placement_order_for(id)) {
        const AdmissionDecision d = admission_.try_admit(dev, jobs_[idx].spec);
        if (!d.admitted) continue;
        start_job(id, dev, d);
        started = true;
        break;
      }
    }
    if (started) {
      progress = true;
      continue;
    }

    bool fits_somewhere = false;
    for (int dev = 0; dev < num_devices(); ++dev)
      if (!admission_.impossible(dev, jobs_[idx].spec)) fits_somewhere = true;
    if (!fits_somewhere) {
      reject_job(id, telemetry::kRejectImpossible,
                 "does not fit an idle device at chunk 1 / stream 1");
      progress = true;
    } else if (records_[idx].admission_attempts >= opts_.max_admission_attempts) {
      reject_job(id, telemetry::kRejectRetryBudget, "admission retry budget exhausted");
      progress = true;
    } else {
      // Gate the job behind an exponential backoff; later (smaller) jobs may
      // overtake it while it waits for committed memory to be released.
      const double exp = static_cast<double>(records_[idx].admission_attempts - 1);
      const SimTime delay = std::min(
          opts_.backoff_max, opts_.backoff_initial * std::pow(opts_.backoff_factor, exp));
      queue_.defer(id, host_now() + delay);
      record_flight(telemetry::FlightEventKind::Backoff, id,
                    records_[idx].admission_attempts, std::llround(delay * 1e9));
    }
  }
  return progress;
}

bool Scheduler::shard_eligible(int id) const {
  if (opts_.shard_threshold == 0) return false;
  const Job& job = jobs_[static_cast<std::size_t>(id)];
  // A consumer whose producer stashed a device-resident link must take the
  // solo path: its input lives in staging, not in host memory, and sharded
  // specs cannot carry handoffs.
  for (const JobInput& in : job.inputs) {
    const HandoffLink* link = link_for(in);
    if (link != nullptr && link->staging.stage != nullptr) return false;
  }
  if (!shardable(job.spec)) return false;
  int avail = 0;
  for (char c : dev_available_) avail += c;
  if (avail < 2) return false;
  // Size gate on the *requested* shape: what the job would ring-buffer on
  // one device if admission never shrank it.
  const Bytes fp = core::predicted_pipeline_footprint(
      *devices_[0], job.spec, job.spec.chunk_size, job.spec.num_streams);
  return fp >= opts_.shard_threshold;
}

bool Scheduler::launch_shard_round(Active& a) {
  const std::vector<int> devs = available_devices();
  if (devs.empty()) return false;
  const Job& job = jobs_[static_cast<std::size_t>(a.id)];
  const core::DryRunCost cost = cost_of(job);
  // Per-device solo estimates feed the load-aware weights; the plan cache
  // memoizes them per profile, so repeated rounds and same-profile devices
  // pay once.
  std::vector<SimTime> est(devices_.size(), kInf);
  for (int d : devs) {
    const std::size_t di = static_cast<std::size_t>(d);
    try {
      est[di] = core::estimate_pipeline_runtime(*devices_[di], job.spec, cost,
                                                admission_.cap(d));
    } catch (const gpu::OomError&) {
    }
  }
  if (!a.shard->start_round(devs, shard_weights(devs, est, outstanding_))) return false;
  arm_completion(a.id, a.shard->round_events());
  return true;
}

void Scheduler::arm_completion(int id, const std::vector<gpu::EventPtr>& events) {
  const std::size_t idx = static_cast<std::size_t>(id);
  board_->unfired[idx] = static_cast<int>(events.size());
  if (events.empty()) board_->signalled = true;
  for (const gpu::EventPtr& ev : events)
    ev->on_complete([board = board_, idx] {
      if (--board->unfired[idx] == 0) board->signalled = true;
    });
}

bool Scheduler::try_start_sharded(int id) {
  const std::size_t idx = static_cast<std::size_t>(id);
  JobRecord& r = records_[idx];

  Active a;
  a.id = id;
  a.estimate = r.estimate;
  ShardRunOptions so;
  so.max_shards = opts_.max_shards;
  so.reshard_interval = opts_.reshard_interval;
  so.trace_id = r.trace_id;
  if (opts_.recorder) {
    so.flight = [this, id](telemetry::FlightEventKind k, std::int64_t pa,
                           std::int64_t pb, int device) {
      telemetry::FlightEvent ev;
      ev.time = host_now();
      ev.kind = k;
      ev.trace_id = records_[static_cast<std::size_t>(id)].trace_id;
      ev.job = id;
      ev.device = device;
      ev.a = pa;
      ev.b = pb;
      opts_.recorder->record(ev);
    };
  }
  a.shard = std::make_unique<ShardRun>(jobs_[idx], devices_, admission_, std::move(so));
  if (!launch_shard_round(a)) return false;
  ++sharded_jobs_;
  ++shard_rounds_;

  r.state = JobState::Running;
  r.device = a.shard->first_device();
  r.start = host_now();
  r.footprint = a.shard->round_footprint();
  r.chunk_size = a.shard->first_chunk_size();
  r.num_streams = a.shard->first_num_streams();
  r.shrunk = a.shard->shrunk();
  a.device = r.device;
  a.footprint = r.footprint;

  // Spread the solo estimate over the first round's devices for the
  // least-loaded bookkeeping (held until completion; later rounds may use
  // other devices, but re-attributing mid-job would make placement depend
  // on reshard timing).
  if (std::isfinite(a.estimate) && a.shard->num_shards() > 0) {
    const SimTime share = a.estimate / a.shard->num_shards();
    for (int d : a.shard->shard_devices()) {
      outstanding_[static_cast<std::size_t>(d)] += share;
      a.shares.emplace_back(d, share);
    }
  }

  queue_.remove(id);
  record_flight(telemetry::FlightEventKind::Admit, id,
                static_cast<std::int64_t>(r.footprint), r.chunk_size);
  if (r.shrunk)
    record_flight(telemetry::FlightEventKind::Shrink, id, r.chunk_size, r.num_streams);
  record_flight(telemetry::FlightEventKind::Shard, id, a.shard->device_mask(),
                static_cast<std::int64_t>(a.shard->round_p2p_bytes()));
  log_debug("sched: job ", id, " (", jobs_[idx].name, ") sharded over ",
            a.shard->num_shards(), " devices, ", to_mib(r.footprint), " MiB total");
  active_.push_back(std::move(a));
  return true;
}

void Scheduler::start_job(int id, int dev, const AdmissionDecision& d) {
  const std::size_t idx = static_cast<std::size_t>(id);
  JobRecord& r = records_[idx];
  r.state = JobState::Running;
  r.device = dev;
  r.start = host_now();
  r.footprint = d.footprint;
  r.chunk_size = d.chunk_size;
  r.num_streams = d.num_streams;
  r.shrunk = d.shrunk;

  // Freeze the admitted shape: the pipeline re-solves its memory limit in
  // the constructor, and a limit of exactly the committed footprint keeps
  // the solved shape identical to the admission decision.
  core::PipelineSpec spec = jobs_[idx].spec;
  spec.chunk_size = d.chunk_size;
  spec.num_streams = d.num_streams;
  spec.mem_limit = d.footprint;
  admission_.commit(dev, d.footprint);

  Active a;
  a.id = id;
  a.device = dev;
  a.footprint = d.footprint;
  a.estimate = r.estimate;
  std::vector<core::DeviceLink*> ends;  // by ArrayHandoff::link
  if (opts_.stitching && lineage_jobs_ > 0) {
    // Consume side first: a mid-chain job both lands its inputs from an
    // upstream link and stashes its outputs for a downstream one. (Without
    // lineage in the mix there is nothing to wire, and the producer side's
    // scan of every later job would make starts quadratic.)
    wire_consumer_handoffs(id, dev, spec, ends);
    wire_producer_handoffs(id, dev, spec, ends);
  }
  gpu::Gpu& device = *devices_[static_cast<std::size_t>(dev)];
  // Publish the job's trace id for the whole submission window: every task
  // the pipeline submits (and the completion events below) captures it, so
  // the spans recorded at completion carry it even though other jobs'
  // submissions interleave in between.
  device.trace().set_trace_id(r.trace_id);
  a.pipeline = std::make_unique<core::Pipeline>(device, std::move(spec));
  if (!ends.empty()) {
    for (const core::ArrayHandoff& h : a.pipeline->spec().handoffs) {
      core::DeviceLink* end = ends[static_cast<std::size_t>(h.link)];
      a.pipeline->bind_link(static_cast<std::size_t>(h.array), h.produce ? end : nullptr,
                            h.produce ? nullptr : end);
    }
    // The optimizer's stitch pass measured exactly which host-transfer
    // bytes the handoff nodes replaced in this job's compiled plan.
    r.stitched_bytes = a.pipeline->opt_report().stitched_bytes;
  }
  a.pipeline->enqueue(jobs_[idx].kernel);
  // Completion is observed through events on the job's own streams — a
  // device-wide synchronize here would stall every co-resident tenant.
  for (gpu::Stream* s : a.pipeline->streams())
    a.events.push_back(device.record_event(*s));
  device.trace().set_trace_id(-1);
  arm_completion(id, a.events);
  if (std::isfinite(a.estimate)) outstanding_[static_cast<std::size_t>(dev)] += a.estimate;
  active_.push_back(std::move(a));

  if (opts_.placement == PlacementPolicy::RoundRobin)
    rr_cursor_ = (dev + 1) % num_devices();
  queue_.remove(id);
  record_flight(telemetry::FlightEventKind::Admit, id,
                static_cast<std::int64_t>(d.footprint), d.chunk_size);
  if (d.shrunk)
    record_flight(telemetry::FlightEventKind::Shrink, id, d.chunk_size, d.num_streams);
  log_debug("sched: job ", id, " (", jobs_[idx].name, ") -> dev", dev, ", chunk ",
            d.chunk_size, ", ", d.num_streams, " streams, ", to_mib(d.footprint), " MiB",
            d.shrunk ? " (shrunk)" : "");
}

void Scheduler::reject_job(int id, std::int64_t reason_code, std::string reason) {
  const std::size_t idx = static_cast<std::size_t>(id);
  // Lineage waiters are rejected straight from the wait list and were never
  // queued (drain_lineage_waiters enqueues only jobs it will not reject).
  if (records_[idx].state == JobState::Queued) queue_.remove(id);
  records_[idx].state = JobState::Rejected;
  records_[idx].reject_reason = std::move(reason);
  release_consumed_links(id);
  ++rejected_;
  record_flight(telemetry::FlightEventKind::Reject, id, reason_code);
  log_debug("sched: job ", id, " (", jobs_[idx].name, ") rejected: ",
            records_[idx].reject_reason);
}

void Scheduler::complete_job(Active& a) {
  const std::size_t idx = static_cast<std::size_t>(a.id);
  JobRecord& r = records_[idx];
  SimTime finish = 0.0;
  if (a.shard) {
    // Rounds already drained and released their admission commits; fold the
    // run's transfer totals into the scheduler counters.
    finish = a.shard->finish_time();
    p2p_halo_bytes_ += a.shard->p2p_bytes();
    a.shard.reset();
  } else {
    for (const auto& ev : a.events) finish = std::max(finish, ev->timestamp());
    // All events already fired, so the drain is bookkeeping; destroying the
    // pipeline releases its ring buffers and streams (per-stream sync only).
    a.pipeline->wait();
    const core::PipelineStats& st = a.pipeline->stats();
    h2d_bytes_total_ += st.h2d_bytes;
    d2h_bytes_total_ += st.d2h_bytes;
    a.pipeline.reset();
    admission_.release(a.device, a.footprint);
  }
  r.finish = finish;
  r.state = JobState::Completed;
  release_consumed_links(a.id);
  if (!a.shares.empty()) {
    for (const auto& [d, share] : a.shares)
      outstanding_[static_cast<std::size_t>(d)] -= share;
  } else if (std::isfinite(a.estimate)) {
    outstanding_[static_cast<std::size_t>(a.device)] -= a.estimate;
  }
  ++dev_completed_[static_cast<std::size_t>(a.device)];
  ++completed_;
  record_flight(telemetry::FlightEventKind::Complete, a.id,
                std::llround(r.service() * 1e9));
  if (opts_.watchdog) opts_.watchdog->observe_completion(host_now());
  if (jobs_[idx].deadline && finish > *jobs_[idx].deadline) {
    r.deadline_missed = true;
    record_flight(telemetry::FlightEventKind::DeadlineMiss, a.id,
                  std::llround((finish - *jobs_[idx].deadline) * 1e9));
    if (opts_.watchdog) opts_.watchdog->observe_deadline_miss(finish);
  }
  log_debug("sched: job ", a.id, " (", jobs_[idx].name, ") completed at ", finish,
            "s (wait ", r.wait(), "s, service ", r.service(), "s)");
}

std::vector<int> Scheduler::placement_order() const {
  // Only the currently-available devices are candidates; with no
  // DeviceEvents configured this is every device, as before.
  std::vector<int> order(devices_.size());
  for (std::size_t i = 0; i < devices_.size(); ++i) order[i] = static_cast<int>(i);
  if (opts_.placement == PlacementPolicy::RoundRobin) {
    std::rotate(order.begin(), order.begin() + rr_cursor_, order.end());
  } else {
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
      const std::size_t ia = static_cast<std::size_t>(a);
      const std::size_t ib = static_cast<std::size_t>(b);
      if (outstanding_[ia] != outstanding_[ib]) return outstanding_[ia] < outstanding_[ib];
      if (admission_.committed(a) != admission_.committed(b))
        return admission_.committed(a) < admission_.committed(b);
      return a < b;
    });
  }
  std::erase_if(order, [this](int d) {
    return !dev_available_[static_cast<std::size_t>(d)];
  });
  return order;
}

std::vector<int> Scheduler::placement_order_for(int id) const {
  std::vector<int> order = placement_order();
  if (!opts_.stitching) return order;
  // Lineage co-placement: trying the device that holds the consumed staging
  // first makes the handoff a same-device d2d instead of a P2P fallback.
  for (const JobInput& in : jobs_[static_cast<std::size_t>(id)].inputs) {
    const HandoffLink* link = link_for(in);
    if (link == nullptr || link->staging.stage == nullptr) continue;
    auto it = std::find(order.begin(), order.end(), link->device);
    if (it != order.end()) std::rotate(order.begin(), it, it + 1);
    return order;
  }
  return order;
}

// --- Inter-job stitching (docs/stitching.md) ---

Scheduler::HandoffLink* Scheduler::link_for(const JobInput& in) const {
  for (const auto& l : links_)
    if (l->producer == in.producer && l->array == in.source()) return l.get();
  return nullptr;
}

void Scheduler::wire_producer_handoffs(int id, int dev, core::PipelineSpec& spec,
                                       std::vector<core::DeviceLink*>& ends) {
  const std::size_t idx = static_cast<std::size_t>(id);
  // Collect the output arrays stitchable consumers will read. An array
  // qualifies only when both ends meet ArrayHandoff's geometric
  // preconditions (dim-0 affine split, matching per-index bytes), so the
  // wired specs always pass validation.
  struct Cand {
    int array = -1;
    int consumers = 0;
  };
  std::vector<Cand> cands;
  for (std::size_t j = idx + 1; j < jobs_.size(); ++j) {
    if (records_[j].state == JobState::Rejected) continue;
    for (const JobInput& in : jobs_[j].inputs) {
      if (in.producer != id) continue;
      const int pi = array_index(spec, in.source());
      if (pi < 0) continue;
      const core::ArraySpec& pa = spec.arrays[static_cast<std::size_t>(pi)];
      if (pa.map == core::MapType::To || pa.split.dim != 0 || pa.split.window_fn)
        continue;
      const int ci = array_index(jobs_[j].spec, in.array);
      if (ci < 0) continue;
      const core::ArraySpec& ca = jobs_[j].spec.arrays[static_cast<std::size_t>(ci)];
      if (ca.map == core::MapType::From || ca.split.dim != 0 || ca.split.window_fn)
        continue;
      if (ca.elem_size * ca.inner_elems() != pa.elem_size * pa.inner_elems()) continue;
      if (ca.dims[0] > pa.dims[0]) continue;  // consumer would read past production
      auto it = std::find_if(cands.begin(), cands.end(),
                             [pi](const Cand& c) { return c.array == pi; });
      if (it == cands.end())
        cands.push_back({pi, 1});
      else
        ++it->consumers;
    }
  }
  if (cands.empty()) return;

  // Cost gate: stitch only when the dry run predicts the handoff tail is no
  // slower than the D2H it replaces (the consumer's H2D win rides on top).
  // Link ids in the spec are per-spec ordinals, so identical job shapes
  // share one plan-cache entry; each indexes the job's `ends`.
  core::PipelineSpec stitched = spec;
  for (const Cand& c : cands)
    stitched.handoffs.push_back(
        {c.array, static_cast<int>(stitched.handoffs.size()), true});
  const Job& job = jobs_[idx];
  const core::DryRunCost cost = cost_of(job);
  gpu::Gpu& device = *devices_[static_cast<std::size_t>(dev)];
  try {
    const SimTime plain =
        core::estimate_pipeline_runtime(device, spec, cost, admission_.cap(dev));
    const SimTime with =
        core::estimate_pipeline_runtime(device, stitched, cost, admission_.cap(dev));
    if (with > plain) {
      log_debug("sched: job ", id, " stitch declined by cost model (", with, "s > ",
                plain, "s)");
      return;
    }
  } catch (const gpu::OomError&) {
    return;
  }

  for (const Cand& c : cands) {
    const core::ArraySpec& pa = spec.arrays[static_cast<std::size_t>(c.array)];
    const Bytes bytes = pa.total_bytes();
    // Staging holds the full produced array until the last consumer drains
    // it; its bytes are committed so tenants cannot be planned into them.
    if (admission_.committed(dev) + bytes > admission_.cap(dev)) continue;
    std::byte* staging = nullptr;
    try {
      staging = device.device_malloc(bytes);
    } catch (const gpu::OomError&) {
      continue;
    }
    admission_.commit(dev, bytes);
    auto link = std::make_unique<HandoffLink>();
    link->producer = id;
    link->array = pa.name;
    link->device = dev;
    link->bytes = bytes;
    link->consumers = c.consumers;
    link->staging.home = &device;
    link->staging.stage = staging;
    link->staging.unit = core::layout::unit_bytes(pa);
    spec.handoffs.push_back({c.array, static_cast<int>(spec.handoffs.size()), true});
    ends.push_back(&link->staging);
    records_[idx].stitched_out = true;
    record_flight(telemetry::FlightEventKind::Stitch, id,
                  static_cast<std::int64_t>(bytes), id);
    log_debug("sched: job ", id, " (", job.name, ") stashes '", pa.name,
              "' device-resident (", to_mib(bytes), " MiB, ", c.consumers,
              " consumer(s))");
    links_.push_back(std::move(link));
  }
}

void Scheduler::wire_consumer_handoffs(int id, int dev, core::PipelineSpec& spec,
                                       std::vector<core::DeviceLink*>& ends) {
  const std::size_t idx = static_cast<std::size_t>(id);
  for (const JobInput& in : jobs_[idx].inputs) {
    HandoffLink* link = link_for(in);
    if (link == nullptr || link->staging.stage == nullptr) continue;
    const int ci = array_index(spec, in.array);
    if (ci < 0) continue;
    core::DeviceLink* end = &link->staging;
    if (dev != link->device) {
      // Placement split the chain across devices: mirror the staging onto
      // this device with one peer copy (the P2P fallback) and read the
      // mirror. When even the mirror cannot fit, rescue the bytes to the
      // host and run unstitched.
      const bool had = link->mirror.stage != nullptr && link->mirror_device == dev;
      if (!stage_mirror(*link, dev)) {
        rescue_to_host(*link);
        continue;
      }
      if (!had) ++handoff_fallbacks_;
      records_[idx].handoff_fallback = true;
      end = &link->mirror;
    }
    spec.handoffs.push_back({ci, static_cast<int>(spec.handoffs.size()), false});
    ends.push_back(end);
    records_[idx].stitched_in = true;
    record_flight(telemetry::FlightEventKind::Stitch, id,
                  static_cast<std::int64_t>(link->bytes), in.producer);
    log_debug("sched: job ", id, " (", jobs_[idx].name, ") lands '", in.array,
              "' from job ", in.producer, "'s staging",
              dev != link->device ? " (p2p mirror)" : "");
  }
}

bool Scheduler::stage_mirror(HandoffLink& link, int dev) {
  if (link.mirror.stage != nullptr) {
    // One mirror per link: a third-device consumer falls back to the host
    // rescue rather than invalidating a mirror a peer may still read.
    return link.mirror_device == dev;
  }
  if (admission_.committed(dev) + link.bytes > admission_.cap(dev)) return false;
  gpu::Gpu& dst = *devices_[static_cast<std::size_t>(dev)];
  std::byte* mirror = nullptr;
  try {
    mirror = dst.device_malloc(link.bytes);
  } catch (const gpu::OomError&) {
    return false;
  }
  admission_.commit(dev, link.bytes);
  gpu::Gpu& src = *link.staging.home;
  src.memcpy_p2p_async(dst, mirror, link.staging.stage, link.bytes, src.default_stream());
  link.mirror.home = &dst;
  link.mirror.stage = mirror;
  link.mirror.lo = link.staging.lo;
  link.mirror.unit = link.staging.unit;
  link.mirror.ready = src.record_event(src.default_stream());
  link.mirror_device = dev;
  return true;
}

void Scheduler::rescue_to_host(HandoffLink& link) {
  // The producer skipped its host writeback when the link was wired; fill
  // the host buffer now so the consumer can fall back to plain H2D.
  const Job& prod = jobs_[static_cast<std::size_t>(link.producer)];
  const int pi = array_index(prod.spec, link.array);
  ensure(pi >= 0, "handoff link names an array its producer does not map");
  gpu::Gpu& src = *link.staging.home;
  src.memcpy_d2h_async(prod.spec.arrays[static_cast<std::size_t>(pi)].host,
                       link.staging.stage, link.bytes, src.default_stream());
  src.synchronize(src.default_stream());
  log_debug("sched: job ", link.producer, "'s '", link.array,
            "' handoff rescued to host (mirror did not fit)");
}

void Scheduler::release_consumed_links(int id) {
  for (const JobInput& in : jobs_[static_cast<std::size_t>(id)].inputs) {
    HandoffLink* link = link_for(in);
    if (link == nullptr) continue;
    if (--link->consumers <= 0) retire_link(*link);
  }
}

void Scheduler::retire_link(HandoffLink& link) {
  if (link.staging.stage != nullptr) {
    link.staging.home->device_free(link.staging.stage);
    admission_.release(link.device, link.bytes);
    link.staging.stage = nullptr;
  }
  if (link.mirror.stage != nullptr) {
    link.mirror.home->device_free(link.mirror.stage);
    admission_.release(link.mirror_device, link.bytes);
    link.mirror.stage = nullptr;
  }
  link.mirror.ready.reset();
}

// --- Virtual-time advancement ---

void Scheduler::advance() {
  SimTime next_arrival = kInf;
  if (next_pending_ < arrival_order_.size()) {
    const SimTime t =
        jobs_[static_cast<std::size_t>(arrival_order_[next_pending_])].arrival;
    // An arrival in the past means the queue is full; only a completion (or
    // a rejection, which needs no time) can unblock it.
    if (t > host_now()) next_arrival = t;
  }
  SimTime next_dev = kInf;
  if (next_dev_event_ < dev_events_.size()) {
    const SimTime t = dev_events_[next_dev_event_].time;
    if (t > host_now()) next_dev = t;
  }
  const SimTime wake =
      std::min({next_arrival, queue_.next_retry(host_now()), next_dev});
  // Sampling ticks additionally bound advancement (after the stall check:
  // a tick alone never represents pending work), so every sample is taken
  // at exactly its nominal time, not wherever the next event landed.
  if (active_.empty()) {
    ensure(std::isfinite(wake), "scheduler stalled: nothing running and no wake time");
    advance_to(std::min(wake, next_sample_));
  } else {
    advance_until_completion_or(std::min(wake, next_sample_));
  }
}

void Scheduler::advance_to(SimTime t) {
  ctx_->sim.run_until_time(t);
  ctx_->host_time = std::max(ctx_->host_time, t);
}

void Scheduler::advance_until_completion_or(SimTime bound) {
  const bool bounded = std::isfinite(bound);
  SimTime alarm = 0.0;
  if (bounded) {
    // A no-op "alarm" event guarantees the queue cannot drain before the
    // predicate turns true at the wake time.
    alarm = std::max(bound, ctx_->sim.now());
    ctx_->sim.schedule(alarm, [] {});
  }
  // O(1) per event: the completion hooks raise the board's signal.
  const CompletionBoard& board = *board_;
  ctx_->sim.run_until([&] {
    return board.signalled || (bounded && ctx_->sim.now() >= alarm);
  });
  ctx_->host_time = std::max(ctx_->host_time, ctx_->sim.now());
}

void Scheduler::note_queue_depth() {
  queue_depth_peak_ = std::max(queue_depth_peak_, queue_.size());
  queue_depth_samples_.push_back(queue_.size());
}

// --- Live observability ---

void Scheduler::record_flight(telemetry::FlightEventKind kind, int job, std::int64_t a,
                              std::int64_t b) {
  if (!opts_.recorder) return;
  telemetry::FlightEvent ev;
  ev.time = host_now();
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  if (job >= 0) {
    const JobRecord& r = records_[static_cast<std::size_t>(job)];
    ev.trace_id = r.trace_id;
    ev.job = job;
    ev.device = r.device;
  }
  opts_.recorder->record(ev);
}

void Scheduler::maybe_sample() {
  while (next_sample_ <= host_now()) {
    sample_at(next_sample_);
    next_sample_ += opts_.sample_every;
  }
}

void Scheduler::sample_at(SimTime t) {
  const core::PlanCacheStats pc = core::PlanCache::instance().stats();
  if (opts_.series) {
    telemetry::TimeSeriesStore& s = *opts_.series;
    s.add("sched.queue_depth", t, static_cast<double>(queue_.size()));
    s.add("sched.active_jobs", t, static_cast<double>(active_.size()));
    s.add("sched.completed", t, static_cast<double>(completed_));
    s.add("plan_cache.hit_rate", t, pc.hit_rate());
    const SimTime elapsed = t - t0_;
    for (int dev = 0; dev < num_devices(); ++dev) {
      const std::size_t di = static_cast<std::size_t>(dev);
      const std::string dp = "sched.dev" + std::to_string(dev) + ".";
      s.add(dp + "committed_bytes", t, static_cast<double>(admission_.committed(dev)));
      const SimTime busy = devices_[di]->compute_busy_time() - busy0_[di];
      s.add(dp + "utilization", t, elapsed > 0.0 ? busy / elapsed : 0.0);
    }
  }
  if (opts_.watchdog)
    opts_.watchdog->check(t, static_cast<int>(active_.size() + queue_.size()),
                          pc.disk_corrupt);
}

// --- Telemetry ---

void Scheduler::collect_metrics(telemetry::Registry& reg, const std::string& prefix) const {
  const std::string p = prefix + "sched.";
  reg.counter(p + "jobs_submitted").add(static_cast<std::int64_t>(jobs_.size()));
  reg.counter(p + "jobs_completed").add(completed_);
  reg.counter(p + "jobs_rejected").add(rejected_);
  reg.counter(p + "backpressure_events").add(backpressure_events_);
  const ScheduleReport totals = job_totals(records_);
  reg.counter(p + "admission_retries").add(totals.admission_retries);
  reg.counter(p + "admission_shrinks").add(totals.admission_shrinks);
  reg.counter(p + "deadline_misses").add(totals.deadline_misses);
  if (opts_.shard_threshold > 0) {
    // Gated on the feature so runs without sharding keep their exact
    // metric set (and golden exports) unchanged.
    reg.counter(p + "sharded_jobs").add(sharded_jobs_);
    reg.counter(p + "shard_rounds").add(shard_rounds_);
    reg.counter(p + "p2p_halo_bytes").add(static_cast<std::int64_t>(p2p_halo_bytes_));
  }
  if (lineage_jobs_ > 0) {
    // Same gate idea for stitching: mixes without Job::consumes keep their
    // exact metric set (and golden exports) unchanged.
    reg.counter(p + "lineage_jobs").add(lineage_jobs_);
    reg.counter(p + "stitched_jobs").add(totals.stitched_jobs);
    reg.counter(p + "stitched_bytes").add(static_cast<std::int64_t>(totals.stitched_bytes));
    reg.counter(p + "handoff_fallbacks").add(handoff_fallbacks_);
    reg.counter(p + "h2d_bytes").add(static_cast<std::int64_t>(h2d_bytes_total_));
    reg.counter(p + "d2h_bytes").add(static_cast<std::int64_t>(d2h_bytes_total_));
  }
  reg.gauge(p + "makespan_s").set(makespan_);
  reg.gauge(p + "queue_depth_peak").set(static_cast<double>(queue_depth_peak_));
  reg.counter(p + "queue.wakes").add(static_cast<std::int64_t>(queue_.woken_total()));
  reg.counter(p + "queue.defers").add(static_cast<std::int64_t>(queue_.defers_total()));
  reg.gauge(p + "queue.backoff_peak").set(static_cast<double>(queue_.backoff_peak()));
  if (opts_.recorder) {
    reg.counter(p + "recorder.events")
        .add(static_cast<std::int64_t>(opts_.recorder->total_recorded()));
    reg.counter(p + "recorder.dropped")
        .add(static_cast<std::int64_t>(opts_.recorder->dropped()));
  }
  if (opts_.watchdog)
    reg.counter(p + "watchdog.trips")
        .add(static_cast<std::int64_t>(opts_.watchdog->trips().size()));

  auto& wait = reg.histogram(p + "wait_s", time_bounds());
  auto& service = reg.histogram(p + "service_s", time_bounds());
  auto& turnaround = reg.histogram(p + "turnaround_s", time_bounds());
  // Serve-level model error: how far the solo dry-run estimate (the SJF and
  // least-loaded key) lands from the service time the job got under
  // contention.
  auto& est_error = reg.histogram(p + "estimate_rel_error",
                                  {0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0});
  for (const JobRecord& r : records_) {
    if (r.state != JobState::Completed) continue;
    wait.observe(r.wait());
    service.observe(r.service());
    turnaround.observe(r.turnaround());
    if (std::isfinite(r.estimate) && r.service() > 0.0)
      est_error.observe(std::abs(r.service() - r.estimate) / r.service());
  }
  auto& depth = reg.histogram(p + "queue_depth", {0, 1, 2, 4, 8, 16, 32});
  for (std::size_t d : queue_depth_samples_) depth.observe(static_cast<double>(d));

  for (int dev = 0; dev < num_devices(); ++dev) {
    const std::string dp = p + "dev" + std::to_string(dev) + ".";
    reg.gauge(dp + "mem_cap_bytes").set(static_cast<double>(admission_.cap(dev)));
    reg.gauge(dp + "committed_peak_bytes")
        .set(static_cast<double>(admission_.committed_peak(dev)));
    reg.counter(dp + "jobs_completed").add(dev_completed_[static_cast<std::size_t>(dev)]);
    const std::size_t di = static_cast<std::size_t>(dev);
    const SimTime busy = ran_ && di < busy0_.size()
                             ? devices_[di]->compute_busy_time() - busy0_[di]
                             : 0.0;
    reg.gauge(dp + "utilization").set(makespan_ > 0.0 ? busy / makespan_ : 0.0);
  }

  // The planning cache the admission/estimate hot path runs through; its
  // hit rate is the serve-loop health signal (docs/observability.md).
  core::PlanCache::instance().collect_metrics(reg, prefix);
}

}  // namespace gpupipe::sched
