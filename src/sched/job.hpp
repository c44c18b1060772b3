// Multi-tenant job descriptors (extension).
//
// Everything below src/sched executes exactly one pipelined region; a Job
// wraps such a region (spec + kernel factory) with the attributes a
// multi-tenant scheduler needs: priority, arrival time, an optional
// deadline, and per-iteration roofline hints that feed the cost-model dry
// run (core::estimate_pipeline_runtime) used for shortest-job-first
// ordering and least-loaded placement. JACC (arXiv:2110.14340) grows a
// directive runtime into a multi-GPU scheduling framework the same way;
// here the substrate is the deterministic simulator, so every scheduling
// decision is bit-reproducible.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"

namespace gpupipe::sched {

/// One lineage edge: this job consumes an array another job produced.
/// Declared with Job::consumes(); the scheduler holds the consumer until
/// the producer completes and, when the cost model agrees, stitches the
/// producer's D2H tail and the consumer's H2D head into a device-resident
/// handoff (core::ArrayHandoff + PlanOp::DeviceHandoff).
struct JobInput {
  int producer = -1;           ///< submit() id of the producing job
  std::string array;           ///< this job's input array (map `to`/`tofrom`)
  std::string producer_array;  ///< producer's output array; empty = same name

  /// The producer's array this input reads.
  const std::string& source() const { return producer_array.empty() ? array : producer_array; }
};

/// One offload request: a pipelined region plus scheduling attributes.
struct Job {
  std::string name = "job";
  core::PipelineSpec spec;
  core::KernelFactory kernel;
  /// Larger values run earlier under the Priority queue policy.
  int priority = 0;
  /// Virtual time at which the job becomes visible to the scheduler.
  SimTime arrival = 0.0;
  /// Optional absolute virtual-time completion target. The scheduler never
  /// preempts; a miss is recorded in the job's record, not enforced.
  std::optional<SimTime> deadline;
  /// Roofline kernel cost per loop iteration for the dry-run estimate
  /// (zero hints degrade the estimate to transfer time only).
  double flops_per_iter = 0.0;
  double bytes_per_iter = 0.0;
  /// Trace id stamped into this job's flight-recorder events and device
  /// spans (sim::Span::trace). -1 (the default) assigns the job id at
  /// submit(); callers replaying external traces can pin their own ids.
  std::int32_t trace_id = -1;
  /// Lineage edges: arrays this job reads that earlier-submitted jobs
  /// produce. The scheduler defers the job until every producer is
  /// terminal (rejecting it if a producer was rejected).
  std::vector<JobInput> inputs;

  /// Declares that this job's `array` is produced by `producer_job`'s
  /// `producer_array` (empty: the producer's array of the same name).
  /// Fluent, so job mixes can chain: `job.consumes(id, "x").consumes(...)`.
  Job& consumes(int producer_job, std::string array, std::string producer_array = {}) {
    inputs.push_back({producer_job, std::move(array), std::move(producer_array)});
    return *this;
  }
};

enum class JobState {
  Pending,    ///< submitted, arrival time not reached (or backpressured)
  Queued,     ///< in the ready queue, awaiting admission
  Running,    ///< admitted; its pipeline is enqueued on a device
  Completed,  ///< all stream work drained
  Rejected,   ///< admission gave up (cannot fit even on an idle device, or
              ///< the retry budget ran out)
};

inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Rejected: return "rejected";
  }
  return "?";
}

/// Everything the scheduler learned about one job (times are virtual).
struct JobRecord {
  int id = -1;
  std::string name;
  JobState state = JobState::Pending;
  std::int32_t trace_id = -1;  ///< id joining recorder events and spans
  int device = -1;             ///< placement; -1 until admitted
  int priority = 0;
  SimTime arrival = 0.0;
  SimTime enqueue_time = 0.0;  ///< entered the ready queue (backpressure delays this)
  SimTime start = 0.0;         ///< admitted and enqueued on the device
  SimTime finish = 0.0;        ///< timestamp of its last stream event
  SimTime estimate = 0.0;      ///< dry-run solo estimate (the SJF rank key), set at arrival
  Bytes footprint = 0;         ///< committed device ring-buffer bytes
  std::int64_t chunk_size = 0; ///< admitted shape
  int num_streams = 0;
  bool shrunk = false;         ///< admission shrank the requested shape
  int admission_attempts = 0;  ///< placement rounds the job needed
  bool deadline_missed = false;
  std::string reject_reason;
  /// Inter-job stitching outcome (docs/stitching.md). `stitched_out` means
  /// at least one output array was handed off device-resident — its host
  /// buffer was never written, so host-side verification must skip it.
  bool stitched_out = false;
  bool stitched_in = false;       ///< at least one input arrived via handoff
  Bytes stitched_bytes = 0;       ///< host transfer bytes this job avoided
  bool handoff_fallback = false;  ///< a consumed link needed a P2P mirror

  SimTime wait() const { return start - arrival; }
  SimTime service() const { return finish - start; }
  SimTime turnaround() const { return finish - arrival; }
};

}  // namespace gpupipe::sched
