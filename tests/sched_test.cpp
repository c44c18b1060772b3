// Multi-tenant scheduler tests: queue policies, admission control,
// backpressure/retry, the 2-device consolidation criterion, determinism,
// and the sched. telemetry namespace.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/checksum.hpp"
#include "common/export.hpp"
#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "gpu/device_profile.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"

namespace gpupipe {
namespace {

// --- Fixtures -------------------------------------------------------------

struct Machine {
  std::shared_ptr<gpu::SharedContext> ctx = gpu::make_shared_context();
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::vector<gpu::Gpu*> devices;

  explicit Machine(int n, const gpu::DeviceProfile& profile = gpu::nvidia_k40m()) {
    for (int i = 0; i < n; ++i) {
      gpus.push_back(std::make_unique<gpu::Gpu>(profile, gpu::ExecMode::Functional, ctx));
      devices.push_back(gpus.back().get());
    }
  }
};

SimTime solo_runtime(const sched::JobMixLine& line, int index) {
  sched::ServeJob sj = sched::make_serve_job(line, index);
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  core::Pipeline p(g, sj.job.spec);
  const SimTime t0 = g.host_now();
  p.run(sj.job.kernel);
  return g.host_now() - t0;
}

struct MixRun {
  sched::ScheduleReport report;
  std::vector<double> checksums;
};

MixRun run_mix(const std::vector<sched::JobMixLine>& mix, sched::SchedulerOptions opts,
               int num_devices = 2) {
  Machine m(num_devices);
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  MixRun r;
  r.report = s.run();
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.verify()) << j.job.name;
    r.checksums.push_back(j.output_checksum());
  }
  return r;
}

// The predicted footprint of a serve job's spec at a given shape, on a
// scratch device with the test profile.
Bytes footprint_at(const core::PipelineSpec& spec, std::int64_t c, int s) {
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  return core::predicted_pipeline_footprint(g, spec, c, s);
}

// --- JobQueue -------------------------------------------------------------

sched::JobQueue::Item item(int job, int priority, SimTime estimate,
                           SimTime not_before = 0.0) {
  sched::JobQueue::Item it;
  it.job = job;
  it.seq = static_cast<std::uint64_t>(job);
  it.priority = priority;
  it.estimate = estimate;
  it.not_before = not_before;
  return it;
}

TEST(JobQueue, FifoPicksSubmissionOrder) {
  sched::JobQueue q(sched::QueuePolicy::Fifo, 8);
  ASSERT_TRUE(q.push(item(2, 5, 0.1)));
  ASSERT_TRUE(q.push(item(0, 1, 9.0)));
  ASSERT_TRUE(q.push(item(1, 9, 0.5)));
  EXPECT_EQ(q.pick(0.0)->job, 0);
}

TEST(JobQueue, PriorityPicksHighestThenFifo) {
  sched::JobQueue q(sched::QueuePolicy::Priority, 8);
  ASSERT_TRUE(q.push(item(0, 1, 1.0)));
  ASSERT_TRUE(q.push(item(1, 3, 1.0)));
  ASSERT_TRUE(q.push(item(2, 3, 0.1)));  // ties with job 1; loses on seq
  EXPECT_EQ(q.pick(0.0)->job, 1);
  q.remove(1);
  EXPECT_EQ(q.pick(0.0)->job, 2);
}

TEST(JobQueue, SjfPicksSmallestEstimate) {
  sched::JobQueue q(sched::QueuePolicy::Sjf, 8);
  ASSERT_TRUE(q.push(item(0, 0, 3.0)));
  ASSERT_TRUE(q.push(item(1, 0, 1.0)));
  ASSERT_TRUE(q.push(item(2, 0, 1.0)));  // ties with job 1; loses on seq
  EXPECT_EQ(q.pick(0.0)->job, 1);
}

TEST(JobQueue, RetryGateSkipsUntilDue) {
  sched::JobQueue q(sched::QueuePolicy::Fifo, 8);
  ASSERT_TRUE(q.push(item(0, 0, 1.0, 5.0)));
  ASSERT_TRUE(q.push(item(1, 0, 1.0)));
  EXPECT_EQ(q.pick(0.0)->job, 1);  // job 0 gated
  q.remove(1);
  EXPECT_EQ(q.pick(0.0), nullptr);
  EXPECT_EQ(q.next_retry(0.0), 5.0);
  EXPECT_EQ(q.pick(5.0)->job, 0);
}

TEST(JobQueue, BoundedCapacity) {
  sched::JobQueue q(sched::QueuePolicy::Fifo, 1);
  EXPECT_TRUE(q.push(item(0, 0, 1.0)));
  EXPECT_TRUE(q.full());
  EXPECT_FALSE(q.push(item(1, 0, 1.0)));
}

// --- AdmissionController --------------------------------------------------

TEST(Admission, ShrinksOversizedJobToFitCap) {
  sched::ServeJob sj = sched::make_serve_job({"stream", "large", 0, 0.0, {}}, 0);
  const Bytes full = footprint_at(sj.job.spec, sj.job.spec.chunk_size,
                                  sj.job.spec.num_streams);
  Machine m(1);
  sched::AdmissionController ac(m.devices, full / 2);
  const sched::AdmissionDecision d = ac.try_admit(0, sj.job.spec);
  ASSERT_TRUE(d.admitted);
  EXPECT_TRUE(d.shrunk);
  EXPECT_LE(d.footprint, full / 2);
  EXPECT_LT(d.chunk_size, sj.job.spec.chunk_size);
}

TEST(Admission, RejectsWhenMinimalShapeExceedsCap) {
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  const Bytes min_fp = footprint_at(sj.job.spec, 1, 1);
  Machine m(1);
  sched::AdmissionController ac(m.devices, min_fp - 1);
  EXPECT_FALSE(ac.try_admit(0, sj.job.spec).admitted);
  EXPECT_TRUE(ac.impossible(0, sj.job.spec));
}

TEST(Admission, CommitReducesBudgetAndReleaseRestoresIt) {
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  const Bytes full = footprint_at(sj.job.spec, sj.job.spec.chunk_size,
                                  sj.job.spec.num_streams);
  const Bytes min_fp = footprint_at(sj.job.spec, 1, 1);
  Machine m(1);
  sched::AdmissionController ac(m.devices, full + min_fp / 2);
  const auto d = ac.try_admit(0, sj.job.spec);
  ASSERT_TRUE(d.admitted);
  EXPECT_FALSE(d.shrunk);
  ac.commit(0, d.footprint);
  // Remaining budget is below even the minimal shape: not admissible now,
  // but not impossible — a retry after release must succeed.
  EXPECT_FALSE(ac.try_admit(0, sj.job.spec).admitted);
  EXPECT_FALSE(ac.impossible(0, sj.job.spec));
  ac.release(0, d.footprint);
  EXPECT_TRUE(ac.try_admit(0, sj.job.spec).admitted);
  EXPECT_EQ(ac.committed(0), 0u);
  EXPECT_EQ(ac.committed_peak(0), d.footprint);
}

// --- Scheduler: consolidation acceptance ----------------------------------

TEST(Scheduler, EightJobMixOnTwoDevicesBeatsSoloRuns) {
  const auto mix = sched::default_job_mix(8);
  SimTime sum_solo = 0.0;
  for (std::size_t i = 0; i < mix.size(); ++i)
    sum_solo += solo_runtime(mix[i], static_cast<int>(i));

  const Bytes cap = 64 * MiB;
  Machine m(2);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = cap;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  EXPECT_EQ(rep.completed, 8);
  EXPECT_EQ(rep.rejected, 0);
  // The acceptance criterion: consolidation must beat back-to-back solo
  // runs by a clear margin.
  EXPECT_LT(rep.makespan, 0.8 * sum_solo);
  // Every job ran on some device, results are correct.
  for (const auto& j : jobs) EXPECT_TRUE(j.verify()) << j.job.name;
  // Committed footprints bound the real allocations: device peak memory
  // never exceeds the configured cap.
  for (const auto& g : m.gpus) EXPECT_LE(g->device_mem_stats().peak, cap);
  for (int d = 0; d < 2; ++d) EXPECT_LE(s.admission().committed_peak(d), cap);
  // Both devices actually served jobs.
  int dev0 = 0, dev1 = 0;
  for (const auto& r : rep.jobs) (r.device == 0 ? dev0 : dev1)++;
  EXPECT_GT(dev0, 0);
  EXPECT_GT(dev1, 0);
}

// --- Scheduler: admission retry and backpressure --------------------------

// Cap sized so one small job at full shape fits but a second does not even
// at (chunk 1, stream 1): the second job must retry until the first
// releases its footprint.
TEST(Scheduler, AdmissionFailureRetriesWithBackoffUntilMemoryFrees) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes full = footprint_at(probe.job.spec, probe.job.spec.chunk_size,
                                  probe.job.spec.num_streams);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  Machine m(1);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = full + min_fp - 1;
  opts.max_admission_attempts = 64;  // never reject in this test
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (int i = 0; i < 2; ++i) {
    jobs.push_back(sched::make_serve_job(line, i));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  EXPECT_EQ(rep.completed, 2);
  EXPECT_GT(rep.admission_retries, 0);
  EXPECT_GT(rep.jobs[1].admission_attempts, 1);
  // The second job could only start after the first finished.
  EXPECT_GE(rep.jobs[1].start, rep.jobs[0].finish);
  for (const auto& j : jobs) EXPECT_TRUE(j.verify());
}

TEST(Scheduler, FullQueueBackpressuresArrivals) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes full = footprint_at(probe.job.spec, probe.job.spec.chunk_size,
                                  probe.job.spec.num_streams);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  Machine m(1);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = full + min_fp - 1;  // one job at a time
  opts.queue_capacity = 1;
  opts.max_admission_attempts = 64;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (int i = 0; i < 3; ++i) {
    jobs.push_back(sched::make_serve_job(line, i));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  // Job 0 admits instantly; job 1 occupies the single queue slot; job 2's
  // arrival finds the queue full.
  EXPECT_EQ(rep.completed, 3);
  EXPECT_GT(rep.backpressure_events, 0);
  EXPECT_GT(rep.jobs[2].enqueue_time, rep.jobs[2].arrival);
}

TEST(Scheduler, RejectsJobThatCannotFitAnIdleDevice) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  Machine m(1);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = min_fp - 1;
  sched::Scheduler s(m.devices, opts);
  sched::ServeJob sj = sched::make_serve_job(line, 0);
  s.submit(sj.job);
  const sched::ScheduleReport rep = s.run();
  EXPECT_EQ(rep.completed, 0);
  EXPECT_EQ(rep.rejected, 1);
  EXPECT_EQ(rep.jobs[0].state, sched::JobState::Rejected);
  EXPECT_FALSE(rep.jobs[0].reject_reason.empty());
}

// --- Scheduler: solo estimates --------------------------------------------

// The estimate is computed when the job arrives but solves against the
// budget device 0 offered at submit(): here a wide tenant holds most of
// device 0 when the second one arrives, so admission has to shrink the
// newcomer, while its estimate still ranks the shape it asked for.
TEST(Scheduler, EstimateSolvesAgainstTheSubmitTimeBudget) {
  auto wide_job = [](int index, SimTime arrival) {
    sched::ServeJob sj =
        sched::make_synthetic_job({"stream", "small", 0, arrival, {}}, index);
    for (core::ArraySpec& a : sj.job.spec.arrays)
      a.dims[1] = static_cast<std::int64_t>(192 * MiB / sizeof(double));
    return sj;
  };
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  sched::Scheduler s({&g}, {});
  const sched::ServeJob first = wide_job(0, 0.0);
  const sched::ServeJob second = wide_job(1, 0.1);
  s.submit(first.job);
  s.submit(second.job);
  const sched::ScheduleReport rep = s.run();
  ASSERT_EQ(rep.completed, 2);
  const sched::JobRecord& a = rep.jobs[0];
  const sched::JobRecord& b = rep.jobs[1];
  ASSERT_LT(b.start, a.finish) << "the second tenant must arrive while the first runs";
  ASSERT_TRUE(b.shrunk) << "device 0 must be short of memory at the second arrival";

  gpu::Gpu idle(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  core::DryRunCost cost;
  cost.flops_per_iter = second.job.flops_per_iter;
  cost.bytes_per_iter = second.job.bytes_per_iter;
  EXPECT_EQ(b.estimate, core::estimate_pipeline_runtime(idle, second.job.spec, cost));
  // What reading device 0's free memory at arrival would have ranked.
  const Bytes live = idle.device_mem_free() - a.footprint;
  EXPECT_NE(b.estimate, core::estimate_pipeline_runtime(idle, second.job.spec, cost, live));
}

// --- Scheduler: policy behavior under contention --------------------------

// One slot of device memory, a burst of three jobs: the policy decides who
// gets the slot when it frees.
TEST(Scheduler, PriorityPolicyOvertakesFifoOrderUnderContention) {
  const sched::JobMixLine line{"stream", "small", 0, 0.0, {}};
  sched::ServeJob probe = sched::make_serve_job(line, 0);
  const Bytes full = footprint_at(probe.job.spec, probe.job.spec.chunk_size,
                                  probe.job.spec.num_streams);
  const Bytes min_fp = footprint_at(probe.job.spec, 1, 1);

  auto run_policy = [&](sched::QueuePolicy policy) {
    Machine m(1);
    sched::SchedulerOptions opts;
    opts.queue_policy = policy;
    opts.device_mem_cap = full + min_fp - 1;
    opts.max_admission_attempts = 64;
    sched::Scheduler s(m.devices, opts);
    std::vector<sched::ServeJob> jobs;
    for (int i = 0; i < 3; ++i) {
      jobs.push_back(sched::make_serve_job(line, i));
      jobs.back().job.priority = i;  // job 2 most urgent, submitted last
      s.submit(jobs.back().job);
    }
    return s.run();
  };

  const auto fifo = run_policy(sched::QueuePolicy::Fifo);
  ASSERT_EQ(fifo.completed, 3);
  EXPECT_LT(fifo.jobs[1].start, fifo.jobs[2].start);

  const auto prio = run_policy(sched::QueuePolicy::Priority);
  ASSERT_EQ(prio.completed, 3);
  EXPECT_LT(prio.jobs[2].start, prio.jobs[1].start);
}

// --- Scheduler: determinism ----------------------------------------------

void expect_identical(const MixRun& a, const MixRun& b) {
  ASSERT_EQ(a.report.jobs.size(), b.report.jobs.size());
  EXPECT_EQ(a.report.makespan, b.report.makespan);
  EXPECT_EQ(a.report.admission_retries, b.report.admission_retries);
  EXPECT_EQ(a.report.backpressure_events, b.report.backpressure_events);
  for (std::size_t i = 0; i < a.report.jobs.size(); ++i) {
    const auto& x = a.report.jobs[i];
    const auto& y = b.report.jobs[i];
    EXPECT_EQ(x.state, y.state) << i;
    EXPECT_EQ(x.device, y.device) << i;
    EXPECT_EQ(x.start, y.start) << i;
    EXPECT_EQ(x.finish, y.finish) << i;
    EXPECT_EQ(x.chunk_size, y.chunk_size) << i;
    EXPECT_EQ(x.num_streams, y.num_streams) << i;
    EXPECT_EQ(x.admission_attempts, y.admission_attempts) << i;
  }
  EXPECT_EQ(a.checksums, b.checksums);
}

TEST(Scheduler, SameMixTwiceIsBitIdentical) {
  const auto mix = sched::default_job_mix(9);
  sched::SchedulerOptions opts;
  opts.queue_policy = sched::QueuePolicy::Sjf;
  expect_identical(run_mix(mix, opts), run_mix(mix, opts));
}

TEST(Scheduler, PlanCacheToggleDoesNotChangeTheSchedule) {
  const auto mix = sched::default_job_mix(9);
  sched::SchedulerOptions opts;
  opts.queue_policy = sched::QueuePolicy::Sjf;
  core::PlanCache& cache = core::PlanCache::instance();
  cache.set_capacity(0);  // every planning call computes directly
  const MixRun off = run_mix(mix, opts);
  cache.set_capacity(core::PlanCache::kDefaultCapacity);
  cache.clear();
  const MixRun cold = run_mix(mix, opts);
  const MixRun warm = run_mix(mix, opts);  // all-hit replay
  expect_identical(off, cold);
  expect_identical(off, warm);
}

// The bytes the admission controller commits are the bytes the solver
// checked against the budget: the device's real allocation peak must stay
// under the per-device committed peak.
TEST(Scheduler, CommittedFootprintsBoundRealDevicePeaks) {
  const auto mix = sched::default_job_mix(8);
  Machine m(2);
  sched::SchedulerOptions opts;
  opts.device_mem_cap = 64 * MiB;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();
  EXPECT_EQ(rep.completed, 8);
  for (int d = 0; d < 2; ++d) {
    EXPECT_GT(s.admission().committed_peak(d), 0u);
    EXPECT_LE(m.gpus[d]->device_mem_stats().peak, s.admission().committed_peak(d))
        << "device " << d;
  }
}

TEST(Scheduler, MetricsToggleDoesNotChangeTheSchedule) {
  const auto mix = sched::default_job_mix(8);
  const bool was = telemetry::metrics_enabled();
  telemetry::set_metrics_enabled(false);
  const MixRun off = run_mix(mix, {});
  telemetry::set_metrics_enabled(true);
  const MixRun on = run_mix(mix, {});
  telemetry::set_metrics_enabled(was);
  expect_identical(off, on);
}

// --- Scheduler: deadlines and telemetry ----------------------------------

TEST(Scheduler, ImpossibleDeadlineIsRecordedNotEnforced) {
  Machine m(1);
  sched::Scheduler s(m.devices, {});
  sched::ServeJob sj = sched::make_serve_job({"stream", "small", 0, 0.0, {}}, 0);
  sj.job.deadline = 1e-9;  // before the first transfer can finish
  s.submit(sj.job);
  const sched::ScheduleReport rep = s.run();
  EXPECT_EQ(rep.completed, 1);
  EXPECT_TRUE(rep.jobs[0].deadline_missed);
  EXPECT_EQ(rep.deadline_misses, 1);
  EXPECT_TRUE(sj.verify());
}

TEST(Scheduler, CollectMetricsPopulatesSchedNamespace) {
  const auto mix = sched::default_job_mix(8);
  Machine m(2);
  sched::Scheduler s(m.devices, {});
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();

  telemetry::Registry reg;
  s.collect_metrics(reg, "serve.");
  EXPECT_EQ(reg.counter_value("serve.sched.jobs_submitted"), 8);
  EXPECT_EQ(reg.counter_value("serve.sched.jobs_completed"), 8);
  EXPECT_EQ(reg.counter_value("serve.sched.jobs_rejected"), 0);
  EXPECT_DOUBLE_EQ(reg.gauge_value("serve.sched.makespan_s"), rep.makespan);
  EXPECT_GT(reg.gauge_value("serve.sched.dev0.mem_cap_bytes"), 0.0);
  EXPECT_GT(reg.gauge_value("serve.sched.dev0.utilization"), 0.0);
  EXPECT_GT(reg.gauge_value("serve.sched.dev0.committed_peak_bytes"), 0.0);
  // Utilization is busy time over makespan with in-flight work pro-rated to
  // the sampling clock; it can never exceed 1.0 per device. (A regression
  // here means Engine::busy_time is crediting in-flight tasks their full
  // duration again.)
  for (int dev = 0; dev < 2; ++dev) {
    const double util =
        reg.gauge_value("serve.sched.dev" + std::to_string(dev) + ".utilization");
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
  }
  // The scheduler's snapshot includes the plan-cache namespace (the cache
  // serves every admission estimate; see docs/observability.md).
  EXPECT_GT(reg.gauge_value("serve.plan_cache.capacity"), 0.0);
  EXPECT_GT(reg.gauge_value("serve.plan_cache.entries"), 0.0);
  EXPECT_GT(reg.counter_value("serve.plan_cache.hits"), 0);
  const auto& hist = reg.histograms();
  ASSERT_TRUE(hist.count("serve.sched.wait_s"));
  ASSERT_TRUE(hist.count("serve.sched.turnaround_s"));
  EXPECT_EQ(hist.at("serve.sched.wait_s").count(), 8);
  EXPECT_EQ(hist.at("serve.sched.turnaround_s").count(), 8);
  // Serve-level model error: one observation per completed job, each
  // |service - estimate| / service of that job's record.
  ASSERT_TRUE(hist.count("serve.sched.estimate_rel_error"));
  const auto& err = hist.at("serve.sched.estimate_rel_error");
  EXPECT_EQ(err.count(), rep.completed);
  double err_sum = 0.0;
  for (const sched::JobRecord& r : rep.jobs) {
    EXPECT_GT(r.estimate, 0.0) << r.name;
    err_sum += std::abs(r.service() - r.estimate) / r.service();
  }
  EXPECT_DOUBLE_EQ(err.sum(), err_sum);
  // The snapshot is reproducible: two collections print identically.
  telemetry::Registry reg2;
  s.collect_metrics(reg2, "serve.");
  std::ostringstream a, b;
  reg.to_json(a);
  reg2.to_json(b);
  EXPECT_EQ(a.str(), b.str());
}

// --- Scheduler: control-loop goldens -------------------------------------
//
// Byte-exact pins of whole runs: every JobRecord field the control loop
// decides (times as IEEE bit patterns) and the flight-recorder JSONL,
// digested with FNV-1a. A change to completion detection, poll order, or
// time advancement that moves one placement, timestamp, or event fails here.

std::string bits(double x) {
  std::ostringstream os;
  os << std::hex << std::bit_cast<std::uint64_t>(x);
  return os.str();
}

std::string records_text(const std::vector<sched::JobRecord>& jobs) {
  std::ostringstream os;
  for (const sched::JobRecord& r : jobs)
    os << r.id << ' ' << sched::to_string(r.state) << ' ' << r.device << ' '
       << bits(r.enqueue_time) << ' ' << bits(r.start) << ' ' << bits(r.finish) << ' '
       << r.chunk_size << ' ' << r.num_streams << ' ' << r.footprint << ' '
       << r.admission_attempts << ' ' << r.deadline_missed << '\n';
  return os.str();
}

std::uint64_t digest(const std::string& s) {
  return fnv1a(std::span<const char>(s.data(), s.size()));
}

std::string events_jsonl(const telemetry::FlightRecorder& rec) {
  EXPECT_EQ(rec.dropped(), 0u) << "golden needs the whole event stream";
  std::ostringstream os;
  telemetry::export_events_jsonl(os, rec);
  return os.str();
}

// 700 Modeled tenants arriving 50 us apart (20k jobs/s) on 2 x K40m: the
// ready queue fills, arrivals backpressure, and many tenants run at once.
TEST(SchedulerGolden, SevenHundredJobBurstIsPinned) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  telemetry::FlightRecorder rec(1 << 16);
  sched::SchedulerOptions opts;
  opts.recorder = &rec;
  sched::Scheduler s({&g0, &g1}, opts);
  const std::vector<sched::JobMixLine> mix = sched::synthetic_job_mix(700);
  std::vector<sched::ServeJob> jobs;
  jobs.reserve(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_synthetic_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  const sched::ScheduleReport rep = s.run();
  const std::string events = events_jsonl(rec);
  EXPECT_EQ(rep.completed, 700);
  EXPECT_EQ(rep.backpressure_events, 10);
  EXPECT_EQ(rec.total_recorded(), 2110u);
  EXPECT_EQ(digest(records_text(rep.jobs)), 16392111430609873386ULL);
  EXPECT_EQ(digest(events), 2276878205084549653ULL);
}

// A sharded job loses every device inside its first round and gets device
// 0 back later: the round boundary finds no device, so the job stalls
// (not done, not complete) until the join event, then finishes solo. A
// small tenant arriving during the outage backs off until the join.
TEST(SchedulerGolden, ShardedRunThroughADeviceOutageIsPinned) {
  sched::JobMixLine big;
  big.app = "stencil";
  big.size = "large";
  sched::JobMixLine small{"stream", "small", 0, 0.0, {}};
  sched::SchedulerOptions opts;
  opts.shard_threshold = 1;
  opts.reshard_interval = sched::make_serve_job(big, 0).job.spec.iterations() / 4;

  auto run = [&](telemetry::FlightRecorder* rec) {
    Machine m(2);
    sched::SchedulerOptions o = opts;
    o.recorder = rec;
    sched::Scheduler s(m.devices, o);
    std::vector<sched::ServeJob> jobs;
    jobs.push_back(sched::make_serve_job(big, 0));
    jobs.push_back(sched::make_serve_job(small, 1));
    for (const auto& j : jobs) s.submit(j.job);
    MixRun r;
    r.report = s.run();
    for (const auto& j : jobs) {
      EXPECT_TRUE(j.verify()) << j.job.name;
      r.checksums.push_back(j.output_checksum());
    }
    return r;
  };

  // The unperturbed run fixes the timeline: both devices leave early in
  // round 1 and device 0 rejoins well after round 1's boundary.
  telemetry::FlightRecorder ref_rec;
  const sched::JobRecord ref = run(&ref_rec).report.jobs[0];
  SimTime first_boundary = ref.finish;
  for (const auto& ev : ref_rec.events())
    if (ev.kind == telemetry::FlightEventKind::Reshard)
      first_boundary = std::min(first_boundary, ev.time);
  const SimTime service = ref.finish - ref.start;
  const SimTime leave = ref.start + 0.05 * service;
  const SimTime join = first_boundary + 0.5 * service;
  opts.device_events = {{leave, 0, false}, {leave, 1, false}, {join, 0, true}};
  small.arrival = leave;

  telemetry::FlightRecorder rec;
  const MixRun out = run(&rec);
  ASSERT_EQ(out.report.completed, 2);
  // Round 1 drained during the outage; round 2 waited for the join and ran
  // on device 0 alone.
  const std::vector<telemetry::FlightEvent> events = rec.events();
  const auto relaunch = std::find_if(events.begin(), events.end(), [](const auto& ev) {
    return ev.kind == telemetry::FlightEventKind::Reshard;
  });
  ASSERT_NE(relaunch, events.end());
  EXPECT_GE(relaunch->time, join);
  EXPECT_GT(join, first_boundary);
  EXPECT_EQ(relaunch->a, 0b01);
  EXPECT_EQ(rec.total_recorded(), 18u);
  EXPECT_EQ(digest(records_text(out.report.jobs)), 12601611797072402288ULL);
  EXPECT_EQ(digest(events_jsonl(rec)), 13857403784434871164ULL);
}

// The record fields the goldens above predate: the SJF key and the reason.
std::string estimates_text(const std::vector<sched::JobRecord>& jobs) {
  std::ostringstream os;
  for (const sched::JobRecord& r : jobs)
    os << r.id << ' ' << bits(r.estimate) << ' ' << r.reject_reason << '\n';
  return os.str();
}

// `n` Modeled tenants `spacing` apart, each with its own shape: distinct
// row counts (37 is coprime with 385), chunk sizes and stream counts cycling
// through 4 x 4 combinations. Nearly every job plans a one-off region.
std::vector<sched::ServeJob> distinct_shape_jobs(int n, SimTime spacing) {
  const std::vector<sched::JobMixLine> mix = sched::synthetic_job_mix(n);
  std::vector<sched::ServeJob> jobs;
  jobs.reserve(mix.size());
  for (int i = 0; i < n; ++i) {
    sched::JobMixLine line = mix[static_cast<std::size_t>(i)];
    line.arrival = spacing * static_cast<double>(i);
    sched::ServeJob sj = sched::make_synthetic_job(line, i);
    const std::int64_t rows = 64 + (37 * i) % 385;
    const std::int64_t out_rows = sj.app == "stencil" ? rows - 2 : rows;
    core::PipelineSpec& spec = sj.job.spec;
    spec.arrays[0].dims[0] = rows;
    spec.arrays[1].dims[0] = out_rows;
    spec.loop_end = out_rows;
    spec.chunk_size = std::array<std::int64_t, 4>{4, 8, 16, 32}[i % 4];
    spec.num_streams = 1 + (i / 4) % 4;
    sj.rows = rows;
    jobs.push_back(std::move(sj));
  }
  return jobs;
}

// 300 one-off shapes under SJF at 500 jobs/s on 2 x K40m capped at 48 MiB:
// tenants wait for memory, the queue fills (and backpressures past 32
// slots), and every pick ranks jobs by their estimates. A
// 3-stage lineage chain arrives mid-run whose head (8 GiB rows) cannot fit
// an idle device: the head is rejected as impossible, its consumers with
// reason "lineage".
TEST(SchedulerGolden, DistinctShapeSjfMixWithARejectedChainIsPinned) {
  auto run = [](telemetry::FlightRecorder* rec, telemetry::TimeSeriesStore* series,
                telemetry::Registry* reg) {
    auto ctx = gpu::make_shared_context();
    gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
    gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
    sched::SchedulerOptions opts;
    opts.queue_policy = sched::QueuePolicy::Sjf;
    opts.device_mem_cap = 48 * MiB;
    opts.queue_capacity = 32;
    opts.recorder = rec;
    opts.series = series;
    if (series) opts.sample_every = 0.005;
    sched::Scheduler s({&g0, &g1}, opts);
    std::vector<sched::ServeJob> jobs = distinct_shape_jobs(300, 0.002);
    for (int k = 0; k < 3; ++k) {
      sched::JobMixLine line{"stream", "small", 0, 0.3 + 0.001 * k, {}};
      const int id = static_cast<int>(jobs.size());
      sched::ServeJob sj = sched::make_synthetic_job(line, id);
      if (k == 0) {
        for (core::ArraySpec& a : sj.job.spec.arrays) a.dims[1] = std::int64_t{1} << 30;
      } else {
        sj.job.consumes(id - 1, "in", "out");
      }
      jobs.push_back(std::move(sj));
    }
    for (const auto& j : jobs) s.submit(j.job);
    const sched::ScheduleReport rep = s.run();
    if (reg) s.collect_metrics(*reg);
    return rep;
  };

  telemetry::FlightRecorder rec(1 << 16);
  telemetry::Registry reg;
  const sched::ScheduleReport rep = run(&rec, nullptr, &reg);
  EXPECT_EQ(rep.completed, 300);
  EXPECT_EQ(rep.rejected, 3);
  EXPECT_EQ(rep.jobs[300].reject_reason, "does not fit an idle device at chunk 1 / stream 1");
  EXPECT_TRUE(std::isinf(rep.jobs[300].estimate));
  for (int k : {301, 302}) {
    EXPECT_EQ(rep.jobs[static_cast<std::size_t>(k)].state, sched::JobState::Rejected);
    EXPECT_EQ(rep.jobs[static_cast<std::size_t>(k)].reject_reason,
              "a lineage producer was rejected");
    EXPECT_GT(rep.jobs[static_cast<std::size_t>(k)].estimate, 0.0);
  }
  EXPECT_GT(rep.backpressure_events, 0);
  EXPECT_EQ(reg.histograms().at("sched.estimate_rel_error").count(), rep.completed);
  EXPECT_EQ(rec.total_recorded(), 1629u);
  EXPECT_EQ(digest(records_text(rep.jobs)), 5705109416280359259ULL);
  EXPECT_EQ(digest(estimates_text(rep.jobs)), 5995158407283927394ULL);
  EXPECT_EQ(digest(events_jsonl(rec)), 2298807782097593833ULL);

  // Observation purity: sampling (which reads the plan cache mid-run) and
  // recording leave every record untouched.
  telemetry::TimeSeriesStore series;
  const sched::ScheduleReport plain = run(nullptr, nullptr, nullptr);
  const sched::ScheduleReport sampled = run(nullptr, &series, nullptr);
  EXPECT_GT(series.series("plan_cache.hit_rate").size(), 0u);
  for (const sched::ScheduleReport* other : {&plain, &sampled}) {
    EXPECT_EQ(records_text(other->jobs), records_text(rep.jobs));
    EXPECT_EQ(estimates_text(other->jobs), estimates_text(rep.jobs));
  }
}

// --- Scheduler: plan-cache traffic ---------------------------------------

// A one-off shape is planned once: its estimate is computed at arrival, so
// the plan that estimate compiled is still cached when the job starts. Per
// job the estimate memo, the footprint at the requested shape, and the plan
// each miss once; admission and the pipeline's constructor hit. A disabled
// cache computes everything twice but schedules identically.
TEST(SchedulerPlanCache, DistinctShapesMissThreeTimesPerJob) {
  core::PlanCache& cache = core::PlanCache::instance();
  const std::size_t capacity = cache.capacity();
  struct Run {
    sched::ScheduleReport report;
    std::int64_t misses = 0;
  };
  auto run = [&](std::size_t cap) {
    cache.set_capacity(cap);
    cache.clear();
    auto ctx = gpu::make_shared_context();
    gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
    gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
    sched::Scheduler s({&g0, &g1}, {});
    const std::int64_t misses0 = cache.stats().misses;
    for (const sched::ServeJob& j : distinct_shape_jobs(200, 0.010)) s.submit(j.job);
    Run r;
    r.report = s.run();
    r.misses = cache.stats().misses - misses0;
    return r;
  };
  const Run cached = run(16);
  const Run off = run(0);
  cache.set_capacity(capacity);
  cache.clear();

  EXPECT_EQ(cached.report.completed, 200);
  EXPECT_EQ(cached.misses, 3 * 200);
  EXPECT_EQ(records_text(cached.report.jobs), records_text(off.report.jobs));
  EXPECT_EQ(estimates_text(cached.report.jobs), estimates_text(off.report.jobs));
}

// --- Scheduler: completion-hook lifetime ---------------------------------

// A run abandoned by an exception leaves completion hooks armed on events
// that still fire: while the scheduler tears down its pipelines, and
// whenever the shared context is stepped afterwards. The hooks must not
// reach into the dead scheduler (the ASan CI job runs this test).
TEST(SchedulerLifetime, AbandonedRunLeavesNoDanglingCompletionHook) {
  auto ctx = gpu::make_shared_context();
  gpu::Gpu g0(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  gpu::Gpu g1(gpu::nvidia_k40m(), gpu::ExecMode::Modeled, ctx);
  const std::vector<sched::JobMixLine> mix = sched::synthetic_job_mix(24);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i)
    jobs.push_back(sched::make_synthetic_job(mix[i], static_cast<int>(i)));

  // A watchdog whose trip handler throws aborts run() between events, with
  // jobs admitted and in flight.
  telemetry::WatchdogOptions wo;
  wo.stall_timeout = 1e-5;
  telemetry::Watchdog wd(wo);
  wd.on_trip = [](const telemetry::WatchdogTrip&) { throw std::runtime_error("abandon"); };
  sched::SchedulerOptions opts;
  opts.watchdog = &wd;
  opts.sample_every = 1e-5;
  {
    sched::Scheduler s({&g0, &g1}, opts);
    for (const auto& j : jobs) s.submit(j.job);
    EXPECT_THROW(s.run(), std::runtime_error);
    EXPECT_GT(ctx->sim.events_pending(), 0u) << "the run must abandon work in flight";
  }
  ctx->sim.run_all();

  // The machine stays usable: a fresh scheduler runs a job to completion.
  sched::Scheduler again({&g0, &g1}, {});
  again.submit(jobs[0].job);
  EXPECT_EQ(again.run().completed, 1);
}

// --- Workloads ------------------------------------------------------------

TEST(Workloads, ParsesJobMixWithCommentsAndDeadlines) {
  std::istringstream is(
      "# a comment line\n"
      "stream medium 1 0.000\n"
      "\n"
      "stencil large 0 0.002 0.05  # trailing comment\n");
  const auto mix = sched::parse_job_mix(is);
  ASSERT_EQ(mix.size(), 2u);
  EXPECT_EQ(mix[0].app, "stream");
  EXPECT_EQ(mix[0].size, "medium");
  EXPECT_EQ(mix[0].priority, 1);
  EXPECT_FALSE(mix[0].deadline.has_value());
  EXPECT_EQ(mix[1].app, "stencil");
  ASSERT_TRUE(mix[1].deadline.has_value());
  EXPECT_DOUBLE_EQ(*mix[1].deadline, 0.05);
}

TEST(Workloads, RejectsMalformedMixLines) {
  std::istringstream bad_app("warp medium 0 0.0\n");
  EXPECT_THROW(sched::parse_job_mix(bad_app), Error);
  std::istringstream missing("stream medium\n");
  EXPECT_THROW(sched::parse_job_mix(missing), Error);
  std::istringstream trailing("stream medium 0 0.0 0.1 junk\n");
  EXPECT_THROW(sched::parse_job_mix(trailing), Error);
}

TEST(Workloads, DefaultMixIsDeterministicAndSubmittable) {
  const auto a = sched::default_job_mix(6);
  const auto b = sched::default_job_mix(6);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    sched::ServeJob sj = sched::make_serve_job(a[i], static_cast<int>(i));
    EXPECT_NO_THROW(sj.job.spec.validate());
  }
}

}  // namespace
}  // namespace gpupipe
