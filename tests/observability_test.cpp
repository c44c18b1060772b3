// Live observability tests: flight-recorder ring semantics and trace-id
// propagation through a scheduled run, watchdog triggers (deadline storm,
// stall, disk corruption), sampler determinism, byte-exact exporter golden
// files, strict span-ring mode, and plan-cache disk compaction.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/export.hpp"
#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_serialize.hpp"
#include "gpu/device_profile.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"
#include "sim/trace.hpp"

namespace gpupipe {
namespace {

namespace fs = std::filesystem;
using telemetry::FlightEvent;
using telemetry::FlightEventKind;
using telemetry::FlightRecorder;

// --- Fixtures -------------------------------------------------------------

struct Machine {
  std::shared_ptr<gpu::SharedContext> ctx = gpu::make_shared_context();
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::vector<gpu::Gpu*> devices;

  explicit Machine(int n, gpu::ExecMode mode = gpu::ExecMode::Modeled) {
    for (int i = 0; i < n; ++i) {
      gpus.push_back(std::make_unique<gpu::Gpu>(gpu::nvidia_k40m(), mode, ctx));
      devices.push_back(gpus.back().get());
    }
  }
};

sched::ScheduleReport run_synthetic(Machine& m, sched::SchedulerOptions opts, int n) {
  sched::Scheduler s(m.devices, opts);
  const auto mix = sched::synthetic_job_mix(n);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_synthetic_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  return s.run();
}

FlightEvent event(FlightEventKind kind, SimTime t, std::int32_t trace = -1,
                  std::int32_t job = -1, std::int32_t device = -1, std::int64_t a = 0,
                  std::int64_t b = 0) {
  FlightEvent ev;
  ev.time = t;
  ev.kind = kind;
  ev.trace_id = trace;
  ev.job = job;
  ev.device = device;
  ev.a = a;
  ev.b = b;
  return ev;
}

// --- Histogram::quantile --------------------------------------------------

TEST(HistogramQuantile, InterpolatesWithinBuckets) {
  telemetry::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // bucket (0, 1]
  h.observe(1.5);  // bucket (1, 2]
  h.observe(1.7);
  h.observe(3.0);  // bucket (2, 4]
  // rank 2 lands halfway through the (1, 2] bucket's two observations.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(HistogramQuantile, EmptyAndTailBuckets) {
  telemetry::Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  telemetry::Histogram h({1.0, 2.0});
  h.observe(10.0);  // +inf tail: reports its lower bound
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 2.0);
}

// --- FlightRecorder -------------------------------------------------------

TEST(FlightRecorderTest, RingKeepsNewestAndCountsDrops) {
  FlightRecorder rec(4);
  for (int i = 0; i < 10; ++i)
    rec.record(event(FlightEventKind::Enqueue, 0.1 * i, i, i));
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.total_recorded(), 10u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].job, 6 + i);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(FlightRecorderTest, RecordNowStampsConfiguredClock) {
  FlightRecorder rec(8);
  rec.record_now(FlightEventKind::DiskHit, -1, -1, -1, 100);
  rec.set_clock([] { return 2.5; });
  rec.record_now(FlightEventKind::DiskCorrupt);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 0.0);  // no clock configured yet
  EXPECT_DOUBLE_EQ(events[1].time, 2.5);
  EXPECT_EQ(events[0].a, 100);
}

// --- Watchdog -------------------------------------------------------------

TEST(WatchdogTest, DeadlineStormTripsOncePerStorm) {
  FlightRecorder rec(32);
  telemetry::WatchdogOptions opt;
  opt.deadline_storm_misses = 3;
  opt.deadline_window = 1.0;
  telemetry::Watchdog dog(opt, &rec);
  dog.observe_deadline_miss(0.1);
  dog.observe_deadline_miss(0.2);
  EXPECT_TRUE(dog.trips().empty());
  dog.observe_deadline_miss(0.3);
  ASSERT_EQ(dog.trips().size(), 1u);
  EXPECT_EQ(dog.trips()[0].reason, telemetry::kTripDeadlineStorm);
  EXPECT_EQ(dog.trips()[0].value, 3);
  dog.observe_deadline_miss(0.4);  // still the same storm: no re-trip
  EXPECT_EQ(dog.trips().size(), 1u);
  // The window drains, then a fresh storm trips again.
  dog.observe_deadline_miss(5.0);
  dog.observe_deadline_miss(5.1);
  dog.observe_deadline_miss(5.2);
  EXPECT_EQ(dog.trips().size(), 2u);
  int recorded = 0;
  for (const auto& ev : rec.events())
    if (ev.kind == FlightEventKind::WatchdogTrip) ++recorded;
  EXPECT_EQ(recorded, 2);
}

TEST(WatchdogTest, StallTripsAndProgressRearms) {
  telemetry::WatchdogOptions opt;
  opt.stall_timeout = 1.0;
  telemetry::Watchdog dog(opt);
  int fired = 0;
  dog.on_trip = [&](const telemetry::WatchdogTrip&) { ++fired; };
  dog.check(0.0, 1);  // arms
  dog.check(0.5, 1);
  EXPECT_EQ(fired, 0);
  dog.check(1.5, 1);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(dog.trips()[0].reason, telemetry::kTripStall);
  dog.check(2.0, 1);  // already stalled: no re-trip without progress
  EXPECT_EQ(fired, 1);
  dog.observe_completion(2.0);
  dog.check(2.5, 1);
  EXPECT_EQ(fired, 1);
  dog.check(3.5, 1);
  EXPECT_EQ(fired, 2);
  dog.check(10.0, 0);  // idle machine never stalls
  EXPECT_EQ(fired, 2);
}

TEST(WatchdogTest, DiskCorruptionGrowthTrips) {
  telemetry::WatchdogOptions opt;
  opt.trip_on_disk_corrupt = true;
  telemetry::Watchdog dog(opt);
  dog.check(0.0, 0, 0);
  EXPECT_TRUE(dog.trips().empty());
  dog.check(1.0, 0, 2);
  ASSERT_EQ(dog.trips().size(), 1u);
  EXPECT_EQ(dog.trips()[0].reason, telemetry::kTripDiskCorrupt);
  EXPECT_EQ(dog.trips()[0].value, 2);
  dog.check(2.0, 0, 2);  // unchanged counter: no re-trip
  EXPECT_EQ(dog.trips().size(), 1u);
  dog.check(3.0, 0, 3);
  EXPECT_EQ(dog.trips().size(), 2u);
}

// --- Exporters (byte-exact golden output) ---------------------------------

TEST(ExporterTest, PrometheusGoldenBytes) {
  telemetry::Registry reg;
  reg.counter("sched.jobs").add(3);
  reg.gauge("sched.util").set(0.5);
  auto& h = reg.histogram("sched.wait_s", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  std::ostringstream os;
  telemetry::export_prometheus(os, reg);
  EXPECT_EQ(os.str(),
            "# TYPE gpupipe_sched_jobs counter\n"
            "gpupipe_sched_jobs 3\n"
            "# TYPE gpupipe_sched_util gauge\n"
            "gpupipe_sched_util 0.5\n"
            "# TYPE gpupipe_sched_wait_s histogram\n"
            "gpupipe_sched_wait_s_bucket{le=\"1\"} 1\n"
            "gpupipe_sched_wait_s_bucket{le=\"2\"} 2\n"
            "gpupipe_sched_wait_s_bucket{le=\"+Inf\"} 2\n"
            "gpupipe_sched_wait_s_sum 2\n"
            "gpupipe_sched_wait_s_count 2\n");
}

TEST(ExporterTest, EventsJsonlGoldenBytes) {
  FlightRecorder rec(16);
  rec.record(event(FlightEventKind::Enqueue, 0.5, 7, 7));
  rec.record(event(FlightEventKind::Admit, 1.0, 7, 7, 0, 1024, 16));
  rec.record(event(FlightEventKind::Reject, 2.0, 9, 9, -1, telemetry::kRejectRetryBudget));
  rec.record(event(FlightEventKind::WatchdogTrip, 3.0, -1, -1, -1, telemetry::kTripStall, 5));
  rec.record(event(FlightEventKind::Shard, 4.0, 7, 7, 0, 3, 4096));
  rec.record(event(FlightEventKind::Reshard, 5.0, 7, 7, 0, 1, 128));
  rec.record(event(FlightEventKind::P2pXfer, 6.0, 7, 7, 0, 2048, 1));
  std::ostringstream os;
  telemetry::export_events_jsonl(os, rec);
  EXPECT_EQ(os.str(),
            "{\"t\":0.5,\"event\":\"enqueue\",\"trace\":7,\"job\":7}\n"
            "{\"t\":1,\"event\":\"admit\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"footprint\":1024,\"chunk\":16}\n"
            "{\"t\":2,\"event\":\"reject\",\"trace\":9,\"job\":9,"
            "\"reason\":\"retry-budget\"}\n"
            "{\"t\":3,\"event\":\"watchdog-trip\",\"reason\":\"stall\",\"value\":5}\n"
            "{\"t\":4,\"event\":\"shard\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"devices\":3,\"halo_bytes\":4096}\n"
            "{\"t\":5,\"event\":\"reshard\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"devices\":1,\"remaining\":128}\n"
            "{\"t\":6,\"event\":\"p2p-xfer\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"bytes\":2048,\"src\":1}\n");
}

TEST(ExporterTest, SeriesJsonlGoldenBytes) {
  telemetry::TimeSeriesStore store;
  store.add("sched.queue_depth", 0.001, 3.0);
  store.add("sched.queue_depth", 0.002, 1.0);
  store.add("plan_cache.hit_rate", 0.001, 0.25);
  std::ostringstream os;
  telemetry::export_series_jsonl(os, store);
  // Series iterate in name order regardless of insertion order.
  EXPECT_EQ(os.str(),
            "{\"series\":\"plan_cache.hit_rate\",\"t\":0.001,\"v\":0.25}\n"
            "{\"series\":\"sched.queue_depth\",\"t\":0.001,\"v\":3}\n"
            "{\"series\":\"sched.queue_depth\",\"t\":0.002,\"v\":1}\n");
}

// --- Trace-id propagation through a scheduled run -------------------------

TEST(ObservabilityRun, TraceIdJoinsRecorderEventsAndSpans) {
  Machine m(2);
  for (gpu::Gpu* d : m.devices) d->trace().set_enabled(true);
  FlightRecorder rec(4096);
  sched::SchedulerOptions opts;
  opts.recorder = &rec;
  const auto rep = run_synthetic(m, opts, 6);
  ASSERT_EQ(rep.completed, 6);
  const auto events = rec.events();
  for (const auto& r : rep.jobs) {
    ASSERT_EQ(r.trace_id, r.id);  // default ids are the submission index
    // The job's recorder chain: enqueue -> admit -> complete, in time order,
    // all carrying its trace id.
    SimTime enqueue = -1.0, admit = -1.0, complete = -1.0;
    for (const auto& ev : events) {
      if (ev.trace_id != r.trace_id) continue;
      if (ev.kind == FlightEventKind::Enqueue) enqueue = ev.time;
      if (ev.kind == FlightEventKind::Admit) {
        admit = ev.time;
        EXPECT_EQ(ev.device, r.device);
        EXPECT_EQ(ev.a, static_cast<std::int64_t>(r.footprint));
        EXPECT_EQ(ev.b, r.chunk_size);
      }
      if (ev.kind == FlightEventKind::Complete) {
        complete = ev.time;
        EXPECT_EQ(ev.a, std::llround(r.service() * 1e9));
      }
    }
    EXPECT_GE(enqueue, 0.0) << "job " << r.id;
    EXPECT_GE(admit, enqueue) << "job " << r.id;
    EXPECT_GE(complete, admit) << "job " << r.id;
    // The placed device's trace spans carry the same id, joining the
    // control-plane story to the data-plane timeline.
    ASSERT_GE(r.device, 0);
    int spans = 0;
    for (const auto& s : m.devices[static_cast<std::size_t>(r.device)]->trace().spans())
      if (s.trace == r.trace_id) ++spans;
    EXPECT_GT(spans, 0) << "job " << r.id;
  }
}

TEST(ObservabilityRun, PinnedTraceIdsFlowThrough) {
  Machine m(1);
  FlightRecorder rec(256);
  sched::SchedulerOptions opts;
  opts.recorder = &rec;
  sched::Scheduler s(m.devices, opts);
  auto sj = sched::make_synthetic_job(sched::synthetic_job_mix(1)[0], 0);
  sj.job.trace_id = 4242;  // replaying an external trace
  s.submit(sj.job);
  const auto rep = s.run();
  EXPECT_EQ(rep.jobs[0].trace_id, 4242);
  bool found = false;
  for (const auto& ev : rec.events())
    if (ev.kind == FlightEventKind::Complete && ev.trace_id == 4242) found = true;
  EXPECT_TRUE(found);
}

// --- Sampler --------------------------------------------------------------

TEST(ObservabilityRun, SamplingDoesNotPerturbScheduling) {
  Machine plain(2);
  const auto base = run_synthetic(plain, {}, 8);

  Machine observed(2);
  for (gpu::Gpu* d : observed.devices) d->trace().set_enabled(true);
  FlightRecorder rec(4096);
  telemetry::TimeSeriesStore series;
  sched::SchedulerOptions opts;
  opts.recorder = &rec;
  opts.series = &series;
  opts.sample_every = 0.0005;
  const auto obs = run_synthetic(observed, opts, 8);

  // Recording events and spans and sampling must be pure observation:
  // identical virtual-time outcomes, job for job.
  EXPECT_EQ(obs.makespan, base.makespan);
  ASSERT_EQ(obs.jobs.size(), base.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    EXPECT_EQ(obs.jobs[i].start, base.jobs[i].start) << i;
    EXPECT_EQ(obs.jobs[i].finish, base.jobs[i].finish) << i;
    EXPECT_EQ(obs.jobs[i].device, base.jobs[i].device) << i;
  }
}

TEST(ObservabilityRun, SamplesLandOnNominalTicks) {
  Machine m(2);
  telemetry::TimeSeriesStore series;
  sched::SchedulerOptions opts;
  opts.series = &series;
  opts.sample_every = 0.0005;
  const auto rep = run_synthetic(m, opts, 6);
  const auto& depth = series.series("sched.queue_depth");
  ASSERT_GT(depth.size(), 0u);
  // Points carry the nominal tick times t0 + k*dt (the exact accumulation
  // the scheduler performs), not whatever host time the loop reached.
  SimTime expect = rep.start + opts.sample_every;
  for (const auto& p : depth.points()) {
    EXPECT_DOUBLE_EQ(p.t, expect);
    expect += opts.sample_every;
  }
  // The per-device series exist for both devices.
  EXPECT_GT(series.series("sched.dev0.utilization").size(), 0u);
  EXPECT_GT(series.series("sched.dev1.utilization").size(), 0u);
}

TEST(ObservabilityRun, SchedulerExportsObservabilityCounters) {
  Machine m(2);
  FlightRecorder rec(4096);
  sched::SchedulerOptions opts;
  opts.recorder = &rec;
  sched::Scheduler s(m.devices, opts);
  const auto mix = sched::synthetic_job_mix(6);
  for (std::size_t i = 0; i < mix.size(); ++i)
    s.submit(sched::make_synthetic_job(mix[i], static_cast<int>(i)).job);
  s.run();
  telemetry::Registry reg;
  s.collect_metrics(reg);
  EXPECT_EQ(reg.counter_value("sched.recorder.events"),
            static_cast<std::int64_t>(rec.total_recorded()));
  EXPECT_GT(reg.counter_value("sched.recorder.events"), 0);
  EXPECT_EQ(reg.counter_value("sched.recorder.dropped"), 0);
}

// --- Watchdog under a scheduled deadline storm ----------------------------

TEST(ObservabilityRun, DeadlineStormTripsWatchdogDuringRun) {
  Machine m(1);
  FlightRecorder rec(1024);
  telemetry::WatchdogOptions wopt;
  wopt.deadline_storm_misses = 3;
  wopt.deadline_window = 10.0;  // every miss of this run lands in one window
  telemetry::Watchdog dog(wopt, &rec);
  sched::SchedulerOptions opts;
  opts.recorder = &rec;
  opts.watchdog = &dog;
  sched::Scheduler s(m.devices, opts);
  auto mix = sched::synthetic_job_mix(5);
  for (auto& line : mix) line.deadline = 1e-9;  // unmeetable: every job misses
  for (std::size_t i = 0; i < mix.size(); ++i)
    s.submit(sched::make_synthetic_job(mix[i], static_cast<int>(i)).job);
  const auto rep = s.run();
  EXPECT_EQ(rep.deadline_misses, 5);
  ASSERT_FALSE(dog.trips().empty());
  EXPECT_EQ(dog.trips()[0].reason, telemetry::kTripDeadlineStorm);
  bool recorded = false;
  for (const auto& ev : rec.events())
    if (ev.kind == FlightEventKind::WatchdogTrip) recorded = true;
  EXPECT_TRUE(recorded);
}

// --- GPUPIPE_TRACE_STRICT -------------------------------------------------

TEST(TraceStrict, OverflowThrowsOnlyWhenStrict) {
  struct Restore {
    ~Restore() { sim::Trace::set_strict_drops(false); }
  } restore;
  sim::Trace t;
  t.set_span_capacity(2);
  t.record(sim::SpanKind::Kernel, "lane", "a", 0.0, 1.0);
  t.record(sim::SpanKind::Kernel, "lane", "b", 1.0, 2.0);
  sim::Trace::set_strict_drops(true);
  EXPECT_THROW(t.record(sim::SpanKind::Kernel, "lane", "c", 2.0, 3.0), Error);
  EXPECT_EQ(t.dropped_spans(), 0u);  // the throw happened before eviction
  sim::Trace::set_strict_drops(false);
  t.record(sim::SpanKind::Kernel, "lane", "c", 2.0, 3.0);
  EXPECT_EQ(t.dropped_spans(), 1u);
  EXPECT_EQ(t.spans().size(), 2u);
}

// --- Plan-cache disk recorder + compaction --------------------------------

struct TempDir {
  fs::path path;
  explicit TempDir(const char* name) : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(PlanCacheObservability, RecorderSeesDiskHitsAndCorruption) {
  TempDir dir("gpupipe_obs_disk_recorder");
  core::PlanCache cache(64);
  cache.set_disk_dir(dir.path.string());
  FlightRecorder rec(64);
  cache.set_recorder(&rec);

  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Modeled);
  const auto spec = sched::make_synthetic_job(sched::synthetic_job_mix(1)[0], 0).job.spec;
  // compile() keeps one entry, so the directory holds one file.
  const std::size_t nodes = cache.compile(g, spec).plan->nodes.size();
  cache.clear();  // drop the memory tier; the next lookup must come from disk
  EXPECT_EQ(cache.compile(g, spec).plan->nodes.size(), nodes);
  int hits = 0;
  for (const auto& ev : rec.events())
    if (ev.kind == FlightEventKind::DiskHit) {
      ++hits;
      EXPECT_GT(ev.a, 0);  // payload bytes read
    }
  EXPECT_EQ(hits, 1);

  for (const auto& entry : fs::directory_iterator(dir.path)) {
    std::ofstream os(entry.path(), std::ios::binary | std::ios::trunc);
    os << "garbage";
  }
  cache.clear();
  EXPECT_EQ(cache.compile(g, spec).plan->nodes.size(), nodes);
  int corrupt = 0;
  for (const auto& ev : rec.events())
    if (ev.kind == FlightEventKind::DiskCorrupt) ++corrupt;
  EXPECT_EQ(corrupt, 1);
  cache.set_recorder(nullptr);
}

TEST(PlanCacheObservability, CompactionRemovesCorpsesKeepsCurrentRecords) {
  TempDir dir("gpupipe_obs_disk_compact");
  auto write = [&](const std::string& name, const std::string& bytes) {
    std::ofstream os(dir.path / name, std::ios::binary);
    os << bytes;
  };
  auto header = [](std::uint32_t magic, std::uint32_t version) {
    std::string out;
    for (std::uint32_t v : {magic, version})
      for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
    return out;
  };
  write("current.plan", header(core::kPlanArtifactMagic, core::kPlanFormatVersion));
  write("stale.plan", header(core::kPlanArtifactMagic, core::kPlanFormatVersion + 1));
  write("short.plan", "xy");  // can't even hold a header
  write("old.plan.quarantined", "z");
  write("orphan.plan.tmp.ff.0", "zz");

  core::PlanCache cache(4);
  cache.set_disk_dir(dir.path.string());
  const auto rep = cache.compact_disk();
  EXPECT_EQ(rep.scanned, 5);
  EXPECT_EQ(rep.kept, 1);
  EXPECT_EQ(rep.removed_stale, 2);
  EXPECT_EQ(rep.removed_quarantined, 1);
  EXPECT_EQ(rep.removed_temp, 1);
  EXPECT_EQ(rep.removed(), 4);
  EXPECT_EQ(rep.bytes_reclaimed, static_cast<Bytes>(8 + 2 + 1 + 2));
  EXPECT_TRUE(fs::exists(dir.path / "current.plan"));
  EXPECT_FALSE(fs::exists(dir.path / "stale.plan"));
  EXPECT_FALSE(fs::exists(dir.path / "old.plan.quarantined"));
  EXPECT_FALSE(fs::exists(dir.path / "orphan.plan.tmp.ff.0"));
  EXPECT_EQ(cache.stats().disk_compacted, 4);

  telemetry::Registry reg;
  cache.collect_metrics(reg);
  EXPECT_EQ(reg.counter_value("plan_cache.disk.compacted"), 4);

  // A second pass is a no-op: current records are never touched.
  const auto again = cache.compact_disk();
  EXPECT_EQ(again.scanned, 1);
  EXPECT_EQ(again.kept, 1);
  EXPECT_EQ(again.removed(), 0);
}

TEST(PlanCacheObservability, CompactWithoutDiskDirIsNoop) {
  core::PlanCache cache(4);
  const auto rep = cache.compact_disk();
  EXPECT_EQ(rep.scanned, 0);
  EXPECT_EQ(rep.removed(), 0);
}

}  // namespace
}  // namespace gpupipe
