// Elastic sharding tests: shard_pipeline_specs partitioning and halo
// wiring, P2P plan nodes (build, validate, DOT), the zero-host-bounce
// guarantee, run-twice determinism including a mid-run device-leave
// reshard, the P2P hazard ordering, the device-link safety checks, and the
// new flight-recorder kinds' JSONL schema.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/export.hpp"
#include "common/flight_recorder.hpp"
#include "core/layout.hpp"
#include "core/plan.hpp"
#include "gpu/device_profile.hpp"
#include "gpu/hazard.hpp"
#include "sched/scheduler.hpp"
#include "sched/shard.hpp"
#include "sched/workloads.hpp"

namespace gpupipe {
namespace {

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

sched::JobMixLine stencil_large(SimTime arrival = 0.0) {
  sched::JobMixLine l;
  l.app = "stencil";
  l.size = "large";
  l.arrival = arrival;
  return l;
}

// Drives a ShardRun to completion on equal weights (no scheduler).
void drive(sched::ShardRun& run, const std::vector<int>& devs) {
  const std::vector<double> w(devs.size(), 1.0);
  while (!run.finished()) {
    ASSERT_TRUE(run.start_round(devs, w));
    // finish_round drains the round's pipelines, which advances sim time.
    run.finish_round();
  }
}

// --- shard_pipeline_specs -------------------------------------------------

TEST(ShardSpecs, PartitionsAndWiresHalos) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  const core::PipelineSpec& spec = sj.job.spec;
  const auto slices = core::shard_pipeline_specs(spec, {1.0, 1.0});
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].begin, spec.loop_begin);
  EXPECT_EQ(slices[1].end, spec.loop_end);
  EXPECT_EQ(slices[0].end, slices[1].begin);
  // Slices tile the loop exactly.
  EXPECT_EQ((slices[0].end - slices[0].begin) + (slices[1].end - slices[1].begin),
            spec.iterations());

  // Every input array whose window overhangs its stride gets one halo per
  // boundary: shard 0 receives from shard 1, shard 1 sends to shard 0.
  int expected = 0;
  for (const core::ArraySpec& a : spec.arrays)
    if (!a.split.window_fn && a.split.window > a.split.start.scale) ++expected;
  ASSERT_GT(expected, 0) << "stencil job should have an overhanging input";
  ASSERT_EQ(slices[0].spec.halos.size(), static_cast<std::size_t>(expected));
  ASSERT_EQ(slices[1].spec.halos.size(), static_cast<std::size_t>(expected));
  for (const core::ShardHalo& h : slices[0].spec.halos) {
    const core::ArraySpec& a = spec.arrays[static_cast<std::size_t>(h.array)];
    EXPECT_EQ(h.recv_peer, 1);
    EXPECT_EQ(h.recv_lo, a.split.start(slices[1].begin));
    EXPECT_EQ(h.send_peer, -1);
  }
  for (const core::ShardHalo& h : slices[1].spec.halos) {
    const core::ArraySpec& a = spec.arrays[static_cast<std::size_t>(h.array)];
    const std::int64_t overhang = a.split.window - a.split.start.scale;
    EXPECT_EQ(h.send_peer, 0);
    EXPECT_EQ(h.send_hi, a.split.start(slices[1].begin) + overhang);
    EXPECT_EQ(h.recv_peer, -1);
  }
  for (const auto& s : slices) s.spec.validate();
}

TEST(ShardSpecs, SingleShardHasNoHalos) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  const auto slices = core::shard_pipeline_specs(sj.job.spec, {1.0});
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_TRUE(slices[0].spec.halos.empty());
}

TEST(ShardSpecs, ZeroWeightDevicesAreDropped) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  const auto slices = core::shard_pipeline_specs(sj.job.spec, {1.0, 0.0, 1.0});
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].shard, 0);
  EXPECT_EQ(slices[1].shard, 1);  // renumbered contiguously
  // Each slice still names the weight (device) it was cut for.
  EXPECT_EQ(slices[0].weight, 0u);
  EXPECT_EQ(slices[1].weight, 2u);
}

TEST(ShardSpecs, Shardable) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  EXPECT_TRUE(sched::shardable(sj.job.spec));
  core::PipelineSpec adaptive = sj.job.spec;
  adaptive.schedule = core::ScheduleKind::Adaptive;
  EXPECT_FALSE(sched::shardable(adaptive));
  const auto slices = core::shard_pipeline_specs(sj.job.spec, {1.0, 1.0});
  EXPECT_FALSE(sched::shardable(slices[0].spec)) << "already-sharded specs don't reshard";
}

// --- P2P plan nodes -------------------------------------------------------

TEST(ShardPlan, ContainsP2pNodesAndValidates) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  const auto slices = core::shard_pipeline_specs(sj.job.spec, {1.0, 1.0});
  Machine m(2);
  core::Pipeline recv_side(*m.devices[0], slices[0].spec);
  core::Pipeline send_side(*m.devices[1], slices[1].spec);

  auto count = [](const core::ExecutionPlan& p, core::PlanOp op) {
    int n = 0;
    for (const auto& node : p.nodes)
      if (node.op == op) ++n;
    return n;
  };
  EXPECT_GT(count(recv_side.execution_plan(), core::PlanOp::P2pRecv), 0);
  EXPECT_EQ(count(recv_side.execution_plan(), core::PlanOp::P2pSend), 0);
  EXPECT_GT(count(send_side.execution_plan(), core::PlanOp::P2pSend), 0);
  EXPECT_EQ(count(send_side.execution_plan(), core::PlanOp::P2pRecv), 0);
  EXPECT_NO_THROW(recv_side.execution_plan().validate());
  EXPECT_NO_THROW(send_side.execution_plan().validate());

  // Peer fields name the other shard.
  for (const auto& n : send_side.execution_plan().nodes) {
    if (n.op == core::PlanOp::P2pSend) {
      EXPECT_EQ(n.peer, 0);
    }
  }
  for (const auto& n : recv_side.execution_plan().nodes) {
    if (n.op == core::PlanOp::P2pRecv) {
      EXPECT_EQ(n.peer, 1);
    }
  }

  // Both flavours show up in the DOT rendering.
  std::ostringstream dot;
  send_side.execution_plan().to_dot(dot);
  EXPECT_NE(dot.str().find("p2p-send"), std::string::npos);
  std::ostringstream dot2;
  recv_side.execution_plan().to_dot(dot2);
  EXPECT_NE(dot2.str().find("p2p-recv"), std::string::npos);
}

TEST(ShardPlan, P2pSendIsOrderedAgainstHaloWrites) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  const auto slices = core::shard_pipeline_specs(sj.job.spec, {1.0, 1.0});
  Machine m(1);
  core::Pipeline send_side(*m.devices[0], slices[1].spec);
  core::ExecutionPlan bad = send_side.execution_plan();
  ASSERT_NO_THROW(bad.validate());
  // De-order a P2pSend from the copies that populate its halo slots: drop
  // its dependency edges and move it off its stream (same-queue order would
  // otherwise still protect it). Static validation must catch the RAW.
  bool mutated = false;
  for (auto& n : bad.nodes) {
    if (n.op != core::PlanOp::P2pSend) continue;
    n.deps.clear();
    n.stream = (n.stream + 1) % bad.num_streams;
    mutated = true;
    break;
  }
  ASSERT_TRUE(mutated);
  EXPECT_THROW(bad.validate(), gpu::HazardError);
}

// The executor's link path refuses a link node whose link is missing, not
// yet pushed (a P2pRecv enqueued before its sender), or retired.
TEST(ShardPlan, LinkNodesRefuseMissingUnpushedAndRetiredLinks) {
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  const auto slices = core::shard_pipeline_specs(sj.job.spec, {1.0, 1.0});
  ASSERT_FALSE(slices[0].spec.halos.empty());
  const std::size_t ai = static_cast<std::size_t>(slices[0].spec.halos[0].array);
  Machine m(2);
  {
    core::Pipeline recv_side(*m.devices[0], slices[0].spec);
    EXPECT_THROW(recv_side.enqueue(sj.job.kernel), Error);
  }
  core::DeviceLink link;
  link.home = m.devices[0];
  link.stage = m.devices[0]->device_malloc(1024);
  {
    core::Pipeline recv_side(*m.devices[0], slices[0].spec);
    recv_side.bind_link(ai, nullptr, &link);
    EXPECT_THROW(recv_side.enqueue(sj.job.kernel), Error);
  }
  m.devices[0]->device_free(link.stage);
  link.stage = nullptr;
  {
    core::Pipeline send_side(*m.devices[1], slices[1].spec);
    send_side.bind_link(ai, &link, nullptr);
    EXPECT_THROW(send_side.enqueue(sj.job.kernel), Error);
  }
}

// --- Functional sharded execution ----------------------------------------

TEST(ShardRun, MatchesSoloBitExactWithZeroHostBounce) {
  // Solo reference on a fresh device (same deterministic host data).
  sched::ServeJob solo = sched::make_serve_job(stencil_large(), 0);
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  core::Pipeline ref(g, solo.job.spec);
  ref.run(solo.job.kernel);
  ASSERT_TRUE(solo.verify());
  const Bytes solo_h2d = ref.stats().h2d_bytes;

  // Sharded across two devices.
  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  Machine m(2);
  sched::AdmissionController admission(m.devices, 0);
  sched::ShardRun run(sj.job, m.devices, admission, {});
  drive(run, {0, 1});

  EXPECT_TRUE(sj.verify());
  EXPECT_EQ(sj.output_checksum(), solo.output_checksum());
  EXPECT_GT(run.p2p_bytes(), 0u) << "halo must travel device-to-device";
  // Zero host bounce: the halo is never re-uploaded from the host, so the
  // sharded run's total H2D traffic equals the solo run's exactly.
  EXPECT_EQ(run.h2d_bytes(), solo_h2d);
  EXPECT_EQ(run.d2h_bytes(), ref.stats().d2h_bytes);
  EXPECT_EQ(run.rounds(), 1);
  // Admission commits were fully released.
  EXPECT_EQ(admission.committed(0), 0u);
  EXPECT_EQ(admission.committed(1), 0u);
}

TEST(ShardRun, MultiRoundReshardIsBitExact) {
  sched::ServeJob solo = sched::make_serve_job(stencil_large(), 0);
  gpu::Gpu g(gpu::nvidia_k40m(), gpu::ExecMode::Functional);
  core::Pipeline ref(g, solo.job.spec);
  ref.run(solo.job.kernel);

  sched::ServeJob sj = sched::make_serve_job(stencil_large(), 0);
  Machine m(2);
  sched::AdmissionController admission(m.devices, 0);
  sched::ShardRunOptions opts;
  opts.reshard_interval = sj.job.spec.iterations() / 3;
  sched::ShardRun run(sj.job, m.devices, admission, opts);

  // Rounds alternate between both devices and one device — an elastic
  // membership change at every boundary.
  int round = 0;
  while (!run.finished()) {
    const std::vector<int> devs =
        round % 2 == 0 ? std::vector<int>{0, 1} : std::vector<int>{1};
    ASSERT_TRUE(run.start_round(devs, std::vector<double>(devs.size(), 1.0)));
    run.finish_round();
    ++round;
  }
  EXPECT_GE(run.rounds(), 3);
  EXPECT_TRUE(sj.verify());
  EXPECT_EQ(sj.output_checksum(), solo.output_checksum());
  // Rounds are sequential, so there is no P2P across a round boundary: each
  // round after the first re-uploads exactly the boundary overhang from the
  // host. Within a round, halos still travel device-to-device only.
  Bytes overhang_bytes = 0;
  for (const core::ArraySpec& a : sj.job.spec.arrays) {
    const std::int64_t ov = a.split.window - a.split.start.scale;
    if (!a.split.window_fn && ov > 0)
      overhang_bytes += static_cast<Bytes>(ov) * core::layout::unit_bytes(a);
  }
  EXPECT_EQ(run.h2d_bytes(), ref.stats().h2d_bytes +
                                 static_cast<Bytes>(run.rounds() - 1) * overhang_bytes);
}

// --- Scheduler integration -----------------------------------------------

sched::SchedulerOptions shard_opts() {
  sched::SchedulerOptions o;
  o.shard_threshold = 1;  // everything shardable shards
  return o;
}

struct SchedRun {
  sched::ScheduleReport report;
  std::vector<double> checksums;
};

SchedRun run_sharded_mix(const std::vector<sched::JobMixLine>& mix,
                         sched::SchedulerOptions opts, int num_devices,
                         telemetry::FlightRecorder* rec = nullptr) {
  Machine m(num_devices);
  opts.recorder = rec;
  sched::Scheduler s(m.devices, opts);
  std::vector<sched::ServeJob> jobs;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    jobs.push_back(sched::make_serve_job(mix[i], static_cast<int>(i)));
    s.submit(jobs.back().job);
  }
  SchedRun r;
  r.report = s.run();
  for (const auto& j : jobs) {
    EXPECT_TRUE(j.verify()) << j.job.name;
    r.checksums.push_back(j.output_checksum());
  }
  return r;
}

TEST(SchedulerShard, ShardedBeatsSoloOnOneBigJob) {
  const std::vector<sched::JobMixLine> mix = {stencil_large()};
  sched::SchedulerOptions solo;  // threshold 0: sharding off
  const SchedRun a = run_sharded_mix(mix, solo, 2);
  const SchedRun b = run_sharded_mix(mix, shard_opts(), 2);
  ASSERT_EQ(a.report.completed, 1);
  ASSERT_EQ(b.report.completed, 1);
  EXPECT_EQ(a.checksums, b.checksums);
  EXPECT_LT(b.report.makespan, a.report.makespan)
      << "two devices splitting one job must beat one device";
}

TEST(SchedulerShard, DeviceLeaveReshardsDeterministically) {
  const std::vector<sched::JobMixLine> mix = {stencil_large()};
  sched::SchedulerOptions opts = shard_opts();
  sched::ServeJob probe = sched::make_serve_job(mix[0], 0);
  opts.reshard_interval = probe.job.spec.iterations() / 4;

  // Unperturbed reference.
  const SchedRun ref = run_sharded_mix(mix, opts, 2);
  ASSERT_EQ(ref.report.completed, 1);

  // Device 1 leaves mid-run: pick a time inside the job's service window so
  // at least one round boundary sees the smaller device set.
  const sched::JobRecord& r = ref.report.jobs[0];
  sched::DeviceEvent leave;
  leave.device = 1;
  leave.time = r.start + (r.finish - r.start) * 0.4;
  leave.join = false;
  opts.device_events = {leave};

  telemetry::FlightRecorder rec;
  const SchedRun gone = run_sharded_mix(mix, opts, 2, &rec);
  ASSERT_EQ(gone.report.completed, 1);
  // Bit-identical output despite the reshard...
  EXPECT_EQ(gone.checksums, ref.checksums);
  // ...and the reshard actually happened (and was recorded).
  bool saw_reshard = false;
  for (const auto& ev : rec.events())
    if (ev.kind == telemetry::FlightEventKind::Reshard) saw_reshard = true;
  EXPECT_TRUE(saw_reshard);

  // Run-twice determinism of the perturbed scenario.
  const SchedRun again = run_sharded_mix(mix, opts, 2);
  EXPECT_EQ(again.checksums, gone.checksums);
  EXPECT_EQ(again.report.makespan, gone.report.makespan);
}

TEST(SchedulerShard, MixedTenantsStayCorrectAndDeterministic) {
  const std::vector<sched::JobMixLine> mix = sched::default_job_mix(6);
  sched::SchedulerOptions opts = shard_opts();
  opts.reshard_interval = 64;
  const SchedRun a = run_sharded_mix(mix, opts, 2);
  const SchedRun b = run_sharded_mix(mix, opts, 2);
  EXPECT_EQ(a.report.completed + a.report.rejected, static_cast<int>(mix.size()));
  EXPECT_EQ(a.checksums, b.checksums);
  EXPECT_EQ(a.report.makespan, b.report.makespan);
}

TEST(SchedulerShard, FlightEventsAndMetrics) {
  const std::vector<sched::JobMixLine> mix = {stencil_large()};
  telemetry::FlightRecorder rec;
  Machine m(2);
  sched::SchedulerOptions opts = shard_opts();
  opts.recorder = &rec;
  sched::Scheduler s(m.devices, opts);
  sched::ServeJob sj = sched::make_serve_job(mix[0], 0);
  s.submit(sj.job);
  s.run();

  bool saw_shard = false, saw_p2p = false;
  for (const auto& ev : rec.events()) {
    if (ev.kind == telemetry::FlightEventKind::Shard) {
      saw_shard = true;
      EXPECT_EQ(ev.a, 0b11) << "both devices in the shard mask";
      EXPECT_GT(ev.b, 0) << "halo bytes payload";
    }
    if (ev.kind == telemetry::FlightEventKind::P2pXfer) {
      saw_p2p = true;
      EXPECT_GT(ev.a, 0);
      EXPECT_EQ(ev.b, 1) << "halo flows from shard 1 (device 1)";
      EXPECT_EQ(ev.device, 0);
    }
  }
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_p2p);

  telemetry::Registry reg;
  s.collect_metrics(reg);
  EXPECT_EQ(reg.counter("sched.sharded_jobs").value(), 1);
  EXPECT_GE(reg.counter("sched.shard_rounds").value(), 1);
  EXPECT_GT(reg.counter("sched.p2p_halo_bytes").value(), 0);
}

// --- Exporter schema (golden bytes) ---------------------------------------

TEST(ShardExport, JsonlSchemaForNewKinds) {
  telemetry::FlightRecorder rec;
  telemetry::FlightEvent ev;
  ev.trace_id = 7;
  ev.job = 7;
  ev.device = 0;
  ev.time = 1.0;
  ev.kind = telemetry::FlightEventKind::Shard;
  ev.a = 3;     // device mask
  ev.b = 4096;  // halo bytes
  rec.record(ev);
  ev.time = 2.0;
  ev.kind = telemetry::FlightEventKind::Reshard;
  ev.a = 1;    // new mask
  ev.b = 128;  // remaining iterations
  rec.record(ev);
  ev.time = 3.0;
  ev.kind = telemetry::FlightEventKind::P2pXfer;
  ev.a = 2048;  // bytes
  ev.b = 1;     // source device
  rec.record(ev);

  std::ostringstream os;
  telemetry::export_events_jsonl(os, rec);
  EXPECT_EQ(os.str(),
            "{\"t\":1,\"event\":\"shard\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"devices\":3,\"halo_bytes\":4096}\n"
            "{\"t\":2,\"event\":\"reshard\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"devices\":1,\"remaining\":128}\n"
            "{\"t\":3,\"event\":\"p2p-xfer\",\"trace\":7,\"job\":7,\"dev\":0,"
            "\"bytes\":2048,\"src\":1}\n");
}

}  // namespace
}  // namespace gpupipe
