// Tests for inter-job plan stitching and kernel fusion: the builder's stitch
// lowering (D2H tail / H2D head -> DeviceHandoff), the fusion pass and its hazard
// guard, fingerprint sensitivity to lineage wiring, serialization of
// stitched plans, and the scheduler's end-to-end handoff runtime including
// the cross-device fallback.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "core/plan_opt.hpp"
#include "core/plan_serialize.hpp"
#include "gpu/device_profile.hpp"
#include "gpu/hazard.hpp"
#include "sched/scheduler.hpp"
#include "sched/workloads.hpp"

namespace gpupipe {
namespace {

std::byte dummy_in[8];
std::byte dummy_out[8];

/// Pointwise in -> out region over `n` rows of `m` doubles (window 1).
core::PipelineSpec pointwise_spec(std::int64_t n, std::int64_t m, std::int64_t chunk,
                                  int streams) {
  core::PipelineSpec spec;
  spec.chunk_size = chunk;
  spec.num_streams = streams;
  spec.opt_level = 0;
  spec.loop_begin = 0;
  spec.loop_end = n;
  spec.arrays = {
      core::ArraySpec{"in", core::MapType::To, dummy_in, sizeof(double), {n, m},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
      core::ArraySpec{"out", core::MapType::From, dummy_out, sizeof(double), {n, m},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
  };
  return spec;
}

std::int64_t count_op(const core::ExecutionPlan& plan, core::PlanOp op) {
  std::int64_t n = 0;
  for (const auto& node : plan.nodes)
    if (node.op == op) ++n;
  return n;
}

TEST(StitchSpec, ValidationRejectsMisdirectedHandoffs) {
  // A produce handoff stashes device results, so it needs an output array; a
  // consume handoff replaces an upload, so it needs an input array.
  core::PipelineSpec spec = pointwise_spec(8, 4, 2, 2);
  spec.handoffs = {{0, 0, true}};  // "in" is MapType::To
  EXPECT_THROW(spec.validate(), Error);
  spec.handoffs = {{1, 0, false}};  // "out" is MapType::From
  EXPECT_THROW(spec.validate(), Error);
  spec.handoffs = {{1, -1, true}};  // link must be set
  EXPECT_THROW(spec.validate(), Error);
  spec.handoffs = {{1, 0, true}};
  EXPECT_NO_THROW(spec.validate());
}

/// Builds the full loop of `spec` at its own level with the build's report.
core::ExecutionPlan build(const core::PipelineSpec& spec, core::OptReport* report) {
  return core::PlanBuilder::pipeline(spec, spec.chunk_size, spec.num_streams, spec.loop_begin,
                                     spec.loop_end, core::PipelineBuildState::predicted(spec),
                                     report);
}

TEST(StitchPass, RewritesProducerTailIntoDeviceHandoffs) {
  core::PipelineSpec spec = pointwise_spec(8, 4, 2, 2);
  const core::ExecutionPlan plain = core::PlanBuilder::pipeline(spec);
  const std::int64_t d2h_nodes = count_op(plain, core::PlanOp::D2H);
  const Bytes d2h_before = plain.transfer_bytes(core::PlanOp::D2H);
  ASSERT_GT(d2h_nodes, 0);

  spec.handoffs = {{1, 0, true}};
  core::OptReport report;
  core::ExecutionPlan plan = build(spec, &report);
  ASSERT_EQ(report.passes.size(), 1u);
  EXPECT_EQ(report.passes[0].pass, "stitch");
  EXPECT_EQ(report.passes[0].nodes_changed, d2h_nodes);
  EXPECT_EQ(report.stitched_bytes, d2h_before);
  EXPECT_EQ(count_op(plan, core::PlanOp::D2H), 0);
  EXPECT_EQ(count_op(plan, core::PlanOp::DeviceHandoff), d2h_nodes);
  for (const auto& n : plan.nodes) {
    if (n.op == core::PlanOp::DeviceHandoff) {
      EXPECT_EQ(n.peer, 0);
    }
  }
  EXPECT_NO_THROW(plan.validate());

  // Idempotent: optimizing the stitched plan rewrites nothing further.
  const core::OptReport again = core::optimize_plan(plan, 0);
  EXPECT_EQ(again.stitched_bytes, 0);
  EXPECT_EQ(count_op(plan, core::PlanOp::DeviceHandoff), d2h_nodes);
}

TEST(StitchPass, RewritesConsumerHeadAndLeavesUploadBytesAccounted) {
  core::PipelineSpec spec = pointwise_spec(8, 4, 2, 2);
  const core::ExecutionPlan plain = core::PlanBuilder::pipeline(spec);
  const std::int64_t h2d_nodes = count_op(plain, core::PlanOp::H2D);
  const Bytes h2d_before = plain.transfer_bytes(core::PlanOp::H2D);

  spec.handoffs = {{0, 3, false}};
  core::OptReport report;
  const core::ExecutionPlan plan = build(spec, &report);
  EXPECT_EQ(report.stitched_bytes, h2d_before);
  EXPECT_EQ(report.h2d_bytes_before, h2d_before);
  EXPECT_EQ(report.h2d_bytes_after, 0);
  EXPECT_EQ(count_op(plan, core::PlanOp::H2D), 0);
  EXPECT_EQ(count_op(plan, core::PlanOp::DeviceHandoff), h2d_nodes);
  for (const auto& n : plan.nodes) {
    if (n.op == core::PlanOp::DeviceHandoff) {
      EXPECT_EQ(n.peer, 3);
    }
  }
  // The D2H tail is untouched: only the wired direction is rewritten.
  EXPECT_GT(count_op(plan, core::PlanOp::D2H), 0);
  EXPECT_NO_THROW(plan.validate());
}

TEST(StitchPass, BuilderStitchesWhenSpecCarriesHandoffWiring) {
  core::PipelineSpec spec = pointwise_spec(8, 4, 2, 2);
  spec.handoffs = {{1, 0, true}};
  const core::ExecutionPlan plan = core::PlanBuilder::pipeline(spec);
  EXPECT_EQ(count_op(plan, core::PlanOp::D2H), 0);
  EXPECT_GT(count_op(plan, core::PlanOp::DeviceHandoff), 0);
  EXPECT_NO_THROW(plan.validate());
}

/// Output-only region planned against a full-length ring: its kernels have
/// no upload or drain dependencies, so adjacent same-stream launches are
/// fusable (a production ring sized to the chunk forces every kernel to wait
/// on the previous drain, which correctly blocks the merge).
core::ExecutionPlan sink_plan(std::int64_t n, std::int64_t m, std::int64_t chunk) {
  core::PipelineSpec spec;
  spec.chunk_size = chunk;
  spec.num_streams = 1;
  spec.opt_level = 2;
  spec.loop_begin = 0;
  spec.loop_end = n;
  spec.arrays = {
      core::ArraySpec{"out", core::MapType::From, dummy_out, sizeof(double), {n, m},
                      core::SplitSpec{0, core::Affine{1, 0}, 1}},
  };
  core::PipelineBuildState state;
  state.ring_lens = {n};
  state.pinned = {true};
  return core::PlanBuilder::pipeline(spec, chunk, 1, 0, n, state);
}

TEST(FusionPass, MergesAdjacentKernelsAndPreservesValidity) {
  core::ExecutionPlan plan = sink_plan(8, 4, 2);
  const std::int64_t kernels_before = count_op(plan, core::PlanOp::Kernel);
  ASSERT_GT(kernels_before, 1);
  const core::OptReport report = core::optimize_plan(plan, 2);
  EXPECT_GT(report.fused_kernels, 0);
  EXPECT_EQ(count_op(plan, core::PlanOp::Kernel), kernels_before - report.fused_kernels);
  EXPECT_NO_THROW(plan.validate());
  // Every pass reports its wall time.
  for (const auto& p : report.passes) EXPECT_GE(p.elapsed_s, 0.0);
}

TEST(FusionPass, CostGateReportsConsistentlyWithProfile) {
  // With a profile the dry run arbitrates: either the fused plan wins and
  // fused_kernels > 0, or the pass reports itself reverted and the plan is
  // byte-identical to the unfused one. Both outcomes must validate.
  core::ExecutionPlan plan = sink_plan(8, 4, 2);
  const std::int64_t kernels_before = count_op(plan, core::PlanOp::Kernel);
  const gpu::DeviceProfile profile = gpu::nvidia_k40m();
  const core::OptReport report = core::optimize_plan(plan, 2, &profile);
  const auto& fusion = report.passes.back();
  if (fusion.pass == "fusion(reverted)") {
    EXPECT_EQ(report.fused_kernels, 0);
    EXPECT_EQ(count_op(plan, core::PlanOp::Kernel), kernels_before);
  } else {
    EXPECT_EQ(fusion.pass, "fusion");
    EXPECT_EQ(count_op(plan, core::PlanOp::Kernel),
              kernels_before - report.fused_kernels);
  }
  EXPECT_NO_THROW(plan.validate());
}

TEST(FusionPass, HandMergedKernelAcrossInterveningUploadFailsValidation) {
  // The fusion pass refuses to merge across a dependency on a later node —
  // here we force exactly that illegal merge by hand: extend chunk 0's
  // kernel to read the input slots chunk 1's upload (another stream, no
  // edge) writes. The static hazard checker must reject the plan.
  core::ExecutionPlan plan = core::PlanBuilder::pipeline(pointwise_spec(8, 4, 2, 2));
  core::PlanNode* k0 = nullptr;
  core::PlanNode* k1 = nullptr;
  for (auto& n : plan.nodes) {
    if (n.op != core::PlanOp::Kernel) continue;
    if (!k0) k0 = &n;
    else if (!k1) k1 = &n;
  }
  ASSERT_NE(k0, nullptr);
  ASSERT_NE(k1, nullptr);
  ASSERT_NO_THROW(plan.validate());
  k0->end = k1->end;
  for (std::size_t i = 0; i < k0->accesses.size(); ++i)
    k0->accesses[i].hi = k1->accesses[i].hi;
  EXPECT_THROW(plan.validate(), gpu::HazardError);
}

TEST(StitchCache, FingerprintDistinguishesLineageWiring) {
  gpu::Gpu g(gpu::nvidia_k40m());
  core::PipelineSpec spec = pointwise_spec(8, 4, 2, 2);
  ASSERT_TRUE(core::PlanCache::fingerprintable(spec));
  const std::string plain = core::PlanCache::fingerprint(g, spec, 2, 2);
  spec.handoffs = {{1, 0, true}};
  const std::string produce = core::PlanCache::fingerprint(g, spec, 2, 2);
  EXPECT_NE(plain, produce);
  spec.handoffs = {{1, 1, true}};
  EXPECT_NE(produce, core::PlanCache::fingerprint(g, spec, 2, 2));
  spec.handoffs = {{1, 0, true}, {0, 1, false}};
  EXPECT_NE(produce, core::PlanCache::fingerprint(g, spec, 2, 2));
}

TEST(StitchSerialize, RoundTripsHandoffNodesAndReportFields) {
  core::PipelineSpec spec = pointwise_spec(8, 4, 2, 2);
  spec.handoffs = {{1, 0, true}};
  core::ExecutionPlan plan = core::PlanBuilder::pipeline(spec);
  ASSERT_GT(count_op(plan, core::PlanOp::DeviceHandoff), 0);

  core::PlanArtifact art;
  art.kind = core::ArtifactKind::Plan;
  art.key = "plan|stitch-round-trip";
  art.plan = plan;
  art.report.stitched_bytes = 4096;
  art.report.fused_kernels = 3;
  art.report.passes.push_back({"stitch", 0, 2, 4096, {}, 1.5e-6});

  core::PlanArtifact back;
  std::string err;
  ASSERT_TRUE(core::deserialize_artifact(core::serialize_artifact(art), back, &err))
      << err;
  ASSERT_EQ(back.plan.nodes.size(), plan.nodes.size());
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    EXPECT_EQ(back.plan.nodes[i].op, plan.nodes[i].op);
    EXPECT_EQ(back.plan.nodes[i].peer, plan.nodes[i].peer);
  }
  ASSERT_EQ(back.plan.arrays.size(), plan.arrays.size());
  for (std::size_t i = 0; i < plan.arrays.size(); ++i) {
    EXPECT_EQ(back.plan.arrays[i].handoff_link, plan.arrays[i].handoff_link);
    EXPECT_EQ(back.plan.arrays[i].handoff_out, plan.arrays[i].handoff_out);
  }
  EXPECT_EQ(back.report.stitched_bytes, 4096);
  EXPECT_EQ(back.report.fused_kernels, 3);
  ASSERT_EQ(back.report.passes.size(), 1u);
  EXPECT_EQ(back.report.passes[0].pass, "stitch");
  EXPECT_EQ(back.report.passes[0].bytes_saved, 4096);
  // The pass's wall time is not part of the wire format (v4): reproducible
  // records carry no clock readings.
  EXPECT_EQ(back.report.passes[0].elapsed_s, 0.0);
}

// --- Scheduler runtime ---

struct ChainRun {
  sched::ScheduleReport report;
  Bytes h2d = 0;
  Bytes d2h = 0;
  double checksum = 0.0;
  bool verified = true;
};

ChainRun run_chains(int chains, int stages, bool stitching,
                    std::vector<sched::DeviceEvent> events = {}) {
  auto ctx = gpu::make_shared_context();
  std::vector<std::unique_ptr<gpu::Gpu>> gpus;
  std::vector<gpu::Gpu*> devices;
  for (int i = 0; i < 2; ++i) {
    gpus.push_back(std::make_unique<gpu::Gpu>(gpu::nvidia_k40m(),
                                              gpu::ExecMode::Functional, ctx));
    devices.push_back(gpus.back().get());
  }
  sched::SchedulerOptions opts;
  opts.stitching = stitching;
  opts.device_events = std::move(events);
  sched::Scheduler scheduler(devices, opts);
  std::vector<sched::ServeJob> jobs = sched::make_chain_jobs(chains, stages, "small", 0);
  for (const auto& j : jobs) scheduler.submit(j.job);
  ChainRun r;
  r.report = scheduler.run();
  r.h2d = scheduler.total_h2d_bytes();
  r.d2h = scheduler.total_d2h_bytes();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    r.verified = r.verified && jobs[i].verify();
    r.checksum += jobs[i].output_checksum() * static_cast<double>(i + 1);
  }
  return r;
}

TEST(StitchScheduler, ChainsStitchSaveTransfersAndMatchPlainResults) {
  const ChainRun plain = run_chains(2, 3, false);
  const ChainRun stitched = run_chains(2, 3, true);
  ASSERT_TRUE(plain.verified);
  ASSERT_TRUE(stitched.verified);
  EXPECT_EQ(plain.report.completed, 6);
  EXPECT_EQ(stitched.report.completed, 6);
  EXPECT_EQ(plain.report.stitched_jobs, 0);
  EXPECT_GT(stitched.report.stitched_jobs, 0);
  EXPECT_GT(stitched.report.stitched_bytes, 0);
  // Each 3-stage chain uploads only its head input and drains only its tail
  // output: two thirds of the host traffic disappears.
  EXPECT_LT(stitched.h2d, plain.h2d);
  EXPECT_LT(stitched.d2h, plain.d2h);
  // Bit-identical results, stitched or not.
  EXPECT_EQ(stitched.checksum, plain.checksum);
}

TEST(StitchScheduler, LineageSequencingHoldsWithStitchingDisabled) {
  // Even unstitched, a consumer must never start before its producer is
  // terminal — the lineage gate is scheduling semantics, not a stitch-only
  // optimization.
  const ChainRun plain = run_chains(1, 3, false);
  ASSERT_TRUE(plain.verified);
  const auto& jobs = plain.report.jobs;
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_GE(jobs[1].start, jobs[0].finish);
  EXPECT_GE(jobs[2].start, jobs[1].finish);
}

TEST(StitchScheduler, FallsBackCleanlyWhenConsumerLandsOnAnotherDevice) {
  // Learn where the producer runs, then script that device's departure
  // right after the chain head starts: the consumers must place elsewhere,
  // take the P2P mirror fallback, and still produce correct results.
  const ChainRun probe = run_chains(1, 2, true);
  ASSERT_TRUE(probe.verified);
  EXPECT_EQ(probe.report.handoff_fallbacks, 0);
  const int dev = probe.report.jobs[0].device;

  const ChainRun moved = run_chains(1, 2, true, {{1e-5, dev, false}});
  ASSERT_TRUE(moved.verified);
  EXPECT_EQ(moved.report.completed, 2);
  EXPECT_GT(moved.report.handoff_fallbacks, 0);
  EXPECT_NE(moved.report.jobs[1].device, dev);
  EXPECT_TRUE(moved.report.jobs[1].handoff_fallback);
  // The fallback still consumes device-resident: results stay identical.
  EXPECT_EQ(moved.checksum, probe.checksum);
}

}  // namespace
}  // namespace gpupipe
