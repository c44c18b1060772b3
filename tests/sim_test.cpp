// Unit tests for the discrete-event core: event queue ordering, task
// dependencies, engine capacity, and deadlock detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/trace.hpp"

namespace gpupipe::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, SimultaneousEventsRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(1.0, [&, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run_all();
  EXPECT_THROW(sim.schedule(0.5, [] {}), Error);
}

TEST(Simulator, RunUntilPredicateStopsEarly) {
  Simulator sim;
  bool flag = false;
  sim.schedule(1.0, [&] { flag = true; });
  sim.schedule(5.0, [] {});
  sim.run_until([&] { return flag; });
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_FALSE(sim.idle());
}

TEST(Simulator, RunUntilUnreachablePredicateThrowsDeadlock) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  EXPECT_THROW(sim.run_until([] { return false; }), Error);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.schedule_after(1.0, chain);
  };
  sim.schedule(0.0, chain);
  sim.run_all();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 4.0);
}

TEST(Simulator, RunUntilTimeAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until_time(7.5);
  EXPECT_DOUBLE_EQ(sim.now(), 7.5);
}

TEST(Task, RunsForItsDurationAndExecutesPayload) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  bool ran = false;
  auto t = Task::create(eng, 2.5, [&] { ran = true; });
  t->submit(0.0);
  sim.run_all();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(t->done());
  EXPECT_DOUBLE_EQ(t->start_time(), 0.0);
  EXPECT_DOUBLE_EQ(t->end_time(), 2.5);
}

TEST(Task, ReleaseTimeDelaysStart) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t = Task::create(eng, 1.0);
  t->submit(3.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(t->start_time(), 3.0);
  EXPECT_DOUBLE_EQ(t->end_time(), 4.0);
}

TEST(Task, DependencySequencesAcrossEngines) {
  Simulator sim;
  Engine a(sim, "a", 1);
  Engine b(sim, "b", 1);
  auto t1 = Task::create(a, 2.0);
  auto t2 = Task::create(b, 1.0);
  t2->depends_on(t1);
  t2->submit(0.0);
  t1->submit(0.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(t2->start_time(), 2.0);
  EXPECT_DOUBLE_EQ(t2->end_time(), 3.0);
}

TEST(Task, DependencyOnCompletedTaskIsNoOp) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t1 = Task::create(eng, 1.0);
  t1->submit(0.0);
  sim.run_all();
  auto t2 = Task::create(eng, 1.0);
  t2->depends_on(t1);
  t2->submit(sim.now());
  sim.run_all();
  EXPECT_DOUBLE_EQ(t2->end_time(), 2.0);
}

TEST(Task, CapacityOneEngineSerialises) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t1 = Task::create(eng, 2.0);
  auto t2 = Task::create(eng, 2.0);
  t1->submit(0.0);
  t2->submit(0.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(t1->end_time(), 2.0);
  EXPECT_DOUBLE_EQ(t2->start_time(), 2.0);
  EXPECT_DOUBLE_EQ(t2->end_time(), 4.0);
}

TEST(Task, CapacityTwoEngineRunsTwoConcurrently) {
  Simulator sim;
  Engine eng(sim, "e", 2);
  auto t1 = Task::create(eng, 2.0);
  auto t2 = Task::create(eng, 2.0);
  auto t3 = Task::create(eng, 2.0);
  t1->submit(0.0);
  t2->submit(0.0);
  t3->submit(0.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(t1->end_time(), 2.0);
  EXPECT_DOUBLE_EQ(t2->end_time(), 2.0);
  EXPECT_DOUBLE_EQ(t3->start_time(), 2.0);
}

TEST(Task, FifoOrderWithinEngine) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  std::vector<std::string> order;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 4; ++i) {
    auto t = Task::create(eng, 1.0);
    t->on_complete([&, i] { order.push_back("t" + std::to_string(i)); });
    tasks.push_back(t);
  }
  for (auto& t : tasks) t->submit(0.0);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"t0", "t1", "t2", "t3"}));
}

TEST(Task, OnCompleteAfterDoneRunsImmediately) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t = Task::create(eng, 1.0);
  t->submit(0.0);
  sim.run_all();
  bool called = false;
  t->on_complete([&] { called = true; });
  EXPECT_TRUE(called);
}

TEST(Task, OnStartFiresAtServiceStart) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto blocker = Task::create(eng, 3.0);
  auto t = Task::create(eng, 1.0);
  SimTime started_at = -1.0;
  t->on_start([&] { started_at = sim.now(); });
  blocker->submit(0.0);
  t->submit(0.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(started_at, 3.0);
}

TEST(Task, DoubleSubmitThrows) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t = Task::create(eng, 1.0);
  t->submit(0.0);
  EXPECT_THROW(t->submit(0.0), Error);
}

TEST(Task, NegativeDurationThrows) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  EXPECT_THROW(Task::create(eng, -1.0), Error);
}

TEST(Engine, BusyTimeAccumulates) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t1 = Task::create(eng, 2.0);
  auto t2 = Task::create(eng, 3.0);
  t1->submit(0.0);
  t2->submit(0.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(eng.busy_time(), 5.0);
}

TEST(Trace, AggregatesByKindAndComputesOccupancy) {
  Trace trace;
  trace.record(SpanKind::H2D, "s0", "a", 0.0, 2.0, 100);
  trace.record(SpanKind::H2D, "s1", "b", 1.0, 3.0, 100);
  trace.record(SpanKind::Kernel, "s0", "k", 2.0, 5.0, 0);
  auto by_kind = trace.time_by_kind();
  EXPECT_DOUBLE_EQ(by_kind[SpanKind::H2D], 4.0);
  EXPECT_DOUBLE_EQ(by_kind[SpanKind::Kernel], 3.0);
  // The two H2D spans overlap during [1,2): union is [0,3) = 3s.
  EXPECT_DOUBLE_EQ(trace.occupancy(SpanKind::H2D), 3.0);
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace trace;
  trace.set_enabled(false);
  trace.record(SpanKind::H2D, "s0", "a", 0.0, 2.0, 100);
  EXPECT_TRUE(trace.spans().empty());
}

TEST(Trace, ChromeJsonExportIsWellFormed) {
  Trace trace;
  trace.record(SpanKind::H2D, "pipe0", "h2d[1024B]", 0.0, 0.001, 1024);
  trace.record(SpanKind::Kernel, "pipe1", "stencil \"k\"", 0.001, 0.003, 0);
  std::ostringstream os;
  trace.dump_chrome_json(os);
  const std::string json = os.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"HtoD\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":1024"), std::string::npos);
  // Quotes in labels are escaped.
  EXPECT_NE(json.find("stencil \\\"k\\\""), std::string::npos);
  // Both lanes got thread-name metadata.
  EXPECT_NE(json.find("pipe0"), std::string::npos);
  EXPECT_NE(json.find("pipe1"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Trace, ChromeJsonGoldenOutput) {
  // Byte-exact golden check: control characters escape as \u00XX, bytes and
  // plan-node ids land in args, metadata precedes spans. Times are chosen so
  // microsecond values print as small integers.
  Trace trace;
  trace.record(SpanKind::H2D, "s0", "up", 0.0, 1e-6, 10, 3);
  trace.record(SpanKind::Kernel, "s0", "k\x01", 1e-6, 3e-6, 0, -1);
  std::ostringstream os;
  trace.dump_chrome_json(os);
  const std::string expected =
      "{\"traceEvents\":["
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"s0\"}}"
      ",{\"name\":\"up\",\"cat\":\"HtoD\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":0,\"dur\":1,\"args\":{\"bytes\":10,\"plan_node\":3}}"
      ",{\"name\":\"k\\u0001\",\"cat\":\"kernel\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
      "\"ts\":1,\"dur\":2}"
      "]}";
  EXPECT_EQ(os.str(), expected);
}

TEST(Trace, SpanCapacityKeepsNewestAndCountsDrops) {
  Trace trace;
  trace.set_span_capacity(3);
  for (int i = 0; i < 5; ++i)
    trace.record(SpanKind::Kernel, "s0", "k" + std::to_string(i),
                  static_cast<SimTime>(i), static_cast<SimTime>(i) + 1.0, 0);
  EXPECT_EQ(trace.dropped_spans(), 2u);
  ASSERT_EQ(trace.spans().size(), 3u);
  // Newest three survive, oldest first.
  EXPECT_EQ(trace.label(trace.spans()[0]), "k2");
  EXPECT_EQ(trace.label(trace.spans()[1]), "k3");
  EXPECT_EQ(trace.label(trace.spans()[2]), "k4");
  trace.clear();
  EXPECT_EQ(trace.dropped_spans(), 0u);
  EXPECT_TRUE(trace.spans().empty());
}

TEST(Trace, ShrinkingCapacityEvictsOldest) {
  Trace trace;
  for (int i = 0; i < 5; ++i)
    trace.record(SpanKind::Kernel, "s0", "k" + std::to_string(i),
                  static_cast<SimTime>(i), static_cast<SimTime>(i) + 1.0, 0);
  trace.set_span_capacity(2);
  EXPECT_EQ(trace.dropped_spans(), 3u);
  ASSERT_EQ(trace.spans().size(), 2u);
  EXPECT_EQ(trace.label(trace.spans()[0]), "k3");
  EXPECT_EQ(trace.label(trace.spans()[1]), "k4");
  // Default capacity is unbounded.
  EXPECT_EQ(Trace{}.span_capacity(), 0u);
}

TEST(Trace, OccupancyIgnoresZeroLengthSpans) {
  Trace trace;
  trace.record(SpanKind::Kernel, "s0", "marker", 1.0, 1.0, 0);
  EXPECT_DOUBLE_EQ(trace.occupancy(SpanKind::Kernel), 0.0);
}

TEST(Trace, OccupancyMergesFullyNestedIntervals) {
  Trace trace;
  trace.record(SpanKind::Kernel, "s0", "outer", 0.0, 10.0, 0);
  trace.record(SpanKind::Kernel, "s1", "inner", 2.0, 3.0, 0);
  EXPECT_DOUBLE_EQ(trace.occupancy(SpanKind::Kernel), 10.0);
}

TEST(Trace, OccupancyHandlesIdenticalStarts) {
  Trace trace;
  trace.record(SpanKind::H2D, "s0", "a", 0.0, 2.0, 1);
  trace.record(SpanKind::H2D, "s1", "b", 0.0, 5.0, 1);
  EXPECT_DOUBLE_EQ(trace.occupancy(SpanKind::H2D), 5.0);
}

TEST(Trace, OccupancyUnionSpansMultipleKinds) {
  Trace trace;
  trace.record(SpanKind::H2D, "s0", "up", 0.0, 2.0, 1);
  trace.record(SpanKind::Kernel, "s0", "k", 1.0, 3.0, 0);
  trace.record(SpanKind::D2H, "s0", "down", 5.0, 6.0, 1);
  EXPECT_DOUBLE_EQ(trace.occupancy_union({SpanKind::H2D, SpanKind::Kernel}), 3.0);
  EXPECT_DOUBLE_EQ(
      trace.occupancy_union({SpanKind::H2D, SpanKind::D2H, SpanKind::Kernel}), 4.0);
}

TEST(Trace, OverlapEfficiencyBounds) {
  // Fully serial timeline: no realised overlap.
  Trace serial;
  serial.record(SpanKind::H2D, "s0", "up", 0.0, 1.0, 1);
  serial.record(SpanKind::Kernel, "s0", "k", 1.0, 3.0, 0);
  EXPECT_DOUBLE_EQ(overlap_efficiency(serial), 0.0);

  // Transfer fully hidden behind the kernel: perfect overlap.
  Trace perfect;
  perfect.record(SpanKind::H2D, "s0", "up", 0.0, 1.0, 1);
  perfect.record(SpanKind::Kernel, "s1", "k", 0.0, 2.0, 0);
  EXPECT_DOUBLE_EQ(overlap_efficiency(perfect), 1.0);

  // Only one kind ran: nothing to overlap, defined as 0.
  Trace lone;
  lone.record(SpanKind::Kernel, "s0", "k", 0.0, 2.0, 0);
  EXPECT_DOUBLE_EQ(overlap_efficiency(lone), 0.0);
}

TEST(Trace, PlanNodeStampsDefaultToMinusOne) {
  Trace trace;
  EXPECT_EQ(trace.plan_node(), -1);
  trace.set_plan_node(7);
  EXPECT_EQ(trace.plan_node(), 7);
  trace.record(SpanKind::Kernel, "s0", "k", 0.0, 1.0, 0, trace.plan_node());
  EXPECT_EQ(trace.spans().back().node, 7);
}

TEST(Trace, InternTableSurvivesClear) {
  Trace trace;
  const StringId lane = trace.intern("s0");
  const StringId label = trace.intern("k");
  trace.record(Span{SpanKind::Kernel, lane, label, -1, 0.0, 1.0, 0, -1});
  trace.clear();
  // Cached ids stay valid after clear (streams/tasks cache them).
  trace.record(Span{SpanKind::Kernel, lane, label, -1, 1.0, 2.0, 0, -1});
  ASSERT_EQ(trace.spans().size(), 1u);
  EXPECT_EQ(trace.lane(trace.spans()[0]), "s0");
  EXPECT_EQ(trace.label(trace.spans()[0]), "k");
  EXPECT_EQ(trace.intern("s0"), lane);
}

TEST(Task, ZeroDurationTaskCompletesAtItsStartTime) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto before = Task::create(eng, 1.5);
  auto marker = Task::create(eng, 0.0);
  marker->depends_on(before);
  before->submit(0.0);
  marker->submit(0.0);
  sim.run_all();
  EXPECT_TRUE(marker->done());
  EXPECT_DOUBLE_EQ(marker->start_time(), 1.5);
  EXPECT_DOUBLE_EQ(marker->end_time(), 1.5);
}

TEST(Task, SameTimestampTasksCompleteInSubmissionOrder) {
  Simulator sim;
  Engine eng(sim, "e", 8);
  std::vector<int> order;
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 8; ++i) {
    auto t = Task::create(eng, 0.0);
    t->on_complete([&, i] { order.push_back(i); });
    tasks.push_back(t);
  }
  // Submit in reverse: FIFO is by submission (release) order at one
  // timestamp, so completion order follows the submit calls.
  for (auto it = tasks.rbegin(); it != tasks.rend(); ++it) (*it)->submit(0.0);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{7, 6, 5, 4, 3, 2, 1, 0}));
}

TEST(Engine, BusyTimeProRatesInFlightWork) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  auto t1 = Task::create(eng, 2.0);
  auto t2 = Task::create(eng, 3.0);
  t1->submit(0.0);
  t2->submit(0.0);
  // At t=1.0, t1 is halfway through service: exactly 1.0s of busy time has
  // elapsed — crediting the full duration at dispatch would report 2.0 and
  // push mid-run utilization over 100%.
  sim.run_until_time(1.0);
  EXPECT_DOUBLE_EQ(eng.busy_time(), 1.0);
  EXPECT_LE(eng.busy_time(), sim.now() * eng.capacity());
  sim.run_until_time(3.0);
  EXPECT_DOUBLE_EQ(eng.busy_time(), 3.0);
  sim.run_all();
  EXPECT_DOUBLE_EQ(eng.busy_time(), 5.0);
}

TEST(TaskArena, RecyclesSlotsAndTracksHighWater) {
  Simulator sim;
  Engine eng(sim, "e", 4);
  TaskArena& arena = sim.extension<TaskArena>();
  for (int round = 0; round < 16; ++round) {
    std::vector<TaskPtr> batch;
    for (int i = 0; i < 8; ++i) {
      auto t = Task::create(eng, 0.5);
      t->submit(sim.now());
      batch.push_back(std::move(t));
    }
    sim.run_all();
    batch.clear();
    EXPECT_EQ(arena.live(), 0u);
  }
  EXPECT_EQ(arena.created(), 16u * 8u);
  // Slot recycling keeps the footprint at one round's population.
  EXPECT_LE(arena.slots(), 8u);
  EXPECT_LE(arena.high_water(), 8u);
}

TEST(TaskArena, DroppedUnsubmittedTaskReleasesSuccessorEdges) {
  Simulator sim;
  Engine eng(sim, "e", 1);
  TaskArena& arena = sim.extension<TaskArena>();
  auto succ = Task::create(eng, 1.0);
  {
    auto pred = Task::create(eng, 1.0);
    succ->depends_on(pred);
    // pred dropped without ever being submitted: succ keeps waiting (the
    // dependency can never fire) but no references leak.
  }
  succ->submit(0.0);
  EXPECT_THROW(sim.run_until([&] { return succ->done(); }), Error);
  succ.reset();
  EXPECT_EQ(arena.live(), 0u);
}

TEST(Simulator, EventPoolRecyclesSlots) {
  Simulator sim;
  for (int round = 0; round < 32; ++round) {
    for (int i = 0; i < 4; ++i) sim.schedule_after(0.1 * (i + 1), [] {});
    sim.run_all();
  }
  EXPECT_EQ(sim.events_executed(), 32u * 4u);
  // The pool never grew past one round's peak.
  EXPECT_LE(sim.event_pool_slots(), 4u);
  EXPECT_LE(sim.events_high_water(), 4u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

// The determinism contract the pooled core must keep: a large mixed
// workload executes the same events in the same order with the same trace
// bytes, run after run.
namespace determinism {

struct RunResult {
  std::uint64_t events = 0;
  SimTime makespan = 0.0;
  std::vector<std::uint32_t> completion_order;
  std::string trace_json;
};

RunResult run_mixed_workload(int jobs) {
  RunResult r;
  Simulator sim;
  Engine h2d(sim, "h2d", 2);
  Engine compute(sim, "compute", 8);
  Engine d2h(sim, "d2h", 2);
  Trace trace;
  std::vector<StringId> lanes;
  for (int i = 0; i < 16; ++i) lanes.push_back(trace.intern("s" + std::to_string(i)));
  const StringId up_l = trace.intern("up");
  const StringId k_l = trace.intern("k");
  const StringId down_l = trace.intern("down");

  std::vector<TaskPtr> tails;
  std::uint32_t id = 0;
  for (int j = 0; j < jobs; ++j) {
    const StringId lane = lanes[static_cast<std::size_t>(j % 16)];
    const SimTime release = 1e-7 * static_cast<double>(j);
    auto up = Task::create(h2d, 1e-6 * (1 + j % 5));
    up->set_span(trace, SpanKind::H2D, lane, up_l, 128, -1);
    auto k = Task::create(compute, 1e-6 * (2 + j % 7));
    k->set_span(trace, SpanKind::Kernel, lane, k_l, 0, -1);
    k->depends_on(up);
    auto down = Task::create(d2h, j % 3 == 0 ? 0.0 : 1e-6);
    down->set_span(trace, SpanKind::D2H, lane, down_l, 128, -1);
    down->depends_on(k);
    for (auto* t : {&up, &k, &down}) {
      const std::uint32_t tid = id++;
      (*t)->on_complete([&r, tid] { r.completion_order.push_back(tid); });
      (*t)->submit(release);
    }
    tails.push_back(std::move(down));
  }
  r.makespan = sim.run_all();
  r.events = sim.events_executed();
  std::ostringstream os;
  trace.dump_chrome_json(os);
  r.trace_json = os.str();
  return r;
}

TEST(Determinism, MixedWorkloadIsBitIdenticalAcrossRuns) {
  const RunResult a = run_mixed_workload(10000);
  const RunResult b = run_mixed_workload(10000);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  // Event execution order, not just aggregate counts.
  ASSERT_EQ(a.completion_order.size(), b.completion_order.size());
  EXPECT_EQ(a.completion_order, b.completion_order);
  // Full trace bytes, not a summary.
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace determinism

}  // namespace
}  // namespace gpupipe::sim

