// Dynamic just-in-time baseline tests (Min-Min / Max-Min / Sufferage).
#include <gtest/gtest.h>

#include "core/dynamic_scheduler.h"
#include "core/heft.h"
#include "core/strategy.h"
#include "helpers.h"
#include "traces/load_timeline.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

/// One just-in-time run through the production path (run_strategy), with
/// the realized placements read back from its trace.
struct DynamicRun {
  StrategyOutcome outcome;
  sim::TraceRecorder trace;

  /// The compute interval `job` completed in.
  [[nodiscard]] sim::TraceInterval placement(dag::JobId job) const {
    for (const sim::TraceInterval& interval : trace.intervals()) {
      if (interval.kind == sim::IntervalKind::kCompute && interval.job == job) {
        return interval;
      }
    }
    ADD_FAILURE() << "job " << job << " never ran";
    return {};
  }
};

DynamicRun simulate(const dag::Dag& dag, const grid::CostProvider& model,
                    const grid::ResourcePool& pool,
                    DynamicHeuristic heuristic = DynamicHeuristic::kMinMin,
                    const grid::LoadProfile* load = nullptr) {
  DynamicRun run;
  SessionEnvironment env;
  env.pool = &pool;
  env.load = load;
  env.trace = &run.trace;
  StrategyConfig config;
  config.heuristic = heuristic;
  run.outcome =
      run_strategy(StrategyKind::kDynamic, dag, model, model, env, config);
  return run;
}

TEST(Dynamic, RunsSampleDagToCompletion) {
  const auto scenario = workloads::sample_scenario();
  const DynamicRun run =
      simulate(scenario.dag, scenario.model, scenario.pool);
  EXPECT_GT(run.outcome.makespan, 0.0);
  EXPECT_GE(run.outcome.evaluations, 1u);
  test::expect_valid_trace(run.trace, scenario.dag, scenario.model,
                           scenario.pool);
}

TEST(Dynamic, DeferredTransfersMakeItNoBetterThanHeft) {
  // On the worked example the just-in-time strategy cannot beat the static
  // plan: every cross-resource input waits for a decision before moving.
  const auto scenario = workloads::sample_scenario();
  const DynamicRun minmin =
      simulate(scenario.dag, scenario.model, scenario.pool);
  const Schedule heft =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);
  EXPECT_GE(minmin.outcome.makespan, heft.makespan() - sim::kTimeEpsilon);
}

TEST(Dynamic, SingleJobMatchesFastestResource) {
  dag::Dag graph;
  graph.add_job("only");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  pool.add(grid::Resource{});
  grid::MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 9.0);
  model.set_compute_cost(0, 1, 4.0);
  const DynamicRun run = simulate(graph, model, pool);
  EXPECT_DOUBLE_EQ(run.outcome.makespan, 4.0);
  EXPECT_EQ(run.placement(0).resource, 1u);
}

TEST(Dynamic, MinMinPrefersShortJobFirstOnContention) {
  // Two independent jobs, one resource: Min-Min runs the shorter first.
  dag::Dag graph;
  graph.add_job("long");
  graph.add_job("short");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 2.0);
  const DynamicRun run = simulate(graph, model, pool);
  EXPECT_DOUBLE_EQ(run.placement(1).start, 0.0);
  EXPECT_DOUBLE_EQ(run.placement(0).start, 2.0);
  EXPECT_DOUBLE_EQ(run.outcome.makespan, 12.0);
}

TEST(Dynamic, MaxMinPrefersLongJobFirstOnContention) {
  dag::Dag graph;
  graph.add_job("long");
  graph.add_job("short");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 2.0);
  const DynamicRun run =
      simulate(graph, model, pool, DynamicHeuristic::kMaxMin);
  EXPECT_DOUBLE_EQ(run.placement(0).start, 0.0);
  EXPECT_DOUBLE_EQ(run.placement(1).start, 10.0);
}

TEST(Dynamic, UsesResourcesThatArriveMidRun) {
  // A chain head delays two parallel successors past r2's arrival; the
  // just-in-time scheduler should exploit the newcomer.
  dag::Dag graph;
  const dag::JobId head = graph.add_job("head");
  const dag::JobId left = graph.add_job("left");
  const dag::JobId right = graph.add_job("right");
  graph.add_edge(head, left, 0.0);
  graph.add_edge(head, right, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "r1", .arrival = 0.0});
  pool.add(grid::Resource{.name = "r2", .arrival = 5.0});
  grid::MachineModel model(3, 2);
  for (dag::JobId i = 0; i < 3; ++i) {
    model.set_compute_cost(i, 0, 10.0);
    model.set_compute_cost(i, 1, 10.0);
  }
  const DynamicRun run = simulate(graph, model, pool);
  // head on r1 [0,10); then left/right in parallel on r1 and r2.
  EXPECT_DOUBLE_EQ(run.outcome.makespan, 20.0);
  EXPECT_NE(run.placement(left).resource, run.placement(right).resource);
}

TEST(Dynamic, ChainPaysTransferAtDecisionTime) {
  // a -> b with data 6; two resources; b's best completion includes the
  // decision-time transfer, so same-resource execution wins.
  dag::Dag graph;
  const dag::JobId a = graph.add_job("a");
  const dag::JobId b = graph.add_job("b");
  graph.add_edge(a, b, 6.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 2);
  model.set_compute_cost(0, 0, 5.0);
  model.set_compute_cost(0, 1, 5.0);
  model.set_compute_cost(1, 0, 4.0);
  model.set_compute_cost(1, 1, 3.0);
  const DynamicRun run = simulate(graph, model, pool);
  // On r0 (with a): 5 + 4 = 9. On r1: 5 + 6 (transfer from t=5) + 3 = 14.
  EXPECT_EQ(run.placement(b).resource, 0u);
  EXPECT_DOUBLE_EQ(run.outcome.makespan, 9.0);
}

TEST(Dynamic, RejectsEmptyInitialPool) {
  dag::Dag graph;
  graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "late", .arrival = 10.0});
  grid::MachineModel model(1, 1);
  model.set_compute_cost(0, 0, 1.0);
  EXPECT_THROW((void)simulate(graph, model, pool), std::invalid_argument);
}

TEST(Dynamic, LoadProfileStretchesRealizedRunTimes) {
  // Chain of two jobs on one machine under a uniform 2x load: decisions
  // keep using nominal costs, but the realized makespan must double —
  // the baseline now compares with HEFT/AHEFT under the same load.
  dag::Dag graph;
  graph.add_job("a");
  graph.add_job("b");
  graph.add_edge(0, 1, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 5.0);

  const DynamicRun nominal = simulate(graph, model, pool);
  EXPECT_DOUBLE_EQ(nominal.outcome.makespan, 15.0);

  traces::LoadTimeline load;
  load.add(0, 0.0, sim::kTimeInfinity, 2.0);
  const DynamicRun stretched =
      simulate(graph, model, pool, DynamicHeuristic::kMinMin, &load);
  EXPECT_DOUBLE_EQ(stretched.outcome.makespan, 30.0);
  EXPECT_NE(stretched.outcome.makespan, nominal.outcome.makespan);
}

TEST(Dynamic, LoadSegmentSampledAtRealizedStart) {
  // The 2x segment covers only the second job's (delayed) start window,
  // so exactly that job stretches: 10 + 2*5 = 20.
  dag::Dag graph;
  graph.add_job("a");
  graph.add_job("b");
  graph.add_edge(0, 1, 0.0);
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{});
  grid::MachineModel model(2, 1);
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(1, 0, 5.0);

  traces::LoadTimeline load;
  load.add(0, 10.0, sim::kTimeInfinity, 2.0);
  const DynamicRun run =
      simulate(graph, model, pool, DynamicHeuristic::kMinMin, &load);
  EXPECT_DOUBLE_EQ(run.outcome.makespan, 20.0);
}

TEST(Dynamic, SkipsMachinesThatDepartBeforeCompletion) {
  // The nominally fastest machine departs too soon; the just-in-time
  // decision must route around the announced window.
  dag::Dag graph;
  graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "fast-but-doomed", .departure = 5.0});
  pool.add(grid::Resource{.name = "slow"});
  grid::MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 6.0);  // would outlive the window
  model.set_compute_cost(0, 1, 9.0);
  const DynamicRun run = simulate(graph, model, pool);
  EXPECT_EQ(run.placement(0).resource, 1u);
  EXPECT_DOUBLE_EQ(run.outcome.makespan, 9.0);
}

TEST(Dynamic, ReportsWhenNoMachineCanFinishBeforeDeparting) {
  dag::Dag graph;
  graph.add_job("a");
  graph.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "doomed", .departure = 5.0});
  grid::MachineModel model(1, 1);
  model.set_compute_cost(0, 0, 10.0);
  EXPECT_THROW((void)simulate(graph, model, pool), std::runtime_error);
}

TEST(Dynamic, FailedRunReleasesItsMachinesAtTheFailureTime) {
  // a runs on m0 over [0,100). c runs on m1 over [0,10); its successor b
  // fits m1's window nominally (10 + 10 <= 30), but the 5x load from t=10
  // stretches it to 60, so under kFail the run fails at t=10. The
  // failure must cut a's interval there and hand m0 back: a competitor
  // launched at the failure time starts on m0 at once.
  dag::Dag graph;
  const dag::JobId a = graph.add_job("a");
  const dag::JobId c = graph.add_job("c");
  const dag::JobId b = graph.add_job("b");
  graph.add_edge(c, b, 0.0);
  graph.finalize();
  dag::Dag competitor;
  competitor.add_job("d");
  competitor.finalize();
  grid::ResourcePool pool;
  pool.add(grid::Resource{.name = "m0"});
  pool.add(grid::Resource{.name = "m1", .departure = 30.0});
  grid::MachineModel model(3, 2);
  model.set_compute_cost(a, 0, 100.0);
  model.set_compute_cost(a, 1, 1000.0);
  model.set_compute_cost(c, 0, 1000.0);
  model.set_compute_cost(c, 1, 10.0);
  model.set_compute_cost(b, 0, 1000.0);
  model.set_compute_cost(b, 1, 10.0);
  grid::MachineModel competitor_model(1, 2);
  competitor_model.set_compute_cost(0, 0, 5.0);
  competitor_model.set_compute_cost(0, 1, 1000.0);
  traces::LoadTimeline load;
  load.add(1, 10.0, sim::kTimeInfinity, 5.0);

  sim::TraceRecorder trace;
  SessionEnvironment env;
  env.pool = &pool;
  env.load = &load;
  env.trace = &trace;
  env.resilience.departure_action = resilience::DepartureAction::kFail;
  SimulationSession session(env);
  const std::unique_ptr<StrategyDriver> driver =
      make_strategy_driver(StrategyKind::kDynamic);
  StrategyOutcome failed;
  StrategyOutcome rival;
  driver->launch(
      session, graph, model, model, sim::kTimeZero,
      [&](const StrategyOutcome& outcome) {
        failed = outcome;
        driver->launch(session, competitor, competitor_model,
                       competitor_model, session.simulator().now(),
                       [&](const StrategyOutcome& next) { rival = next; });
      });
  session.run();

  ASSERT_TRUE(failed.failed);
  EXPECT_DOUBLE_EQ(failed.makespan, 10.0);
  EXPECT_DOUBLE_EQ(failed.lost_work, 10.0);    // a, cut after 10 units
  EXPECT_DOUBLE_EQ(failed.useful_work, 10.0);  // c completed
  std::vector<sim::TraceInterval> on_m0;
  for (const sim::TraceInterval& interval : trace.sorted(
           sim::IntervalKind::kCompute)) {
    if (interval.resource == 0) {
      on_m0.push_back(interval);
    }
  }
  ASSERT_EQ(on_m0.size(), 2u);
  EXPECT_DOUBLE_EQ(on_m0[0].start, 0.0);  // a, cut at the failure
  EXPECT_DOUBLE_EQ(on_m0[0].end, 10.0);
  EXPECT_DOUBLE_EQ(on_m0[1].start, 10.0);  // d, on the released machine
  EXPECT_DOUBLE_EQ(rival.makespan, 15.0);
}

TEST(Dynamic, HeuristicNames) {
  EXPECT_EQ(to_string(DynamicHeuristic::kMinMin), "min-min");
  EXPECT_EQ(to_string(DynamicHeuristic::kMaxMin), "max-min");
  EXPECT_EQ(to_string(DynamicHeuristic::kSufferage), "sufferage");
}

// ----- property sweep ------------------------------------------------------

class DynamicProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicProperty, ProducesValidExecutions) {
  const test::RandomCase c = test::make_random_case(GetParam());
  for (const auto heuristic :
       {DynamicHeuristic::kMinMin, DynamicHeuristic::kMaxMin,
        DynamicHeuristic::kSufferage}) {
    const DynamicRun run =
        simulate(c.workload.dag, c.model, c.pool, heuristic);
    EXPECT_GT(run.outcome.makespan, 0.0);
    test::expect_valid_trace(run.trace, c.workload.dag, c.model, c.pool);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace aheft::core
