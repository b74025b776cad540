// AHEFT rescheduler tests: FEA cases (Eq. 1), snapshot pinning, the Fig. 5
// worked example, and policy behaviours.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/execution_engine.h"
#include "core/heft.h"
#include "core/rescheduler.h"
#include "helpers.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "workloads/sample.h"

namespace aheft::core {
namespace {

/// Two jobs a -> b with data 10, two always-on resources, costs:
/// a: 5 on both; b: 5 on both. Used for surgical FEA checks.
struct TinyFixture {
  TinyFixture() : model(2, 3) {
    a = graph.add_job("a");
    b = graph.add_job("b");
    graph.add_edge(a, b, 10.0);
    graph.finalize();
    for (grid::ResourceId r = 0; r < 3; ++r) {
      pool.add(grid::Resource{.name = "", .arrival = 0.0});
      model.set_compute_cost(0, r, 5.0);
      model.set_compute_cost(1, r, 5.0);
    }
  }

  RescheduleRequest request(const ExecutionSnapshot* snapshot,
                            const Schedule* previous, sim::Time clock) {
    RescheduleRequest req;
    req.dag = &graph;
    req.estimates = &model;
    req.pool = &pool;
    req.resources = {0, 1, 2};
    req.clock = clock;
    req.snapshot = snapshot;
    req.previous = previous;
    return req;
  }

  dag::Dag graph;
  grid::ResourcePool pool;
  grid::MachineModel model;
  dag::JobId a{};
  dag::JobId b{};
};

TEST(FileAvailable, Case1FinishedOnTarget) {
  TinyFixture fx;
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);  // output at its own resource at AFT
  Schedule s0(2);
  const auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  EXPECT_DOUBLE_EQ(file_available(req, 0, 0, s1), 5.0);  // AFT(a)
}

TEST(FileAvailable, Case2FinishedButNeverSentToTarget) {
  TinyFixture fx;
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);
  Schedule s0(2);
  auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  // Literal Eq. 1 Case 2: retransmission starts at clock, 20 + 10 = 30.
  req.config.transfer_policy = TransferPolicy::kRetransmitFromClock;
  EXPECT_DOUBLE_EQ(file_available(req, 0, 1, s1), 30.0);
  // Eager replication: the copy left at AFT, 5 + 10 = 15.
  req.config.transfer_policy = TransferPolicy::kEagerReplicate;
  EXPECT_DOUBLE_EQ(file_available(req, 0, 1, s1), 15.0);
}

TEST(FileAvailable, EagerReplicationWaitsForTheTargetToExist) {
  TinyFixture fx;
  fx.pool.set_arrival(2, 12.0);  // r2 joins at t=12
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);
  Schedule s0(2);
  auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  req.config.transfer_policy = TransferPolicy::kEagerReplicate;
  // Transfer to r2 could only start when r2 appeared: 12 + 10 = 22.
  EXPECT_DOUBLE_EQ(file_available(req, 0, 2, s1), 22.0);
}

TEST(FileAvailable, InFlightTransferKeepsItsArrival) {
  TinyFixture fx;
  ExecutionSnapshot snap(20.0, 2, 1);
  snap.mark_finished(fx.a, FinishedInfo{0, 0.0, 5.0});
  snap.record_arrival(0, 0, 5.0);
  snap.record_arrival(0, 2, 15.0);  // transfer initiated at AFT per S0
  Schedule s0(2);
  auto req = fx.request(&snap, &s0, 20.0);
  Schedule s1(2);
  // "Otherwise" with finished producer: SFT + c = 5 + 10 = 15.
  EXPECT_DOUBLE_EQ(file_available(req, 0, 2, s1), 15.0);
}

TEST(FileAvailable, Case3UnfinishedSameResource) {
  TinyFixture fx;
  auto req = fx.request(nullptr, nullptr, 0.0);
  Schedule s1(2);
  s1.assign(Assignment{fx.a, 1, 0.0, 5.0});
  EXPECT_DOUBLE_EQ(file_available(req, 0, 1, s1), 5.0);       // SFT
  EXPECT_DOUBLE_EQ(file_available(req, 0, 0, s1), 15.0);      // SFT + c
}

TEST(Rescheduler, InitialSchedulingEqualsHeft) {
  const auto scenario = workloads::sample_scenario();
  const Schedule heft =
      heft_schedule(scenario.dag, scenario.model, scenario.pool);

  RescheduleRequest req;
  req.dag = &scenario.dag;
  req.estimates = &scenario.model;
  req.pool = &scenario.pool;
  req.resources = scenario.pool.available_at(0.0);
  req.clock = 0.0;
  const Schedule direct = aheft_schedule(req);

  ASSERT_EQ(direct.job_count(), heft.job_count());
  for (dag::JobId i = 0; i < heft.job_count(); ++i) {
    EXPECT_EQ(direct.assignment(i).resource, heft.assignment(i).resource);
    EXPECT_DOUBLE_EQ(direct.assignment(i).start, heft.assignment(i).start);
  }
}

class Fig5 : public ::testing::Test {
 protected:
  /// Executes the published HEFT plan to t=15 and returns the reschedule
  /// request state at that moment.
  void run_to_15() {
    heft_ = heft_schedule(scenario_.dag, scenario_.model, scenario_.pool);
    engine_.submit(heft_);
    sim_.run_until(15.0);
    snapshot_ = engine_.snapshot();
  }

  RescheduleRequest request(SchedulerConfig config) {
    RescheduleRequest req;
    req.dag = &scenario_.dag;
    req.estimates = &scenario_.model;
    req.pool = &scenario_.pool;
    req.resources = scenario_.pool.available_at(15.0);
    req.clock = 15.0;
    req.snapshot = &snapshot_;
    req.previous = &heft_;
    req.config = config;
    return req;
  }

  workloads::SampleScenario scenario_ = workloads::sample_scenario(15.0);
  sim::Simulator sim_;
  ExecutionEngine engine_{sim_, scenario_.dag, scenario_.model,
                          scenario_.pool};
  Schedule heft_;
  ExecutionSnapshot snapshot_ = ExecutionSnapshot::initial(10, 15);
};

TEST_F(Fig5, SnapshotAt15SeesN1FinishedAndN3Running) {
  run_to_15();
  EXPECT_EQ(snapshot_.finished_count(), 1u);
  EXPECT_TRUE(snapshot_.finished(0));
  EXPECT_DOUBLE_EQ(snapshot_.finished_info(0).aft, 9.0);
  ASSERT_EQ(snapshot_.running().size(), 1u);
  EXPECT_EQ(snapshot_.running()[0].job, 2u);  // n3
  EXPECT_DOUBLE_EQ(snapshot_.running()[0].expected_finish, 28.0);
}

TEST_F(Fig5, StrictTransfersGreedyCannotBeatTheCurrentPlan) {
  // Under the literal Eq. 1 Case 2 ("transmission can not be earlier than
  // clock"), strict rank order finds nothing better than the incumbent 80.
  run_to_15();
  SchedulerConfig config;
  config.transfer_policy = TransferPolicy::kRetransmitFromClock;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_GE(candidate.makespan(), 80.0 - sim::kTimeEpsilon);
}

TEST_F(Fig5, PrestagedGreedyPlacesN5OnR4AsDrawnButFallsIntoAGreedyTrap) {
  // Fig. 5(b) as drawn has n5 on the new r4 at [20, 34): its input counts
  // from AFT(n1) + c = 20 although r4 only joined at 15 — the pre-staged
  // transfer model. Greedy min-EFT under that model indeed makes exactly
  // this placement, but then sends n9 to r1 (EFT 67 beats r2's 68), which
  // blocks n8 and cascades to makespan 87; the adoption filter rightly
  // declines it. The published 76 therefore mixes pre-staged availability
  // with a placement strict rank-order greedy does not produce.
  run_to_15();
  SchedulerConfig config;
  config.transfer_policy = TransferPolicy::kPrestagedArrivals;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_EQ(candidate.assignment(4).resource, 3u);  // n5 on r4, as drawn
  EXPECT_DOUBLE_EQ(candidate.assignment(4).start, 20.0);
  EXPECT_DOUBLE_EQ(candidate.assignment(4).finish, 34.0);
  EXPECT_DOUBLE_EQ(candidate.makespan(), 87.0);  // ... but the plan loses
}

TEST_F(Fig5, OrderExplorationReaches76EvenUnderStrictTransfers) {
  // The 76-unit makespan is also reachable under the conservative transfer
  // model — one near-tie order swap (n6 before n5) suffices.
  run_to_15();
  SchedulerConfig config;
  config.transfer_policy = TransferPolicy::kRetransmitFromClock;
  config.order_candidates = 8;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_DOUBLE_EQ(candidate.makespan(), 76.0);
  // Fig. 5(b) structure: n3 keeps its r3 slot; n10 finishes at 76.
  EXPECT_EQ(candidate.assignment(2).resource, 2u);
  EXPECT_DOUBLE_EQ(candidate.assignment(2).start, 9.0);
  EXPECT_DOUBLE_EQ(candidate.assignment(9).finish, 76.0);
}

TEST_F(Fig5, RestartPolicyLosesN3Progress) {
  run_to_15();
  SchedulerConfig config;
  config.running_policy = RunningJobPolicy::kRestartable;
  const Schedule candidate = aheft_schedule(request(config));
  // n3 restarts no earlier than the reschedule clock.
  EXPECT_GE(candidate.assignment(2).start, 15.0);
}

TEST_F(Fig5, KeepRunningPinsN3) {
  run_to_15();
  SchedulerConfig config;
  config.running_policy = RunningJobPolicy::kKeepRunning;
  const Schedule candidate = aheft_schedule(request(config));
  EXPECT_EQ(candidate.assignment(2).resource, 2u);
  EXPECT_DOUBLE_EQ(candidate.assignment(2).start, 9.0);
  EXPECT_DOUBLE_EQ(candidate.assignment(2).finish, 28.0);
}

TEST_F(Fig5, FinishedJobsAreAlwaysPinned) {
  run_to_15();
  for (const auto policy :
       {RunningJobPolicy::kKeepRunning, RunningJobPolicy::kRestartable}) {
    SchedulerConfig config;
    config.running_policy = policy;
    config.order_candidates = 8;
    const Schedule candidate = aheft_schedule(request(config));
    EXPECT_EQ(candidate.assignment(0).resource, 2u);
    EXPECT_DOUBLE_EQ(candidate.assignment(0).start, 0.0);
    EXPECT_DOUBLE_EQ(candidate.assignment(0).finish, 9.0);
  }
}

TEST_F(Fig5, NewJobsNeverScheduledBeforeClock) {
  run_to_15();
  SchedulerConfig config;
  config.order_candidates = 8;
  const Schedule candidate = aheft_schedule(request(config));
  for (dag::JobId i = 0; i < 10; ++i) {
    if (i == 0 || i == 2) {
      continue;  // pinned history
    }
    EXPECT_GE(candidate.assignment(i).start, 15.0) << "n" << i + 1;
  }
}

TEST(Rescheduler, DepartedResourceForcesRunningJobOff) {
  TinyFixture fx;
  // Job a runs on r0 which departs at t=8, before a's expected finish 10.
  fx.pool.set_departure(0, 8.0);
  ExecutionSnapshot snap(6.0, 2, 1);
  snap.add_running(RunningInfo{fx.a, 0, 5.0, 10.0});
  Schedule s0(2);
  s0.assign(Assignment{fx.a, 0, 5.0, 10.0});
  s0.assign(Assignment{fx.b, 0, 10.0, 15.0});

  RescheduleRequest req = fx.request(&snap, &s0, 6.0);
  req.resources = {1, 2};  // r0 is gone
  req.config.running_policy = RunningJobPolicy::kKeepRunning;
  const Schedule s1 = aheft_schedule(req);
  EXPECT_NE(s1.assignment(fx.a).resource, 0u);
  EXPECT_GE(s1.assignment(fx.a).start, 6.0);
}

TEST(Rescheduler, RequestValidation) {
  TinyFixture fx;
  RescheduleRequest req = fx.request(nullptr, nullptr, 0.0);
  req.resources.clear();
  EXPECT_THROW(aheft_schedule(req), std::invalid_argument);

  RescheduleRequest bad = fx.request(nullptr, nullptr, 0.0);
  Schedule s0(2);
  bad.previous = &s0;  // previous without snapshot
  EXPECT_THROW(aheft_schedule(bad), std::invalid_argument);
}

// ----- property sweep: rescheduling mid-run stays consistent -------------

class ReschedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReschedulerProperty, MidRunRescheduleIsConsistent) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const Schedule initial = heft_schedule(c.workload.dag, c.model, c.pool);

  sim::Simulator sim;
  ExecutionEngine engine(sim, c.workload.dag, c.model, c.pool);
  engine.submit(initial);
  const sim::Time pause = initial.makespan() / 2.0;
  sim.run_until(pause);
  const ExecutionSnapshot snap = engine.snapshot();

  RescheduleRequest req;
  req.dag = &c.workload.dag;
  req.estimates = &c.model;
  req.pool = &c.pool;
  req.resources = c.pool.available_at(pause);
  req.clock = pause;
  req.snapshot = &snap;
  req.previous = &engine.current_schedule();
  const Schedule candidate = aheft_schedule(req);

  // Complete, and everything not already done starts at/after the clock.
  EXPECT_TRUE(candidate.complete());
  const auto running = [&snap](dag::JobId job) {
    return std::any_of(snap.running().begin(), snap.running().end(),
                       [job](const RunningInfo& r) { return r.job == job; });
  };
  for (dag::JobId i = 0; i < candidate.job_count(); ++i) {
    if (snap.finished(i)) {
      EXPECT_DOUBLE_EQ(candidate.assignment(i).finish,
                       snap.finished_info(i).aft);
    } else if (!running(i)) {
      EXPECT_GE(candidate.assignment(i).start, pause - sim::kTimeEpsilon);
    }
  }
  // Submitting the candidate and running to completion must succeed and
  // realize exactly the predicted makespan (accurate estimates).
  engine.submit(candidate);
  sim.run();
  EXPECT_TRUE(engine.finished());
  EXPECT_NEAR(engine.makespan(), candidate.makespan(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReschedulerProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// ----- Eq. 1 oracle on real mid-run snapshots -----------------------------

/// Eq. 1 as a single call per (edge, target), every lookup repeated: the
/// formulation file_available had before it was split into
/// resolve_edge_input and edge_available. Kept verbatim as the reference.
sim::Time reference_file_available(const RescheduleRequest& request,
                                   std::size_t edge_index,
                                   grid::ResourceId target,
                                   const Schedule& new_schedule) {
  const dag::Dag& dag = *request.dag;
  const dag::Edge& edge = dag.edges()[edge_index];
  const dag::JobId producer = edge.from;
  const grid::CostProvider& est = *request.estimates;

  if (request.snapshot != nullptr && request.snapshot->finished(producer)) {
    const FinishedInfo& info = request.snapshot->finished_info(producer);
    const auto& arrivals = request.snapshot->arrivals(edge_index);
    if (const auto it = arrivals.find(target); it != arrivals.end()) {
      return it->second;
    }
    const double c = est.comm_cost(edge, info.resource, target);
    const grid::Resource& machine = request.pool->resource(target);
    switch (request.config.transfer_policy) {
      case TransferPolicy::kRetransmitFromClock:
        return request.clock + c;
      case TransferPolicy::kEagerReplicate:
        return std::max(info.aft, machine.arrival) + c;
      case TransferPolicy::kPrestagedArrivals:
        return std::max(info.aft + c, machine.arrival);
    }
    return request.clock + c;
  }

  AHEFT_ASSERT(new_schedule.assigned(producer),
               "predecessor " + dag.job(producer).name +
                   " not yet placed — rank order violated");
  const Assignment& placed = new_schedule.assignment(producer);
  if (placed.resource == target) {
    return placed.finish;
  }
  return placed.finish + est.comm_cost(edge, placed.resource, target);
}

class FileAvailableOracle : public ::testing::TestWithParam<std::uint64_t> {};

// Stops a seeded random case at several clocks and checks Eq. 1 for every
// transfer policy and every (in-edge, visible resource) pair against the
// reference, over both producer states: finished in the snapshot (with
// and without an arrival on the target) and placed in a partial S1.
TEST_P(FileAvailableOracle, MatchesReferenceOnMidRunSnapshots) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const dag::Dag& dag = c.workload.dag;
  const Schedule initial = heft_schedule(dag, c.model, c.pool);
  const std::vector<dag::JobId>& topo = dag.topological_order();

  std::size_t finished_arrived = 0;
  std::size_t finished_not_arrived = 0;
  std::size_t placed = 0;
  std::size_t unresolved = 0;
  for (const double fraction : {0.2, 0.4, 0.6, 0.8}) {
    sim::Simulator sim;
    ExecutionEngine engine(sim, dag, c.model, c.pool);
    engine.submit(initial);
    sim.run_until(initial.makespan() * fraction);
    const ExecutionSnapshot snap = engine.snapshot();

    // A partial S1: the unfinished jobs of the first half of a
    // topological order, at their slots in the running plan.
    Schedule s1(dag.job_count());
    for (std::size_t k = 0; k < topo.size() / 2; ++k) {
      if (!snap.finished(topo[k])) {
        s1.assign(engine.current_schedule().assignment(topo[k]));
      }
    }

    RescheduleRequest req;
    req.dag = &dag;
    req.estimates = &c.model;
    req.pool = &c.pool;
    req.resources = c.pool.available_at(snap.clock());
    req.clock = snap.clock();
    req.snapshot = &snap;
    req.previous = &engine.current_schedule();
    for (const TransferPolicy policy :
         {TransferPolicy::kRetransmitFromClock,
          TransferPolicy::kEagerReplicate,
          TransferPolicy::kPrestagedArrivals}) {
      req.config.transfer_policy = policy;
      for (std::size_t e = 0; e < dag.edges().size(); ++e) {
        const dag::JobId producer = dag.edges()[e].from;
        const bool finished = snap.finished(producer);
        if (!finished && !s1.assigned(producer)) {
          EXPECT_THROW((void)file_available(req, e, req.resources.front(), s1),
                       AssertionError);
          ++unresolved;
          continue;
        }
        for (const grid::ResourceId r : req.resources) {
          const sim::Time expected = reference_file_available(req, e, r, s1);
          // Bit-identical: both sides must evaluate the same expression.
          EXPECT_EQ(file_available(req, e, r, s1), expected)
              << "edge " << e << " target " << r << " clock " << req.clock;
          if (!finished) {
            ++placed;
          } else if (snap.arrivals(e).count(r) != 0) {
            ++finished_arrived;
          } else {
            ++finished_not_arrived;
          }
        }
      }
    }
  }
  EXPECT_GT(finished_arrived, 0u);
  EXPECT_GT(finished_not_arrived, 0u);
  EXPECT_GT(placed, 0u);
  EXPECT_GT(unresolved, 0u);
}

// Eq. 1 by rows: for every job whose in-edges resolve, the row over a
// visible set must equal, per resource, the max of the reference over the
// job's in-edges in in-edge order. The visible set leaves out the
// resource holding the most arrivals, so arrivals fall outside the row;
// that resource then gets a one-target row of its own, as a kept resource
// that is no longer visible does in re-pricing mode.
TEST_P(FileAvailableOracle, RowMatchesReferenceMaxOverInEdges) {
  const test::RandomCase c = test::make_random_case(GetParam());
  const dag::Dag& dag = c.workload.dag;
  const Schedule initial = heft_schedule(dag, c.model, c.pool);
  const std::vector<dag::JobId>& topo = dag.topological_order();

  std::size_t rows = 0;
  std::size_t hidden_arrivals = 0;
  for (const double fraction : {0.2, 0.4, 0.6, 0.8}) {
    sim::Simulator sim;
    ExecutionEngine engine(sim, dag, c.model, c.pool);
    engine.submit(initial);
    sim.run_until(initial.makespan() * fraction);
    const ExecutionSnapshot snap = engine.snapshot();

    Schedule s1(dag.job_count());
    for (std::size_t k = 0; k < topo.size() / 2; ++k) {
      if (!snap.finished(topo[k])) {
        s1.assign(engine.current_schedule().assignment(topo[k]));
      }
    }

    // Hide the available resource that the most edges have arrivals on.
    std::vector<grid::ResourceId> visible = c.pool.available_at(snap.clock());
    ASSERT_GE(visible.size(), 2u);
    const auto arrivals_on = [&](grid::ResourceId r) {
      std::size_t count = 0;
      for (std::size_t e = 0; e < dag.edges().size(); ++e) {
        count += snap.arrivals(e).count(r);
      }
      return count;
    };
    const auto hidden_it =
        std::max_element(visible.begin(), visible.end(),
                         [&](grid::ResourceId a, grid::ResourceId b) {
                           return arrivals_on(a) < arrivals_on(b);
                         });
    const grid::ResourceId hidden = *hidden_it;
    hidden_arrivals += arrivals_on(hidden);
    visible.erase(hidden_it);

    RescheduleRequest req;
    req.dag = &dag;
    req.estimates = &c.model;
    req.pool = &c.pool;
    req.resources = visible;
    req.clock = snap.clock();
    req.snapshot = &snap;
    req.previous = &engine.current_schedule();
    DataReadyRow row(req, req.resources);
    DataReadyRow kept(req, std::span(&hidden, 1));
    std::vector<EdgeInput> inputs;
    for (const TransferPolicy policy :
         {TransferPolicy::kRetransmitFromClock,
          TransferPolicy::kEagerReplicate,
          TransferPolicy::kPrestagedArrivals}) {
      req.config.transfer_policy = policy;
      for (dag::JobId job = 0; job < dag.job_count(); ++job) {
        const auto in = dag.in_edges(job);
        const bool resolvable =
            std::all_of(in.begin(), in.end(), [&](std::uint32_t e) {
              const dag::JobId producer = dag.edges()[e].from;
              return snap.finished(producer) || s1.assigned(producer);
            });
        if (!resolvable) {
          continue;
        }
        inputs.clear();
        for (const std::uint32_t e : in) {
          inputs.push_back(resolve_edge_input(req, e, s1));
        }
        row.fill(inputs);
        kept.fill(inputs);
        const auto expected = [&](grid::ResourceId r) {
          sim::Time ready = sim::kTimeZero;
          for (const std::uint32_t e : in) {
            ready = std::max(ready, reference_file_available(req, e, r, s1));
          }
          return ready;
        };
        for (std::size_t k = 0; k < req.resources.size(); ++k) {
          EXPECT_EQ(row.value(k), expected(req.resources[k]))
              << "job " << job << " target " << req.resources[k]
              << " clock " << req.clock;
        }
        EXPECT_EQ(kept.value(0), expected(hidden))
            << "job " << job << " kept " << hidden << " clock " << req.clock;
        ++rows;
      }
    }
  }
  EXPECT_GT(rows, 0u);
  EXPECT_GT(hidden_arrivals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileAvailableOracle,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace aheft::core
