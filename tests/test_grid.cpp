// Unit tests for the grid substrate: pool, machine model, predictors,
// history repository, events.
#include <gtest/gtest.h>

#include "dag/dag.h"
#include "grid/events.h"
#include "support/assert.h"
#include "grid/history.h"
#include "grid/machine_model.h"
#include "grid/predictor.h"
#include "grid/resource_pool.h"

namespace aheft::grid {
namespace {

ResourcePool small_pool() {
  ResourcePool pool;
  pool.add(Resource{.name = "r1", .arrival = 0.0});
  pool.add(Resource{.name = "r2", .arrival = 0.0});
  pool.add(Resource{.name = "r3", .arrival = 15.0});
  pool.add(Resource{.name = "r4", .arrival = 30.0});
  return pool;
}

TEST(ResourcePool, AvailabilityFollowsArrivals) {
  const ResourcePool pool = small_pool();
  EXPECT_EQ(pool.universe_size(), 4u);
  EXPECT_EQ(pool.available_at(0.0), (std::vector<ResourceId>{0, 1}));
  EXPECT_EQ(pool.available_at(15.0), (std::vector<ResourceId>{0, 1, 2}));
  EXPECT_EQ(pool.available_at(100.0), (std::vector<ResourceId>{0, 1, 2, 3}));
  EXPECT_EQ(pool.count_available_at(20.0), 3u);
}

TEST(ResourcePool, ChangeTimesAreSortedAndDeduplicated) {
  ResourcePool pool = small_pool();
  pool.add(Resource{.name = "r5", .arrival = 30.0});  // duplicate time
  EXPECT_EQ(pool.change_times(0.0, 100.0),
            (std::vector<sim::Time>{15.0, 30.0}));
  EXPECT_EQ(pool.change_times(15.0, 100.0), (std::vector<sim::Time>{30.0}));
  EXPECT_DOUBLE_EQ(pool.next_change_after(0.0), 15.0);
  EXPECT_DOUBLE_EQ(pool.next_change_after(15.0), 30.0);
  EXPECT_EQ(pool.next_change_after(30.0), sim::kTimeInfinity);
}

TEST(ResourcePool, ArrivalsAtExactTime) {
  const ResourcePool pool = small_pool();
  EXPECT_EQ(pool.arrivals_at(15.0), (std::vector<ResourceId>{2}));
  EXPECT_TRUE(pool.arrivals_at(16.0).empty());
}

TEST(ResourcePool, DeparturesRestrictAvailability) {
  ResourcePool pool = small_pool();
  pool.set_departure(0, 50.0);
  EXPECT_EQ(pool.available_at(60.0), (std::vector<ResourceId>{1, 2, 3}));
  EXPECT_EQ(pool.change_times(40.0, 100.0), (std::vector<sim::Time>{50.0}));
  EXPECT_THROW(pool.set_departure(2, 10.0), std::invalid_argument);
}

TEST(ResourcePool, NamesAreGeneratedWhenEmpty) {
  ResourcePool pool;
  pool.add(Resource{});
  EXPECT_EQ(pool.resource(0).name, "r1");
}

TEST(MachineModel, StoresCostsAndComputesComm) {
  MachineModel model(2, 2, LinkModel{.latency = 1.0, .bandwidth = 2.0});
  model.set_compute_cost(0, 0, 10.0);
  model.set_compute_cost(0, 1, 20.0);
  model.set_compute_cost(1, 0, 5.0);
  model.set_compute_cost(1, 1, 5.0);
  EXPECT_DOUBLE_EQ(model.compute_cost(0, 1), 20.0);

  const dag::Edge edge{0, 1, 8.0};
  EXPECT_DOUBLE_EQ(model.comm_cost(edge, 0, 0), 0.0);  // same resource
  EXPECT_DOUBLE_EQ(model.comm_cost(edge, 0, 1), 1.0 + 8.0 / 2.0);
  EXPECT_DOUBLE_EQ(model.mean_comm_cost(edge), 5.0);

  const std::vector<ResourceId> both{0, 1};
  EXPECT_DOUBLE_EQ(model.mean_compute_cost(0, both), 15.0);
}

TEST(MachineModel, RejectsInvalidConstructionAndAccess) {
  EXPECT_THROW(MachineModel(0, 1), std::invalid_argument);
  EXPECT_THROW(MachineModel(1, 1, LinkModel{.latency = -1.0, .bandwidth = 1.0}),
               std::invalid_argument);
  EXPECT_THROW(MachineModel(1, 1, LinkModel{.latency = 0.0, .bandwidth = 0.0}),
               std::invalid_argument);
  MachineModel model(1, 1);
  EXPECT_THROW(model.set_compute_cost(0, 0, 0.0), std::invalid_argument);
  EXPECT_THROW(model.set_compute_cost(1, 0, 1.0), std::invalid_argument);
  model.set_compute_cost(0, 0, 2.0);
  EXPECT_THROW((void)model.compute_cost(0, 3), std::invalid_argument);
}

TEST(MachineModel, UnsetCostIsAnInvariantViolation) {
  MachineModel model(1, 2);
  model.set_compute_cost(0, 0, 2.0);
  EXPECT_THROW((void)model.compute_cost(0, 1), AssertionError);
}

TEST(Predictor, PerfectPassesThrough) {
  MachineModel model(1, 1);
  model.set_compute_cost(0, 0, 7.0);
  const PerfectPredictor perfect(model);
  EXPECT_DOUBLE_EQ(perfect.compute_cost(0, 0), 7.0);
  const dag::Edge edge{0, 0, 4.0};
  EXPECT_DOUBLE_EQ(perfect.mean_comm_cost(edge), model.mean_comm_cost(edge));
}

TEST(Predictor, NoisyIsDeterministicAndBounded) {
  MachineModel model(3, 3);
  for (dag::JobId i = 0; i < 3; ++i) {
    for (ResourceId j = 0; j < 3; ++j) {
      model.set_compute_cost(i, j, 100.0);
    }
  }
  const NoisyPredictor noisy(model, 0.3, 99);
  bool any_different = false;
  for (dag::JobId i = 0; i < 3; ++i) {
    for (ResourceId j = 0; j < 3; ++j) {
      const double estimate = noisy.compute_cost(i, j);
      EXPECT_DOUBLE_EQ(estimate, noisy.compute_cost(i, j));  // repeatable
      EXPECT_GE(estimate, 70.0);
      EXPECT_LE(estimate, 130.0);
      any_different |= estimate != 100.0;
    }
  }
  EXPECT_TRUE(any_different);
  EXPECT_THROW(NoisyPredictor(model, 1.5, 1), std::invalid_argument);
}

/// A provider whose comm cost depends on both ends and that keeps the
/// base-class comm_costs, so the row default is exercised.
class PairCosts final : public CostProvider {
 public:
  [[nodiscard]] double compute_cost(dag::JobId, ResourceId) const override {
    return 1.0;
  }
  [[nodiscard]] double comm_cost(const dag::Edge& e, ResourceId from,
                                 ResourceId to) const override {
    return from == to ? 0.0 : e.data + 10.0 * from + 0.25 * to;
  }
  [[nodiscard]] double mean_comm_cost(const dag::Edge& e) const override {
    return e.data;
  }
};

// comm_costs prices a row of targets; each element must be exactly the
// comm_cost of that pair, with `from` inside the row (0 there) and
// outside it, for the machine model, the base-class default and every
// predictor forwarding either.
TEST(CostProvider, CommCostsRowMatchesPointQueries) {
  dag::Dag graph;
  graph.add_job("j1", "opA");
  graph.add_job("j2", "opA");
  graph.add_edge(0, 1, 6.0);
  graph.finalize();
  MachineModel model(2, 6, LinkModel{.latency = 0.5, .bandwidth = 3.0});
  const PairCosts pairs;
  PerformanceHistoryRepository history;
  const PerfectPredictor perfect(model);
  const NoisyPredictor noisy(model, 0.3, 7);
  const HistoryBlendingPredictor blending(model, graph, history);
  const PerfectPredictor perfect_pairs(pairs);
  const NoisyPredictor noisy_pairs(pairs, 0.3, 7);
  const HistoryBlendingPredictor blending_pairs(pairs, graph, history);
  const std::vector<const CostProvider*> providers{
      &model,    &pairs,         &perfect,     &noisy,
      &blending, &perfect_pairs, &noisy_pairs, &blending_pairs};

  const dag::Edge& edge = graph.edges()[0];
  const std::vector<ResourceId> targets{4, 0, 2, 5, 1};
  for (const CostProvider* provider : providers) {
    for (const ResourceId from : {ResourceId{2}, ResourceId{3}}) {
      std::vector<double> row(targets.size(), -1.0);
      provider->comm_costs(edge, from, targets, row);
      for (std::size_t k = 0; k < targets.size(); ++k) {
        EXPECT_EQ(row[k], provider->comm_cost(edge, from, targets[k]))
            << "from " << from << " to " << targets[k];
      }
    }
    std::vector<double> short_row(targets.size() - 1);
    EXPECT_THROW(provider->comm_costs(edge, 0, targets, short_row),
                 std::invalid_argument);
  }
}

TEST(History, SmoothsObservations) {
  PerformanceHistoryRepository history(0.5);
  EXPECT_FALSE(history.estimate("op", 0).has_value());
  history.record("op", 0, 100.0);
  EXPECT_DOUBLE_EQ(*history.estimate("op", 0), 100.0);
  history.record("op", 0, 50.0);
  EXPECT_DOUBLE_EQ(*history.estimate("op", 0), 75.0);
  EXPECT_EQ(history.observations("op", 0), 2u);
  EXPECT_EQ(history.observations("op", 1), 0u);
  EXPECT_EQ(history.total_observations(), 2u);
  history.clear();
  EXPECT_EQ(history.total_observations(), 0u);
}

TEST(History, DistinguishesOperationAndResource) {
  PerformanceHistoryRepository history;
  history.record("a", 0, 10.0);
  history.record("a", 1, 20.0);
  history.record("b", 0, 30.0);
  EXPECT_DOUBLE_EQ(*history.estimate("a", 0), 10.0);
  EXPECT_DOUBLE_EQ(*history.estimate("a", 1), 20.0);
  EXPECT_DOUBLE_EQ(*history.estimate("b", 0), 30.0);
}

TEST(Predictor, HistoryBlendingPrefersObservations) {
  dag::Dag graph;
  graph.add_job("j1", "opA");
  graph.add_job("j2", "opA");
  graph.finalize();
  MachineModel prior(2, 1);
  prior.set_compute_cost(0, 0, 100.0);
  prior.set_compute_cost(1, 0, 100.0);
  PerformanceHistoryRepository history(1.0);
  const HistoryBlendingPredictor predictor(prior, graph, history);
  EXPECT_DOUBLE_EQ(predictor.compute_cost(0, 0), 100.0);  // prior
  history.record("opA", 0, 42.0);
  // Both jobs share the operation, so one observation fixes both.
  EXPECT_DOUBLE_EQ(predictor.compute_cost(0, 0), 42.0);
  EXPECT_DOUBLE_EQ(predictor.compute_cost(1, 0), 42.0);
}

TEST(Events, DescribeRendersEachKind) {
  GridEvent added{10.0, ResourceAddedEvent{3}};
  EXPECT_NE(describe(added).find("r4 added"), std::string::npos);
  GridEvent removed{11.0, ResourceRemovedEvent{0}};
  EXPECT_NE(describe(removed).find("r1 removed"), std::string::npos);
  GridEvent variance{12.0, PerformanceVarianceEvent{1, 2, 10.0, 14.0}};
  const std::string text = describe(variance);
  EXPECT_NE(text.find("n2"), std::string::npos);
  EXPECT_NE(text.find("r3"), std::string::npos);
}

}  // namespace
}  // namespace aheft::grid
