// The traced run's composed path: the session environment and strategy
// knobs exp::run_case / exp::run_stream_strategy derive from a CaseSpec,
// rebuilt here from public fields so the benchmark can drive each layer
// (environment build, ranking, HEFT, engine, rescheduler) on its own and
// time it. The runs check that this path reproduces the library's own
// entry points bit for bit (exp::run_case on sweep_random,
// exp::run_stream_strategy on stream_contended's first stream), so a
// drift between the two is caught.
#ifndef PERFBENCH_COMPOSED_H_
#define PERFBENCH_COMPOSED_H_

#include <cstdint>

#include "core/session.h"
#include "core/strategy.h"
#include "exp/case.h"
#include "grid/cost_provider.h"

namespace perfbench {

inline aheft::core::SessionEnvironment composed_session(
    const aheft::exp::CaseSpec& spec, const aheft::exp::CaseEnvironment& env) {
  aheft::core::SessionEnvironment session;
  session.pool = &env.scenario.pool;
  session.load = env.scenario.load.empty() ? nullptr : &env.scenario.load;
  session.contention_policy = spec.contention_policy;
  session.backfill = spec.backfill;
  session.resilience = spec.resilience;
  session.shards = spec.shards;
  session.shard_assignment = aheft::core::ShardAssignment::kHashed;
  return session;
}

inline aheft::core::StrategyConfig composed_strategy(
    const aheft::exp::CaseSpec& spec) {
  aheft::core::StrategyConfig config;
  config.planner.scheduler = spec.scheduler;
  config.planner.react_to_variance = spec.react_to_variance;
  config.planner.contention_aware = spec.contention_aware;
  return config;
}

/// Pass-through CostProvider counting the point queries a scheduler makes
/// (compute_cost and comm_cost). The means forward to the wrapped
/// provider, so every value — and therefore every plan — is bit-identical
/// to planning on the wrapped provider directly.
class CountingCosts final : public aheft::grid::CostProvider {
 public:
  explicit CountingCosts(const aheft::grid::CostProvider& inner)
      : inner_(inner) {}

  [[nodiscard]] double compute_cost(
      aheft::dag::JobId job, aheft::grid::ResourceId resource) const override {
    ++queries_;
    return inner_.compute_cost(job, resource);
  }
  [[nodiscard]] double comm_cost(const aheft::dag::Edge& e,
                                 aheft::grid::ResourceId from,
                                 aheft::grid::ResourceId to) const override {
    ++queries_;
    return inner_.comm_cost(e, from, to);
  }
  [[nodiscard]] double mean_comm_cost(
      const aheft::dag::Edge& e) const override {
    return inner_.mean_comm_cost(e);
  }
  [[nodiscard]] double mean_compute_cost(
      aheft::dag::JobId job,
      std::span<const aheft::grid::ResourceId> resources) const override {
    return inner_.mean_compute_cost(job, resources);
  }

  [[nodiscard]] std::uint64_t queries() const { return queries_; }

 private:
  const aheft::grid::CostProvider& inner_;
  mutable std::uint64_t queries_ = 0;
};

/// One strategy run inside a session the benchmark builds (what
/// core::run_strategy does), exposing the session's event count.
struct ArmRun {
  aheft::core::StrategyOutcome outcome;
  std::uint64_t events = 0;
  bool completed = false;
};

inline ArmRun run_arm(aheft::core::StrategyKind kind,
                      const aheft::dag::Dag& dag,
                      const aheft::grid::CostProvider& estimates,
                      const aheft::grid::CostProvider& actual,
                      const aheft::core::SessionEnvironment& env,
                      const aheft::core::StrategyConfig& config) {
  const auto driver = aheft::core::make_strategy_driver(kind, config);
  aheft::core::SimulationSession session(env);
  ArmRun run;
  driver->launch(session, dag, estimates, actual, aheft::sim::kTimeZero,
                 [&run](const aheft::core::StrategyOutcome& outcome) {
                   run.outcome = outcome;
                   run.completed = true;
                 });
  session.run();
  run.events = session.executed_events();
  return run;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMPOSED_H_
