// Unified strategy drivers for the three approaches the paper compares:
// static HEFT, adaptive AHEFT, and dynamic just-in-time scheduling.
//
// Every strategy runs inside a SimulationSession and receives the exact
// same environment — resource pool event stream, load profile, trace
// recorder, performance-history repository — by construction, which is
// what makes their makespans comparable. A driver can be launched many
// times into one session (concurrent workflow streams) or once into a
// private session (run_strategy, the classic single-DAG comparison).
#ifndef AHEFT_CORE_STRATEGY_H_
#define AHEFT_CORE_STRATEGY_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic_scheduler.h"
#include "core/planner.h"
#include "core/session.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"

namespace aheft::core {

enum class StrategyKind { kStaticHeft, kAdaptiveAheft, kDynamic };

[[nodiscard]] std::string to_string(StrategyKind kind);

/// Inverse of to_string(StrategyKind) ("heft", "aheft", "dynamic");
/// empty optional when the name matches no strategy. The benches' and
/// examples' --strategy axes parse through this, so the CLI names and
/// the reported names can never drift apart.
[[nodiscard]] std::optional<StrategyKind> strategy_from_string(
    std::string_view text);

/// Every strategy name strategy_from_string accepts, in enum order. The
/// benches' --help and unknown---strategy messages list these, so the
/// advertised names always match what actually parses.
[[nodiscard]] std::vector<std::string> strategy_names();

/// Makespan and bookkeeping of one simulated strategy run. `makespan` is
/// the absolute completion time on the session clock (for a workflow
/// released at t the duration is makespan - t).
struct StrategyOutcome {
  sim::Time makespan = sim::kTimeZero;
  std::size_t evaluations = 0;  ///< events evaluated (dynamic: batches)
  std::size_t adoptions = 0;
  std::size_t restarts = 0;
  /// Cross-workflow machine wait imposed by the session's contention
  /// policy: total across the workflow's jobs, and the worst single
  /// acquisition. Zero for uncontended runs.
  double contention_wait = 0.0;
  double max_contention_wait = 0.0;
  /// Resilience accounting from the shared ExecutorCore, for every
  /// strategy: jobs revoked mid-run, nominal machine-seconds redone /
  /// spent on checkpoint traffic / retained as useful progress. The
  /// dynamic baseline never checkpoints or requeues, so its overhead and
  /// revocations stay zero and a terminal failure's cut work is lost.
  std::size_t revoked_jobs = 0;
  double lost_work = 0.0;
  double checkpoint_overhead = 0.0;
  double useful_work = 0.0;
  /// The workflow failed terminally instead of completing; `makespan` is
  /// then the failure time. Only possible under an active resilience
  /// config (DepartureAction::kFail, the revocation cap, or no machine
  /// left to requeue on).
  bool failed = false;
  std::string failure_reason;
};

/// Per-strategy knobs. The planner config drives HEFT (reaction flags
/// forced off) and AHEFT; the heuristic drives the dynamic baseline.
/// PlannerConfig::load is ignored here — the session environment is the
/// single source of the load profile. PlannerConfig::contention_aware
/// applies to every strategy: the planners fit their (re)plans into the
/// session ledger's availability snapshot, and the dynamic baseline's
/// release-time greedy-EFT estimate prices the same snapshot.
struct StrategyConfig {
  PlannerConfig planner;
  DynamicHeuristic heuristic = DynamicHeuristic::kMinMin;
};

/// Per-launch knobs of one workflow execution inside a session.
struct LaunchOptions {
  /// Simulation time the workflow is released (>= the session clock).
  sim::Time release = sim::kTimeZero;
  /// Weight under the session's contention policy: strict rank for
  /// "priority", share weight for "fair-share", ignored by "fcfs".
  double priority = 1.0;
};

/// One scheduling strategy, launchable into any session. Drivers own the
/// per-launch state (planner or dynamic execution) until the session's
/// run completes, so a driver must outlive every session it launched
/// into; the DAG and cost providers must outlive the run as well.
class StrategyDriver {
 public:
  virtual ~StrategyDriver() = default;

  [[nodiscard]] virtual StrategyKind kind() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  using Completion = std::function<void(const StrategyOutcome&)>;

  /// Begins executing `dag` inside `session` per `options`; `done` fires
  /// on the session clock when the workflow completes. May be called any
  /// number of times, including for concurrently executing workflows in
  /// one session.
  virtual void launch(SimulationSession& session, const dag::Dag& dag,
                      const grid::CostProvider& estimates,
                      const grid::CostProvider& actual,
                      const LaunchOptions& options, Completion done) = 0;

  /// Convenience form for the common default-priority launch.
  void launch(SimulationSession& session, const dag::Dag& dag,
              const grid::CostProvider& estimates,
              const grid::CostProvider& actual, sim::Time release,
              Completion done) {
    launch(session, dag, estimates, actual, LaunchOptions{release, 1.0},
           std::move(done));
  }
};

/// Builds the driver for `kind` with the given knobs.
[[nodiscard]] std::unique_ptr<StrategyDriver> make_strategy_driver(
    StrategyKind kind, const StrategyConfig& config = {});

/// Convenience: runs one DAG through a private session over `env` to
/// completion — the single code path for the classic one-DAG
/// comparison (the per-strategy shims that used to wrap it are gone).
[[nodiscard]] StrategyOutcome run_strategy(
    StrategyKind kind, const dag::Dag& dag,
    const grid::CostProvider& estimates, const grid::CostProvider& actual,
    const SessionEnvironment& env, const StrategyConfig& config = {});

}  // namespace aheft::core

#endif  // AHEFT_CORE_STRATEGY_H_
