// The Planner (paper Fig. 1) and the generic adaptive rescheduling loop
// (paper Fig. 2): schedule, listen for events, evaluate, adopt when the
// predicted makespan improves.
//
// The planner runs in one of two forms:
//  - run(): the classic one-call co-simulation — builds a private
//    SimulationSession from the constructor arguments and drives it to
//    completion.
//  - launch(): event-driven — plans at a release time inside a shared
//    session (whose environment supersedes the constructor's trace /
//    history / load arguments) and fires a completion callback on the
//    session clock, so many workflows can share one simulator and one
//    contended pool.
#ifndef AHEFT_CORE_PLANNER_H_
#define AHEFT_CORE_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/execution_engine.h"
#include "core/policies.h"
#include "core/schedule.h"
#include "core/session.h"
#include "grid/cost_provider.h"
#include "grid/history.h"
#include "grid/load_profile.h"
#include "grid/resource_pool.h"
#include "sim/trace.h"

namespace aheft::core {

/// One evaluated event (a row of the planner's decision log).
struct AdoptionRecord {
  sim::Time time = sim::kTimeZero;
  std::string event;                        ///< what triggered evaluation
  sim::Time current_makespan = sim::kTimeZero;   ///< S0's predicted makespan
  sim::Time candidate_makespan = sim::kTimeZero; ///< S1's predicted makespan
  bool adopted = false;
  bool forced = false;  ///< adoption was mandatory (resource loss)
  /// Contention-aware passes only: the session clock at which the
  /// availability view feeding this evaluation was snapshotted. The
  /// planner's freshness contract is view_snapshot == time — every
  /// evaluation re-snapshots, never reuses an earlier picture. Negative
  /// when the pass ran contention-blind (no view was taken).
  sim::Time view_snapshot = -1.0;
};

struct PlannerConfig {
  SchedulerConfig scheduler;
  /// React to resource-pool change events (the paper's primary trigger).
  bool react_to_pool_changes = true;
  /// React to performance-variance events from the Performance Monitor
  /// (extension; pairs with a noisy/history predictor).
  bool react_to_variance = false;
  /// Relative |actual - estimate| / estimate beyond which the monitor
  /// notifies the planner.
  double variance_threshold = 0.2;
  /// Time-varying effective cost scaling the executor realizes (trace /
  /// volatility scenarios); the planner keeps estimating with nominal
  /// costs. Must outlive the run. Null means nominal. Only consulted by
  /// run(); in launch() mode the session environment's profile wins.
  const grid::LoadProfile* load = nullptr;
  /// Contention-aware planning: every (re)planning pass snapshots the
  /// session ledger's foreign busy picture (competitors' committed
  /// windows + held claims) into an AvailabilityView and fits EST
  /// searches into its free gaps, so plans price the machines' real
  /// reservation timelines instead of an empty grid. A fresh snapshot is
  /// taken at release time and at every re-evaluation (recorded per
  /// decision in AdoptionRecord::view_snapshot). Each evaluation also
  /// re-prices the incumbent under the snapshot instead of comparing
  /// against its last adopted prediction, so even a solo session, whose
  /// view is empty, adopts differently once a load profile has made
  /// execution drift from that prediction. Off by default: the
  /// contention-blind pass stays bit-identical.
  bool contention_aware = false;
};

/// Result of a full planner+executor co-simulation.
struct AdaptiveResult {
  sim::Time makespan = sim::kTimeZero;       ///< realized (executor clock)
  sim::Time initial_makespan = sim::kTimeZero;  ///< the release-time plan
  std::size_t evaluations = 0;               ///< events evaluated
  std::size_t adoptions = 0;                 ///< reschedules submitted
  std::size_t restarts = 0;                  ///< running jobs restarted
  /// Cross-workflow machine wait imposed by the session's contention
  /// policy (zero for uncontended runs).
  double contention_wait = 0.0;
  double max_contention_wait = 0.0;
  /// Resilience accounting (see ExecutorCore): revocations absorbed,
  /// nominal machine-seconds redone / spent on checkpoints / retained.
  std::size_t revoked_jobs = 0;
  double lost_work = 0.0;
  double checkpoint_overhead = 0.0;
  double useful_work = 0.0;
  /// The workflow failed terminally (departure under DepartureAction::
  /// kFail, the revocation cap, or no machine left to requeue on);
  /// `makespan` is then the failure time and the schedule the last plan.
  bool failed = false;
  std::string failure_reason;
  Schedule final_schedule;
  std::vector<AdoptionRecord> decisions;
};

/// Couples one Scheduler instance with the Executor for a single DAG and
/// runs the event loop of Fig. 2 to completion.
class AdaptivePlanner {
 public:
  /// `estimates` is the Planner's view (the Predictor output P);
  /// `actual` is what the simulated grid really does. They coincide under
  /// the paper's accuracy assumption.
  AdaptivePlanner(const dag::Dag& dag, const grid::CostProvider& estimates,
                  const grid::CostProvider& actual,
                  const grid::ResourcePool& pool, PlannerConfig config = {},
                  sim::TraceRecorder* trace = nullptr,
                  grid::PerformanceHistoryRepository* history = nullptr);

  /// Runs the co-simulation to completion and returns the outcome.
  [[nodiscard]] AdaptiveResult run();

  using Completion = std::function<void(const AdaptiveResult&)>;

  /// Event-driven form: schedules the initial plan at `release` (>= the
  /// session clock) inside `session` and subscribes to its event feeds;
  /// `done` fires on the session clock when the workflow completes. The
  /// session environment supplies the pool (must be the constructor's),
  /// trace recorder, load profile, and history repository. `priority` is
  /// the workflow's weight under the session's contention policy. The
  /// planner must outlive the session's run.
  void launch(SimulationSession& session, sim::Time release,
              Completion done, double priority = 1.0);

 private:
  void start();  ///< release-time event: initial plan + subscriptions
  void evaluate(const std::string& reason, bool forced);
  void finish();

  const dag::Dag& dag_;
  const grid::CostProvider& estimates_;
  const grid::CostProvider& actual_;
  const grid::ResourcePool& pool_;
  PlannerConfig config_;
  sim::TraceRecorder* trace_;
  grid::PerformanceHistoryRepository* history_;

  SimulationSession* session_ = nullptr;
  std::unique_ptr<ExecutionEngine> engine_;
  sim::Time release_ = sim::kTimeZero;
  double priority_ = 1.0;
  Completion done_;
  bool completed_ = false;

  sim::Time predicted_makespan_ = sim::kTimeZero;
  AdaptiveResult result_;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_PLANNER_H_
