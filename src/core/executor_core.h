// The job lifecycle both Executors share (paper Fig. 1).
//
// ExecutionEngine follows a plan; DynamicExecution, the §4.2 Min-Min
// baseline, picks each placement when a job becomes ready. From a
// placement on, a job's life is the same under both, and it lives here:
// per-job state, each machine's own-workflow busy-until time, segment
// start (resilience occupancy stretched by the load factor at the
// realized start, fitted against the machine's departure window, then
// committed in the session ledger), completion bookkeeping,
// interrupted-segment accounting and terminal-failure teardown. Each
// front end holds one core by value.
//
// Resilience (session environments with an active ResilienceConfig): a
// restartable front end's segments interleave checkpoint writes, and a
// segment cut short keeps only the work its checkpoints saved (see
// resilience/checkpoint_model.h). A front end that cannot restart (the
// dynamic baseline: a just-in-time job either finishes or never ran)
// writes no checkpoints, and fails the workflow wherever a restartable
// one would requeue. The inactive default config leaves every simulated
// event bit-identical to the pre-resilience executors.
#ifndef AHEFT_CORE_EXECUTOR_CORE_H_
#define AHEFT_CORE_EXECUTOR_CORE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/session.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/load_profile.h"
#include "grid/resource_pool.h"
#include "resilience/checkpoint_model.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace aheft::core {

class ExecutorCore {
 public:
  enum class Phase { kPending, kRunning, kFinished };
  struct JobState {
    Phase phase = Phase::kPending;
    grid::ResourceId resource = grid::kInvalidResource;
    sim::Time ast = sim::kTimeZero;
    sim::Time aft = sim::kTimeZero;  ///< completion (projected while running)
    sim::EventId completion = 0;
    // The running segment's composition, fixed at start (nominal units;
    // wall clock = nominal * load_factor). Interruption accounting
    // decomposes the elapsed occupancy against these.
    double load_factor = 1.0;
    double segment_work = 0.0;    ///< useful work this segment attempts
    double segment_debt = 0.0;    ///< restart read cost paid up front
    double segment_writes = 0.0;  ///< checkpoint writes if run to term
  };

  /// How start_segment resolved.
  enum class Start {
    kCompletes,   ///< committed; its completion is scheduled
    kRunsToWall,  ///< committed up to the departure, where it is revoked
    kFailed,      ///< the workflow failed terminally (already torn down)
    kGone,        ///< the machine already departed: nothing committed
  };

  /// `actual` is the ground-truth cost model (run times and transfer
  /// durations the simulated grid really exhibits). `trace` may be null.
  ExecutorCore(sim::Simulator& simulator, const dag::Dag& dag,
               const grid::CostProvider& actual,
               const grid::ResourcePool& pool, sim::TraceRecorder* trace);

  /// Session form: realizes the session's load profile, commits through
  /// its ledger on behalf of `owner` (registered with `priority`), and
  /// applies its resilience config; `restartable` says whether the front
  /// end can requeue a revoked job.
  void join(SimulationSession& session, SessionParticipant* owner,
            double priority, bool restartable);

  /// Fired once, after the core tore down a terminal failure.
  void set_failure_hook(std::function<void()> hook) {
    failure_hook_ = std::move(hook);
  }

  [[nodiscard]] sim::Simulator& simulator() const { return *simulator_; }
  [[nodiscard]] const dag::Dag& dag() const { return *dag_; }
  [[nodiscard]] const grid::CostProvider& actual() const { return *actual_; }
  [[nodiscard]] const grid::ResourcePool& pool() const { return *pool_; }
  [[nodiscard]] sim::TraceRecorder* trace() const { return trace_; }
  /// Null for a standalone core.
  [[nodiscard]] SimulationSession* session() const { return session_; }
  [[nodiscard]] const JobState& job(dag::JobId job) const {
    return jobs_[job];
  }
  /// When this workflow's own committed work on `resource` ends.
  [[nodiscard]] sim::Time busy_until(grid::ResourceId resource) const {
    const auto it = busy_until_.find(resource);
    return it == busy_until_.end() ? sim::kTimeZero : it->second;
  }
  /// Whether segments checkpoint and revoked jobs may requeue.
  [[nodiscard]] bool restartable() const { return checkpoint_ != nullptr; }

  [[nodiscard]] bool finished() const {
    return finished_count_ == dag_->job_count();
  }
  [[nodiscard]] sim::Time makespan() const { return makespan_; }
  /// Whether the workflow failed terminally (departure under kFail, the
  /// per-job revocation cap, or no machine left to run on).
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& failure_reason() const {
    return failure_reason_;
  }
  /// Resilience accounting (nominal machine-seconds; all zero when the
  /// resilience config is inactive and no running job was cut short).
  /// "Useful" work counted toward a completion or survived in a
  /// checkpoint image; "lost" work is redone.
  [[nodiscard]] std::size_t revoked_jobs() const { return revoked_jobs_; }
  [[nodiscard]] double lost_work() const { return lost_work_; }
  [[nodiscard]] double checkpoint_overhead() const {
    return checkpoint_overhead_;
  }
  [[nodiscard]] double useful_work() const { return useful_work_; }

  /// Copies the outcome — makespan, contention waits, resilience
  /// accounting and failure — into a result struct with those fields
  /// (AdaptiveResult, StrategyOutcome).
  template <typename Result>
  void report(Result& result) const {
    result.makespan = makespan_;
    if (session_ != nullptr) {
      const ContentionStats stats = session_->contention_stats(owner_);
      result.contention_wait = stats.total_wait;
      result.max_contention_wait = stats.max_wait;
    }
    result.revoked_jobs = revoked_jobs_;
    result.lost_work = lost_work_;
    result.checkpoint_overhead = checkpoint_overhead_;
    result.useful_work = useful_work_;
    result.failed = failed_;
    result.failure_reason = failure_reason_;
  }

  /// Machine time `job`'s remaining work occupies on `resource`, before
  /// load: restart read debt plus the checkpoint-interleaved remainder.
  [[nodiscard]] double occupancy(dag::JobId job,
                                 grid::ResourceId resource) const {
    const double cost = actual_->compute_cost(job, resource);
    if (checkpoint_ == nullptr) {
      return cost;
    }
    return restart_debt_[job] +
           resilience::segment_occupancy(*checkpoint_,
                                         cost * (1.0 - done_frac_[job]));
  }

  /// Starts `job`'s next segment on `resource` at `start` (>= now): fits
  /// it against the departure window under the departure action, then
  /// schedules its end — `on_end(job, at_wall)` — and commits the window.
  template <typename OnEnd>
  Start start_segment(dag::JobId job, grid::ResourceId resource,
                      sim::Time start, OnEnd on_end) {
    const Start placed = place_segment(job, resource, start);
    if (placed == Start::kCompletes || placed == Start::kRunsToWall) {
      JobState& state = jobs_[job];
      const bool at_wall = placed == Start::kRunsToWall;
      state.completion = simulator_->schedule_at(
          state.aft, [on_end, job, at_wall] { on_end(job, at_wall); });
      commit_segment(job);
    }
    return placed;
  }

  /// Completion bookkeeping of `job`'s running segment.
  void finish_segment(dag::JobId job);
  /// Cuts `job`'s running segment short now (a replan or a revocation):
  /// cancels its completion, truncates its ledger window, and accounts
  /// the elapsed occupancy; the job returns to pending. Returns false,
  /// changing nothing, when the completion can no longer be cancelled.
  /// A `revoked` cut counts as a revocation and carries the job's wait
  /// baseline into its re-registration.
  bool cancel_segment(dag::JobId job, bool revoked);
  /// `job`'s segment ran into its machine's departure (kRunsToWall): the
  /// revocation is accounted and the job returns to pending.
  void hit_wall(dag::JobId job);
  /// Rebuilds the busy-until times from the running segments.
  void recompute_busy();
  /// Terminal failure: cuts every running segment short, drops the
  /// pending ledger entries, and fires the failure hook. Idempotent.
  void fail(const std::string& reason);

 private:
  /// Segment composition, load stretch and departure fit; on success the
  /// job is running (its completion event not yet scheduled).
  Start place_segment(dag::JobId job, grid::ResourceId resource,
                      sim::Time start);
  /// Busy-until and ledger commit of a freshly placed segment.
  void commit_segment(dag::JobId job);
  /// Accounts `job`'s segment as interrupted at `at` and resets the job.
  void end_segment(dag::JobId job, sim::Time at, bool revoked);
  /// Splits the elapsed occupancy of `job`'s running segment at `at` into
  /// retained / overhead / lost work, updating the accounting counters,
  /// the job's completed fraction, and its restart debt.
  void account_interrupted_segment(dag::JobId job, sim::Time at);

  sim::Simulator* simulator_;
  const dag::Dag* dag_;
  const grid::CostProvider* actual_;
  const grid::ResourcePool* pool_;
  sim::TraceRecorder* trace_;
  const grid::LoadProfile* load_ = nullptr;
  SimulationSession* session_ = nullptr;  ///< ledger; null standalone
  SessionParticipant* owner_ = nullptr;
  /// The session's checkpoint model when resilience is active and the
  /// front end restartable; null keeps segments checkpoint-free.
  const resilience::CheckpointModel* checkpoint_ = nullptr;
  resilience::DepartureAction departure_action_ =
      resilience::DepartureAction::kError;

  std::vector<JobState> jobs_;
  /// Fraction of each job's total work persisted by checkpoints. Kept as
  /// a fraction (not absolute units) because compute costs differ per
  /// machine: a requeue realizes the remaining fraction at the new
  /// machine's own cost.
  std::vector<double> done_frac_;
  /// Checkpoint read cost owed when each job next starts (a prior image
  /// exists); cleared once paid.
  std::vector<double> restart_debt_;
  std::map<grid::ResourceId, sim::Time> busy_until_;
  std::size_t finished_count_ = 0;
  std::size_t revoked_jobs_ = 0;
  double lost_work_ = 0.0;
  double checkpoint_overhead_ = 0.0;
  double useful_work_ = 0.0;
  bool failed_ = false;
  std::string failure_reason_;
  sim::Time makespan_ = sim::kTimeZero;
  std::function<void()> failure_hook_;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_EXECUTOR_CORE_H_
