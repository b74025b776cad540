// The Executor (paper Fig. 1): enacts a schedule on the simulated grid.
//
// Semantics (paper §4.1): a job starts once (a) every input file has
// arrived on its resource, (b) the previously scheduled job on that
// resource finished, and (c) the resource has joined the grid. When a job
// finishes, its outputs are pushed immediately to the resources its
// successors are scheduled on (static file-transfer model). File transfers
// consume time but no compute.
//
// The engine is the plan-following front end of the shared ExecutorCore
// (core/executor_core.h), which owns the job lifecycle from start to
// completion, revocation or failure. What stays here is plan following:
// per-resource queues in plan order, the static transfer model, submit
// and replan, and requeue.
//
// submit() accepts both the initial schedule and mid-run replacements
// (the Planner's adopted reschedules). On replacement, running jobs that
// were replanned are cancelled and restarted, finished producers' outputs
// are retransmitted from the current time to any consumer that moved
// (mirroring FEA case 2), and per-resource queues are rebuilt.
//
// Resilience (session environments with an active ResilienceConfig): a
// job that loses its machine mid-run — a finite departure its
// load-stretched duration cannot beat, or a fair-share preemption —
// requeues its remainder on another machine through the normal
// acquire/commit lifecycle.
#ifndef AHEFT_CORE_EXECUTION_ENGINE_H_
#define AHEFT_CORE_EXECUTION_ENGINE_H_

#include <functional>
#include <map>
#include <vector>

#include "core/executor_core.h"
#include "core/schedule.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/resource_pool.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace aheft::core {

class ExecutionEngine : public SessionParticipant {
 public:
  /// `actual` is the ground-truth cost model (run times and transfer
  /// durations the simulated grid really exhibits). `trace` may be null.
  ExecutionEngine(sim::Simulator& simulator, const dag::Dag& dag,
                  const grid::CostProvider& actual,
                  const grid::ResourcePool& pool,
                  sim::TraceRecorder* trace = nullptr);

  /// Session form: simulator, pool, trace, load profile, and resilience
  /// config all come from the session's environment, and the engine
  /// registers itself for cross-workflow resource contention with
  /// `priority` as its weight under the session's contention policy. The
  /// session must outlive the engine's execution.
  ExecutionEngine(SimulationSession& session, const dag::Dag& dag,
                  const grid::CostProvider& actual, double priority = 1.0);

  /// Installs `schedule` (complete over all jobs) at the current simulation
  /// time. The first call starts execution; later calls replace the
  /// remaining work.
  void submit(const Schedule& schedule);

  [[nodiscard]] bool finished() const { return core_.finished(); }
  [[nodiscard]] sim::Time makespan() const { return core_.makespan(); }
  /// Number of running jobs cancelled and restarted by reschedules.
  [[nodiscard]] std::size_t restarted_jobs() const { return restarts_; }
  /// The job lifecycle: per-job state, resilience accounting, failure.
  [[nodiscard]] const ExecutorCore& core() const { return core_; }

  /// Callback fired exactly once when the workflow fails terminally. A
  /// failed engine never reaches finished(); its running work is
  /// truncated and its queues stop pumping.
  void set_failure_hook(std::function<void()> hook) {
    core_.set_failure_hook(std::move(hook));
  }

  [[nodiscard]] const Schedule& current_schedule() const;

  /// Captures the execution state at the current simulation time, in the
  /// form the Planner's rescheduler consumes.
  [[nodiscard]] ExecutionSnapshot snapshot() const;

  /// Callback fired after each job completion (the Performance Monitor's
  /// feed, Fig. 1): (job, resource, actual start, actual finish).
  using CompletionHook =
      std::function<void(dag::JobId, grid::ResourceId, sim::Time, sim::Time)>;
  void set_completion_hook(CompletionHook hook) { hook_ = std::move(hook); }

  /// File-movement model; must match the planner's (see TransferPolicy).
  void set_transfer_policy(TransferPolicy policy) {
    transfer_policy_ = policy;
  }

  // SessionParticipant: a competing reservation on `resource` committed,
  // withdrew, or was truncated, so this engine's deferred grant may have
  // moved earlier. This is the per-resource ledger wakeup: only engines
  // actually queued on the resource receive it.
  void contention_changed(grid::ResourceId resource) override;
  // SessionParticipant: the first submitted schedule's makespan — the
  // workflow's uncontended scale for fair-share stretch normalization
  // (later reschedules fold contention delays in, which must not dilute
  // the workflow's own stretch).
  [[nodiscard]] sim::Time planned_finish() const override {
    return initial_plan_makespan_;
  }
  // SessionParticipant: fair-share preemption chose this engine's running
  // job `tag` on `resource` as its victim. The job keeps its checkpointed
  // floor progress, its ledger window is truncated (wait baseline
  // carried), and its remainder requeues elsewhere. Declines (returns
  // false) when the job is not actually running there anymore — e.g. it
  // completes in this very instant.
  bool revoke_committed(grid::ResourceId resource, std::uint64_t tag) override;

 private:
  using Phase = ExecutorCore::Phase;

  void rebuild_queues();
  void pump(grid::ResourceId resource);
  void record_arrival(std::size_t edge_index, grid::ResourceId resource,
                      sim::Time when);
  /// Launches the transfer of edge `e`'s payload toward `target` at `when`
  /// if it is not already there or in flight; returns the arrival time.
  sim::Time ensure_transfer(std::size_t edge_index, grid::ResourceId target,
                            sim::Time when);
  /// Starts `job` on `resource` now, or — under an active resilience
  /// config — converts a doomed start into a fail/run-to-the-wall/requeue.
  /// Returns false when the job did not start (the workflow failed or
  /// the job moved): the caller must abandon its queue scan.
  bool start_job(dag::JobId job, grid::ResourceId resource);
  void complete_job(dag::JobId job);
  /// Routes a revoked job's remainder back through the lifecycle: checks
  /// the per-job revocation cap, picks a target machine, rewrites the
  /// schedule slot, retransmits inputs, and pumps the target's queue.
  void requeue_job(dag::JobId job, sim::Time now);
  /// Machine whose requeued remainder finishes earliest under the current
  /// contention picture; machines it cannot finish on before departure
  /// only qualify as a latest-departure fallback (salvaging further
  /// checkpoints there beats failing). kInvalidResource when no machine
  /// is left at all.
  [[nodiscard]] grid::ResourceId choose_requeue_target(dag::JobId job,
                                                       sim::Time now) const;
  /// Rewrites `job`'s schedule slot onto `target` after that timeline's
  /// planned work (the other slots are untouched).
  void reassign(dag::JobId job, grid::ResourceId target, sim::Time now);

  ExecutorCore core_;
  Schedule schedule_;
  bool has_schedule_ = false;
  EdgeArrivals edge_arrivals_;
  std::map<grid::ResourceId, std::vector<dag::JobId>> queues_;
  std::map<grid::ResourceId, std::size_t> queue_pos_;
  std::map<grid::ResourceId, sim::Time> pending_pump_;
  std::size_t restarts_ = 0;
  sim::Time initial_plan_makespan_ = sim::kTimeZero;
  CompletionHook hook_;
  TransferPolicy transfer_policy_ = TransferPolicy::kRetransmitFromClock;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_EXECUTION_ENGINE_H_
