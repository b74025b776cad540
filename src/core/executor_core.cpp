#include "core/executor_core.h"

#include <algorithm>
#include <stdexcept>

#include "support/assert.h"

namespace aheft::core {

ExecutorCore::ExecutorCore(sim::Simulator& simulator, const dag::Dag& dag,
                           const grid::CostProvider& actual,
                           const grid::ResourcePool& pool,
                           sim::TraceRecorder* trace)
    : simulator_(&simulator),
      dag_(&dag),
      actual_(&actual),
      pool_(&pool),
      trace_(trace),
      jobs_(dag.job_count()),
      done_frac_(dag.job_count(), 0.0),
      restart_debt_(dag.job_count(), 0.0) {
  AHEFT_REQUIRE(dag.finalized(), "DAG must be finalized");
}

void ExecutorCore::join(SimulationSession& session,
                        SessionParticipant* owner, double priority,
                        bool restartable) {
  session_ = &session;
  owner_ = owner;
  load_ = session.load();
  const resilience::ResilienceConfig& config = session.resilience();
  if (config.active()) {
    departure_action_ = restartable ? config.departure_action
                                    : resilience::DepartureAction::kFail;
    if (restartable) {
      checkpoint_ = &config.checkpoint;
    }
  }
  session.add_participant(owner, priority);
}

ExecutorCore::Start ExecutorCore::place_segment(dag::JobId job,
                                                grid::ResourceId resource,
                                                sim::Time start) {
  const grid::Resource& machine = pool_->resource(resource);
  double duration = actual_->compute_cost(job, resource);
  double work = duration;
  double debt = 0.0;
  double writes = 0.0;
  if (checkpoint_ != nullptr) {
    // The segment attempts the job's remaining fraction, pays any restart
    // read debt up front, and interleaves checkpoint writes.
    work = duration * (1.0 - done_frac_[job]);
    debt = restart_debt_[job];
    const double occupancy = resilience::segment_occupancy(*checkpoint_, work);
    writes = occupancy - work;
    duration = debt + occupancy;
  }
  double factor = 1.0;
  if (load_ != nullptr) {
    factor = load_->factor(resource, start);
    AHEFT_ASSERT(factor > 0.0,
                 "load factor must be positive on " + machine.name);
    duration *= factor;
  }
  const bool fits = sim::time_le(start + duration, machine.departure);

  if (!fits) {
    switch (departure_action_) {
      case resilience::DepartureAction::kError:
        if (load_ != nullptr) {
          // Plans and just-in-time decisions fit jobs against nominal
          // costs, so a load spike can legitimately stretch one past a
          // finite departure window. Without restart semantics switched
          // on that is a scenario the executor cannot honor, not an
          // internal invariant violation — report it as such.
          throw std::runtime_error(
              "load-stretched job " + dag_->job(job).name + " (" +
              std::to_string(duration) + " units at factor " +
              std::to_string(factor) + ") would outlive resource " +
              machine.name +
              ": scenarios combining load segments with finite departures "
              "need restart semantics (unsupported; see ROADMAP)");
        }
        AHEFT_ASSERT(fits, "job " + dag_->job(job).name +
                               " would outlive resource " + machine.name);
        break;
      case resilience::DepartureAction::kFail:
        fail("job " + dag_->job(job).name + " would outlive resource " +
             machine.name);
        return Start::kFailed;
      case resilience::DepartureAction::kRequeue:
        // The departure is a failure the job does not foresee; a machine
        // already gone can run nothing at all.
        if (sim::time_le(machine.departure, start)) {
          return Start::kGone;
        }
        break;
    }
  }

  JobState& state = jobs_[job];
  state.phase = Phase::kRunning;
  state.resource = resource;
  state.ast = start;
  state.load_factor = factor;
  state.segment_work = work;
  state.segment_debt = debt;
  state.segment_writes = writes;
  if (checkpoint_ != nullptr) {
    restart_debt_[job] = 0.0;  // consumed into this segment
  }
  if (fits) {
    state.aft = start + duration;
    return Start::kCompletes;
  }
  // Run to the wall: the job is interrupted by the departure and keeps
  // only its checkpointed floor progress.
  state.aft = machine.departure;
  return Start::kRunsToWall;
}

void ExecutorCore::commit_segment(dag::JobId job) {
  const JobState& state = jobs_[job];
  auto& busy = busy_until_[state.resource];
  busy = std::max(busy, state.aft);
  if (session_ != nullptr) {
    session_->commit(owner_, state.resource, /*tag=*/job, state.ast,
                     state.aft);
  }
}

void ExecutorCore::finish_segment(dag::JobId job) {
  JobState& state = jobs_[job];
  AHEFT_ASSERT(state.phase == Phase::kRunning, "completion of non-running job");
  state.phase = Phase::kFinished;
  ++finished_count_;
  makespan_ = std::max(makespan_, state.aft);
  useful_work_ += state.segment_work;
  checkpoint_overhead_ += state.segment_debt + state.segment_writes;
  if (trace_ != nullptr) {
    trace_->record_compute(job, state.resource, state.ast, state.aft);
  }
}

bool ExecutorCore::cancel_segment(dag::JobId job, bool revoked) {
  const JobState& state = jobs_[job];
  if (!simulator_->cancel(state.completion)) {
    return false;
  }
  const sim::Time now = simulator_->now();
  if (session_ != nullptr) {
    // The machine frees now instead of at the projected finish.
    session_->truncate_commit(owner_, state.resource, /*tag=*/job, now,
                              /*carry_baseline=*/revoked);
  }
  end_segment(job, now, revoked);
  return true;
}

void ExecutorCore::hit_wall(dag::JobId job) {
  AHEFT_ASSERT(jobs_[job].phase == Phase::kRunning,
               "departure hit a non-running job");
  // The committed ledger window ends exactly at the wall — no truncation
  // needed; the machine is gone either way.
  end_segment(job, simulator_->now(), /*revoked=*/true);
}

void ExecutorCore::end_segment(dag::JobId job, sim::Time at, bool revoked) {
  account_interrupted_segment(job, at);
  JobState& state = jobs_[job];
  // A window booked ahead (dynamic dispatch) that had not begun leaves no
  // compute interval.
  if (trace_ != nullptr && state.ast <= at) {
    trace_->record_compute(job, state.resource, state.ast, at);
  }
  if (const auto it = busy_until_.find(state.resource);
      it != busy_until_.end() && it->second > at) {
    it->second = at;  // the machine frees under the cut segment
  }
  if (revoked) {
    ++revoked_jobs_;
  }
  state = JobState{};
}

void ExecutorCore::account_interrupted_segment(dag::JobId job, sim::Time at) {
  const JobState& state = jobs_[job];
  // Wall-clock elapsed back to nominal units (the segment composition is
  // nominal; the load factor stretched it uniformly).
  const double elapsed =
      std::max(at - state.ast, sim::kTimeZero) / state.load_factor;
  const double debt_paid = std::min(elapsed, state.segment_debt);
  checkpoint_overhead_ += debt_paid;
  resilience::SegmentProgress progress;
  if (checkpoint_ != nullptr) {
    progress = resilience::segment_progress(*checkpoint_, elapsed - debt_paid,
                                            state.segment_work);
  } else {
    progress.lost = elapsed - debt_paid;  // no checkpoints: all redone
  }
  checkpoint_overhead_ += progress.overhead;
  lost_work_ += progress.lost;
  if (progress.retained > 0.0) {
    useful_work_ += progress.retained;
    // Retained work is in this machine's nominal units; fold it into the
    // machine-independent completed fraction. Strictly < 1: a segment's
    // retainable work is capped below its full remainder.
    const double total = actual_->compute_cost(job, state.resource);
    done_frac_[job] = std::min(done_frac_[job] + progress.retained / total,
                               1.0);
  }
  restart_debt_[job] =
      (checkpoint_ != nullptr && checkpoint_->enabled && done_frac_[job] > 0.0)
          ? checkpoint_->read_cost
          : 0.0;
}

void ExecutorCore::recompute_busy() {
  busy_until_.clear();
  for (const JobState& state : jobs_) {
    if (state.phase == Phase::kRunning) {
      auto& busy = busy_until_[state.resource];
      busy = std::max(busy, state.aft);
    }
  }
}

void ExecutorCore::fail(const std::string& reason) {
  if (failed_) {
    return;
  }
  failed_ = true;
  failure_reason_ = reason;
  for (dag::JobId i = 0; i < dag_->job_count(); ++i) {
    if (jobs_[i].phase == Phase::kRunning) {
      // A completion that can no longer be cancelled is let finish.
      (void)cancel_segment(i, /*revoked=*/false);
    }
  }
  if (session_ != nullptr) {
    session_->withdraw_all(owner_);
  }
  makespan_ = std::max(makespan_, simulator_->now());
  if (failure_hook_) {
    failure_hook_();
  }
}

}  // namespace aheft::core
