#include "core/execution_engine.h"

#include <algorithm>

#include "support/assert.h"

namespace aheft::core {

ExecutionEngine::ExecutionEngine(sim::Simulator& simulator,
                                 const dag::Dag& dag,
                                 const grid::CostProvider& actual,
                                 const grid::ResourcePool& pool,
                                 sim::TraceRecorder* trace)
    : core_(simulator, dag, actual, pool, trace),
      edge_arrivals_(dag.edge_count()) {}

ExecutionEngine::ExecutionEngine(SimulationSession& session,
                                 const dag::Dag& dag,
                                 const grid::CostProvider& actual,
                                 double priority)
    : ExecutionEngine(session.simulator(), dag, actual, session.pool(),
                      session.trace()) {
  core_.join(session, this, priority, /*restartable=*/true);
}

void ExecutionEngine::contention_changed(grid::ResourceId resource) {
  if (has_schedule_) {
    pump(resource);
  }
}

const Schedule& ExecutionEngine::current_schedule() const {
  AHEFT_REQUIRE(has_schedule_, "no schedule submitted yet");
  return schedule_;
}

void ExecutionEngine::record_arrival(std::size_t edge_index,
                                     grid::ResourceId resource,
                                     sim::Time when) {
  auto& per_edge = edge_arrivals_[edge_index];
  const auto it = per_edge.find(resource);
  if (it == per_edge.end() || when < it->second) {
    per_edge[resource] = when;
  }
}

sim::Time ExecutionEngine::ensure_transfer(std::size_t edge_index,
                                           grid::ResourceId target,
                                           sim::Time when) {
  const dag::Edge& edge = core_.dag().edges()[edge_index];
  const ExecutorCore::JobState& producer = core_.job(edge.from);
  AHEFT_ASSERT(producer.phase == Phase::kFinished,
               "transfer initiated before producer finished");
  auto& per_edge = edge_arrivals_[edge_index];
  if (const auto it = per_edge.find(target); it != per_edge.end()) {
    return it->second;  // already there or already in flight
  }
  // Transfer start depends on the file-movement model; see TransferPolicy.
  const double c = core_.actual().comm_cost(edge, producer.resource, target);
  sim::Time start = when;
  sim::Time arrival = when + c;
  switch (transfer_policy_) {
    case TransferPolicy::kRetransmitFromClock:
      break;  // leaves now
    case TransferPolicy::kEagerReplicate:
      start = std::max(producer.aft, core_.pool().resource(target).arrival);
      arrival = start + c;
      break;
    case TransferPolicy::kPrestagedArrivals:
      arrival =
          std::max(producer.aft + c, core_.pool().resource(target).arrival);
      start = arrival - c;
      break;
  }
  per_edge[target] = arrival;
  if (core_.trace() != nullptr && arrival > start) {
    core_.trace()->record_transfer(edge.from, edge.to, target, start, arrival);
  }
  return arrival;
}

void ExecutionEngine::submit(const Schedule& schedule) {
  const dag::Dag& dag = core_.dag();
  AHEFT_REQUIRE(schedule.job_count() == dag.job_count(),
                "schedule sized for a different DAG");
  AHEFT_REQUIRE(schedule.complete(), "submitted schedule must be complete");
  AHEFT_REQUIRE(!core_.failed(), "schedule submitted to a failed workflow");
  const sim::Time now = core_.simulator().now();

  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    const ExecutorCore::JobState& state = core_.job(i);
    const Assignment& next = schedule.assignment(i);
    switch (state.phase) {
      case Phase::kFinished:
        // A reschedule must keep completed work where it happened.
        AHEFT_ASSERT(next.resource == state.resource &&
                         sim::time_eq(next.finish, state.aft),
                     "reschedule rewrote history of a finished job");
        break;
      case Phase::kRunning:
        if (next.resource != state.resource ||
            !sim::time_eq(next.start, state.ast)) {
          // The planner replanned this running job: cancel and restart
          // (keeping only checkpointed progress, if any). The machine
          // frees now, so the ledger's committed reservation is truncated
          // to the cancellation instead of blocking competitors until the
          // cancelled job's projected finish.
          const bool cancelled = core_.cancel_segment(i, /*revoked=*/false);
          AHEFT_ASSERT(cancelled, "running job had no completion event");
          ++restarts_;
        }
        break;
      case Phase::kPending:
        break;
    }
  }

  if (!has_schedule_) {
    initial_plan_makespan_ = schedule.makespan();
  }
  schedule_ = schedule;
  has_schedule_ = true;

  // Retransmit outputs of finished producers toward consumers that moved
  // (FEA case 2: the copy cannot leave before `now`).
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const dag::Edge& edge = dag.edges()[e];
    if (core_.job(edge.from).phase != Phase::kFinished ||
        core_.job(edge.to).phase == Phase::kFinished) {
      continue;
    }
    ensure_transfer(e, schedule_.assignment(edge.to).resource, now);
  }

  rebuild_queues();
  // A pump can add queues mid-loop (a requeue fails over), so iterate a
  // snapshot of the keys; pump() re-finds its queue.
  std::vector<grid::ResourceId> to_pump;
  to_pump.reserve(queues_.size());
  for (const auto& [resource, queue] : queues_) {
    to_pump.push_back(resource);
  }
  for (const grid::ResourceId resource : to_pump) {
    pump(resource);
  }
}

void ExecutionEngine::rebuild_queues() {
  queues_.clear();
  queue_pos_.clear();
  pending_pump_.clear();
  if (core_.session() != nullptr) {
    // A reschedule may have moved the queue heads: drop the pending
    // acquisitions so stale requests cannot gate competing workflows;
    // the post-rebuild pumps re-register the live ones.
    core_.session()->withdraw_all(this);
  }
  // The machines stay busy until their running jobs' projected finishes.
  core_.recompute_busy();
  for (dag::JobId i = 0; i < core_.dag().job_count(); ++i) {
    if (core_.job(i).phase == Phase::kPending) {
      queues_[schedule_.assignment(i).resource].push_back(i);
    }
  }
  for (auto& [resource, queue] : queues_) {
    std::sort(queue.begin(), queue.end(),
              [this](dag::JobId a, dag::JobId b) {
                const Assignment& aa = schedule_.assignment(a);
                const Assignment& ab = schedule_.assignment(b);
                if (aa.start != ab.start) {
                  return aa.start < ab.start;
                }
                return a < b;
              });
    queue_pos_[resource] = 0;
  }
}

void ExecutionEngine::pump(grid::ResourceId resource) {
  if (core_.failed()) {
    return;
  }
  const auto queue_it = queues_.find(resource);
  if (queue_it == queues_.end()) {
    return;
  }
  const std::vector<dag::JobId>& queue = queue_it->second;
  std::size_t& pos = queue_pos_[resource];
  const dag::Dag& dag = core_.dag();
  sim::Simulator& simulator = core_.simulator();
  const sim::Time now = simulator.now();

  while (pos < queue.size()) {
    const dag::JobId job = queue[pos];
    const ExecutorCore::JobState& state = core_.job(job);
    if (state.phase == Phase::kFinished ||
        schedule_.assignment(job).resource != resource) {
      ++pos;  // stale entry after a reschedule or a requeue
      continue;
    }
    AHEFT_ASSERT(state.phase == Phase::kPending,
                 "queued job is already running");

    // (a) inputs present on this resource?
    sim::Time ready = sim::kTimeZero;
    for (const std::uint32_t e : dag.in_edges(job)) {
      const dag::Edge& edge = dag.edges()[e];
      if (core_.job(edge.from).phase != Phase::kFinished) {
        return;  // producer pending/running: its completion re-pumps us
      }
      const auto& arrivals = edge_arrivals_[e];
      const auto it = arrivals.find(resource);
      AHEFT_ASSERT(it != arrivals.end(),
                   "input of " + dag.job(job).name +
                       " was never transferred to its resource");
      ready = std::max(ready, it->second);
    }

    // (b) machine free, (c) machine present.
    sim::Time start =
        std::max({ready, core_.pool().resource(resource).arrival, now,
                  core_.busy_until(resource)});
    // (d) the session's contention policy grants the machine slot
    //     (arbitrating against the other workflows' bookings and pending
    //     requests; under FCFS the grant is just their bookings).
    if (core_.session() != nullptr) {
      start = core_.session()->acquire(this, resource, start,
                                       core_.occupancy(job, resource),
                                       /*tag=*/job);
    }

    if (start > now) {
      // Try again when the gating time is reached (deduplicated).
      auto& pending = pending_pump_[resource];
      if (pending == 0 || pending > start) {
        simulator.schedule_at(start, [this, resource] {
          pending_pump_[resource] = 0;
          pump(resource);
        });
        pending = start;
      }
      return;
    }

    if (!start_job(job, resource)) {
      return;  // failed or requeued: scan state is stale
    }
    ++pos;
  }
}

bool ExecutionEngine::start_job(dag::JobId job, grid::ResourceId resource) {
  const sim::Time now = core_.simulator().now();
  const ExecutorCore::Start started = core_.start_segment(
      job, resource, now, [this](dag::JobId ended, bool at_wall) {
        if (!at_wall) {
          complete_job(ended);
          return;
        }
        // The machine departed under the job (kRequeue ran it to the
        // wall): salvage checkpointed progress and requeue.
        core_.hit_wall(ended);
        requeue_job(ended, core_.simulator().now());
      });
  switch (started) {
    case ExecutorCore::Start::kCompletes:
    case ExecutorCore::Start::kRunsToWall:
      return true;
    case ExecutorCore::Start::kFailed:
      return false;
    case ExecutorCore::Start::kGone:
      // Withdraw the pending acquisition and move the job elsewhere.
      core_.session()->withdraw(this, resource, /*tag=*/job);
      requeue_job(job, now);
      return false;
  }
  return false;
}

void ExecutionEngine::complete_job(dag::JobId job) {
  core_.finish_segment(job);
  const ExecutorCore::JobState& state = core_.job(job);
  const dag::Dag& dag = core_.dag();

  // Push outputs to wherever the current schedule placed the consumers
  // (static file-transfer model), and keep a copy at the producer. All
  // transfers are recorded before any consumer is pumped, otherwise a pump
  // triggered by one edge could observe another edge's missing arrival.
  std::vector<grid::ResourceId> to_pump;
  for (const std::uint32_t e : dag.out_edges(job)) {
    const dag::Edge& edge = dag.edges()[e];
    record_arrival(e, state.resource, state.aft);
    if (core_.job(edge.to).phase != Phase::kFinished) {
      const grid::ResourceId target = schedule_.assignment(edge.to).resource;
      ensure_transfer(e, target, state.aft);
      to_pump.push_back(target);
    }
  }
  for (const grid::ResourceId target : to_pump) {
    pump(target);
  }
  pump(state.resource);
  if (hook_) {
    hook_(job, state.resource, state.ast, state.aft);
  }
}

bool ExecutionEngine::revoke_committed(grid::ResourceId resource,
                                       std::uint64_t tag) {
  if (!core_.restartable() || core_.failed() || !has_schedule_ ||
      tag >= core_.dag().job_count()) {
    return false;
  }
  const auto job = static_cast<dag::JobId>(tag);
  const ExecutorCore::JobState& state = core_.job(job);
  if (state.phase != Phase::kRunning || state.resource != resource) {
    return false;
  }
  // Completing this very instant leaves nothing to take.
  if (!core_.cancel_segment(job, /*revoked=*/true)) {
    return false;
  }
  requeue_job(job, core_.simulator().now());
  return true;
}

void ExecutionEngine::requeue_job(dag::JobId job, sim::Time now) {
  if (core_.failed()) {
    return;
  }
  const std::string& name = core_.dag().job(job).name;
  SimulationSession& session = *core_.session();
  if (!session.may_revoke(this, /*tag=*/job)) {
    core_.fail("job " + name + " exceeded the per-job revocation cap");
    return;
  }
  session.record_revocation(this, /*tag=*/job);
  const grid::ResourceId target = choose_requeue_target(job, now);
  if (target == grid::kInvalidResource) {
    core_.fail("no machine left to requeue job " + name + " on");
    return;
  }
  reassign(job, target, now);
  // The job was at (or past) its start: every producer has finished, so
  // its inputs retransmit toward the new machine from now.
  for (const std::uint32_t e : core_.dag().in_edges(job)) {
    ensure_transfer(e, target, now);
  }
  queues_[target].push_back(job);
  pump(target);
}

grid::ResourceId ExecutionEngine::choose_requeue_target(dag::JobId job,
                                                        sim::Time now) const {
  grid::ResourceId best = grid::kInvalidResource;
  sim::Time best_finish = sim::kTimeInfinity;
  grid::ResourceId fallback = grid::kInvalidResource;
  sim::Time fallback_departure = now;
  for (const grid::Resource& machine : core_.pool().all()) {
    if (machine.arrival == sim::kTimeInfinity) {
      continue;  // masked: owned by another shard of the session
    }
    if (sim::time_le(machine.departure, now)) {
      continue;  // already departed
    }
    const double occupancy = core_.occupancy(job, machine.id);
    const sim::Time start = core_.session()->peek(
        this, machine.id,
        std::max({now, machine.arrival, core_.busy_until(machine.id)}),
        occupancy);
    const sim::Time finish = start + occupancy;
    if (sim::time_le(finish, machine.departure)) {
      if (finish < best_finish) {
        best = machine.id;
        best_finish = finish;
      }
    } else if (machine.departure > fallback_departure) {
      fallback = machine.id;
      fallback_departure = machine.departure;
    }
  }
  return best != grid::kInvalidResource ? best : fallback;
}

void ExecutionEngine::reassign(dag::JobId job, grid::ResourceId target,
                               sim::Time now) {
  const std::size_t jobs = core_.dag().job_count();
  Schedule next(jobs);
  for (dag::JobId i = 0; i < jobs; ++i) {
    if (i != job) {
      next.assign(schedule_.assignment(i));
    }
  }
  // Plan the remainder after the target's planned work; the pump applies
  // the real gating (inputs, machine free, contention grant) at start.
  sim::Time start = std::max(now, core_.pool().resource(target).arrival);
  for (const Assignment& slot : next.timeline(target)) {
    start = std::max(start, slot.finish);
  }
  next.assign(Assignment{job, target, start,
                         start + core_.occupancy(job, target)});
  schedule_ = std::move(next);
}

ExecutionSnapshot ExecutionEngine::snapshot() const {
  const dag::Dag& dag = core_.dag();
  ExecutionSnapshot snap(core_.simulator().now(), dag.job_count(),
                         edge_arrivals_);
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    const ExecutorCore::JobState& state = core_.job(i);
    if (state.phase == Phase::kFinished) {
      snap.mark_finished(i, FinishedInfo{state.resource, state.ast, state.aft});
    } else if (state.phase == Phase::kRunning) {
      snap.add_running(RunningInfo{i, state.resource, state.ast, state.aft});
    }
  }
  return snap;
}

}  // namespace aheft::core
