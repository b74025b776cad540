#include "core/dynamic_scheduler.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "dag/algorithms.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace aheft::core {

std::string to_string(DynamicHeuristic heuristic) {
  switch (heuristic) {
    case DynamicHeuristic::kMinMin:
      return "min-min";
    case DynamicHeuristic::kMaxMin:
      return "max-min";
    case DynamicHeuristic::kSufferage:
      return "sufferage";
  }
  return "unknown";
}

DynamicExecution::DynamicExecution(SimulationSession& session,
                                   const dag::Dag& dag,
                                   const grid::CostProvider& actual,
                                   DynamicHeuristic heuristic,
                                   double priority, bool contention_aware)
    : core_(session.simulator(), dag, actual, session.pool(),
            session.trace()),
      heuristic_(heuristic),
      contention_aware_(contention_aware),
      pending_preds_(dag.job_count(), 0) {
  core_.join(session, this, priority, /*restartable=*/false);
  // Terminal failure ends the run like a finish would — in a fresh event,
  // so the failing dispatch unwinds first.
  core_.set_failure_hook([this] {
    core_.simulator().schedule_at(core_.simulator().now(), [this] {
      if (done_) {
        done_(*this);
      }
    });
  });
}

void DynamicExecution::launch(sim::Time release, Completion done) {
  AHEFT_REQUIRE(sim::time_le(core_.simulator().now(), release),
                "dynamic launch release lies in the simulator's past");
  release_ = release;
  done_ = std::move(done);
  const dag::Dag& dag = core_.dag();
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    pending_preds_[i] = static_cast<std::uint32_t>(dag.in_edges(i).size());
    if (pending_preds_[i] == 0) {
      ready_.push_back(i);
    }
  }
  core_.simulator().schedule_at(release, [this] {
    AHEFT_REQUIRE(core_.pool().count_available_at(release_) > 0,
                  "dynamic run needs at least one resource at release");
    planned_finish_ = estimate_solo_finish();
    dispatch();
  });
}

sim::Time DynamicExecution::estimate_solo_finish() const {
  // A just-in-time run has no plan, but fair-share stretch needs a scale
  // to normalize by — without one this workflow could never displace
  // competitors (planned_span 0 means stretch 0). Estimate the solo
  // makespan the way the engines use their release-time HEFT plan: a
  // greedy earliest-finish list schedule over the release-visible
  // machines with nominal costs, transfers priced at decision time. The
  // estimate must be realistic — an optimistic bound (say, the bare
  // critical path) inflates every stretch past the displacement
  // deadband and turns fair share into thrash. Contention-aware runs
  // additionally fit every placement into the ledger snapshot's free
  // gaps, mirroring what the contention-aware planner's release-time
  // HEFT pass prices for the static strategies.
  const dag::Dag& dag = core_.dag();
  const grid::CostProvider& actual = core_.actual();
  const std::vector<grid::ResourceId> visible =
      core_.pool().available_at(release_);
  std::optional<AvailabilityView> view;
  if (contention_aware_) {
    view.emplace(core_.session()->availability_view(this));
  }
  std::vector<sim::Time> finish(dag.job_count(), release_);
  std::vector<grid::ResourceId> where(dag.job_count(),
                                      grid::kInvalidResource);
  std::map<grid::ResourceId, sim::Time> free;
  sim::Time span_end = release_;
  for (const dag::JobId job : dag.topological_order()) {
    sim::Time best_finish = sim::kTimeInfinity;
    grid::ResourceId best_r = grid::kInvalidResource;
    for (const grid::ResourceId r : visible) {
      sim::Time ready = release_;
      for (const std::uint32_t e : dag.in_edges(job)) {
        const dag::Edge& edge = dag.edges()[e];
        sim::Time arrival = finish[edge.from];
        if (where[edge.from] != r) {
          arrival += actual.comm_cost(edge, where[edge.from], r);
        }
        ready = std::max(ready, arrival);
      }
      const double w = actual.compute_cost(job, r);
      const auto it = free.find(r);
      sim::Time start =
          std::max(ready, it == free.end() ? release_ : it->second);
      if (view) {
        start = view->earliest_fit(r, start, w);
      }
      const sim::Time f = start + w;
      if (f < best_finish) {
        best_finish = f;
        best_r = r;
      }
    }
    finish[job] = best_finish;
    where[job] = best_r;
    free[best_r] = best_finish;
    span_end = std::max(span_end, best_finish);
  }
  return span_end;
}

void DynamicExecution::contention_changed(grid::ResourceId resource) {
  if (core_.failed()) {
    return;
  }
  // Re-arbitrate every held dispatch on the resource (job-id order keeps
  // the replay deterministic). retry_held may commit and mutate held_,
  // so collect first.
  std::vector<dag::JobId> jobs;
  for (const auto& [job, hold] : held_) {
    if (hold.resource == resource) {
      jobs.push_back(job);
    }
  }
  for (const dag::JobId job : jobs) {
    retry_held(job);
  }
}

sim::Time DynamicExecution::inputs_ready(dag::JobId job,
                                         grid::ResourceId resource,
                                         sim::Time now) const {
  sim::Time ready = now;
  for (const std::uint32_t e : core_.dag().in_edges(job)) {
    const dag::Edge& edge = core_.dag().edges()[e];
    const ExecutorCore::JobState& producer = core_.job(edge.from);
    AHEFT_ASSERT(producer.phase == ExecutorCore::Phase::kFinished,
                 "ready job with unfinished pred");
    const sim::Time arrival =
        producer.resource == resource
            ? producer.aft
            : now + core_.actual().comm_cost(edge, producer.resource,
                                             resource);
    ready = std::max(ready, arrival);
  }
  return ready;
}

sim::Time DynamicExecution::machine_free_before(grid::ResourceId resource,
                                                std::uint64_t seq) const {
  sim::Time free = std::max(core_.pool().resource(resource).arrival,
                            core_.busy_until(resource));
  // Held dispatch decisions claim their granted window for every LATER
  // decision, exactly as an instant advance booking would have stacked —
  // but never for earlier ones, so two held claims cannot gate each
  // other both ways and push their retries apart forever.
  for (const auto& [held_job, hold] : held_) {
    if (hold.resource == resource && hold.seq < seq) {
      free = std::max(free, hold.retry_at + hold.nominal);
    }
  }
  return free;
}

sim::Time DynamicExecution::completion_time(dag::JobId job,
                                            grid::ResourceId resource,
                                            sim::Time now) const {
  // Peek (not acquire): decision heuristics price every candidate
  // resource, so the query must not register requests. The probe must
  // mirror assign()'s acquire exactly — same ready (inputs included) and
  // duration — or a policy deferral could push the realized start past
  // the departure window this estimate is vetted against.
  const double cost = core_.actual().compute_cost(job, resource);
  const sim::Time start = core_.session()->peek(
      this, resource,
      std::max(inputs_ready(job, resource, now),
               machine_free_before(resource)),
      cost);
  return start + cost;
}

/// Runs one just-in-time decision round over every currently ready job.
void DynamicExecution::dispatch() {
  if (core_.failed() || ready_.empty()) {
    return;
  }
  const sim::Time now = core_.simulator().now();
  const grid::ResourcePool& pool = core_.pool();
  const std::vector<grid::ResourceId> visible = pool.available_at(now);
  AHEFT_ASSERT(!visible.empty(), "no resource available for dispatch");
  ++batches_;

  bool stuck = false;
  while (!ready_.empty() && !core_.failed()) {
    // For each ready job, its best and second-best completion times.
    dag::JobId chosen = dag::kInvalidJob;
    grid::ResourceId chosen_resource = grid::kInvalidResource;
    double chosen_key = 0.0;
    bool first = true;

    for (const dag::JobId job : ready_) {
      sim::Time best = sim::kTimeInfinity;
      sim::Time second = sim::kTimeInfinity;
      grid::ResourceId best_r = grid::kInvalidResource;
      for (const grid::ResourceId r : visible) {
        const sim::Time ct = completion_time(job, r, now);
        // Departures are announced (the window is in the pool), so a
        // just-in-time decision never books a machine that would leave
        // before the job finishes.
        if (!sim::time_le(ct, pool.resource(r).departure)) {
          continue;
        }
        if (ct < best) {
          second = best;
          best = ct;
          best_r = r;
        } else if (ct < second) {
          second = ct;
        }
      }
      if (best_r == grid::kInvalidResource) {
        if (core_.session()->resilience().active()) {
          // The job waits for the pool to change (a repair may bring a
          // machine); see defer_dispatch below.
          stuck = true;
          continue;
        }
        throw std::runtime_error(
            "dynamic dispatch: no visible machine can finish job " +
            core_.dag().job(job).name +
            " before departing (the dynamic baseline does not defer "
            "dispatch until repairs arrive)");
      }
      double key = 0.0;
      switch (heuristic_) {
        case DynamicHeuristic::kMinMin:
          key = -best;  // prefer the smallest completion time
          break;
        case DynamicHeuristic::kMaxMin:
          key = best;  // prefer the largest minimum completion time
          break;
        case DynamicHeuristic::kSufferage:
          key = (second == sim::kTimeInfinity) ? 0.0 : second - best;
          break;
      }
      if (first || key > chosen_key) {
        first = false;
        chosen = job;
        chosen_resource = best_r;
        chosen_key = key;
      }
    }

    if (chosen == dag::kInvalidJob) {
      break;  // every remaining ready job is stuck
    }
    ready_.erase(std::find(ready_.begin(), ready_.end(), chosen));
    assign(chosen, chosen_resource, now);
  }
  if (stuck && !ready_.empty() && !core_.failed()) {
    defer_dispatch(now);
  }
}

void DynamicExecution::defer_dispatch(sim::Time now) {
  sim::Time next = sim::kTimeInfinity;
  for (const sim::Time when :
       core_.pool().change_times(now, sim::kTimeInfinity)) {
    if (when > now && !sim::time_eq(when, now) && when < next) {
      next = when;
    }
  }
  if (next == sim::kTimeInfinity) {
    core_.fail("no machine can finish job " +
               core_.dag().job(ready_.front()).name +
               " before departing, and the pool never changes again");
    return;
  }
  if (sim::time_eq(deferred_until_, next)) {
    return;  // retry already armed
  }
  deferred_until_ = next;
  core_.simulator().schedule_at(next, [this, next] {
    if (sim::time_eq(deferred_until_, next)) {
      deferred_until_ = -1.0;
      dispatch();
    }
  });
}

void DynamicExecution::assign(dag::JobId job, grid::ResourceId resource,
                              sim::Time now) {
  const double nominal = core_.actual().compute_cost(job, resource);
  const sim::Time start = core_.session()->acquire(
      this, resource,
      std::max(inputs_ready(job, resource, now),
               machine_free_before(resource)),
      nominal, /*tag=*/job);

  if (core_.session()->two_phase_dynamic() && start > now &&
      !sim::time_eq(start, now)) {
    // Two-phase dispatch: the granted start lies in the future, so keep
    // the reservation held — visible in the ledger queue, displaceable
    // by the policy, re-arbitrated on wakeups — and commit only when the
    // grant matures. Under FCFS this branch never runs and the decision
    // advance-books the slot instantly (the historical behavior).
    core_.session()->hold(this, resource, job, start);
    HeldDispatch& hold = held_[job];
    hold.resource = resource;
    hold.nominal = nominal;
    hold.decided_at = now;
    hold.inputs_ready = inputs_ready(job, resource, now);
    hold.seq = next_decision_seq_++;
    schedule_retry(job, start);
    return;
  }
  start_assignment(job, resource, start, /*decided_at=*/now);
}

void DynamicExecution::schedule_retry(dag::JobId job, sim::Time when) {
  HeldDispatch& hold = held_[job];
  hold.retry_at = when;
  const std::uint64_t generation = ++hold.generation;
  core_.simulator().schedule_at(when, [this, job, generation] {
    const auto it = held_.find(job);
    if (it != held_.end() && it->second.generation == generation) {
      retry_held(job);
    }
  });
}

void DynamicExecution::retry_held(dag::JobId job) {
  const auto it = held_.find(job);
  if (core_.failed() || it == held_.end()) {
    return;
  }
  HeldDispatch hold = it->second;
  const sim::Time now = core_.simulator().now();
  const sim::Time feasible = std::max(
      {hold.inputs_ready, machine_free_before(hold.resource, hold.seq), now});
  const sim::Time start = core_.session()->acquire(
      this, hold.resource, feasible, hold.nominal, /*tag=*/job);

  // The machine may depart before the re-arbitrated start fits: abandon
  // the held placement and re-decide over the machines visible now.
  if (!sim::time_le(start + hold.nominal,
                    core_.pool().resource(hold.resource).departure)) {
    core_.session()->withdraw(this, hold.resource, job);
    held_.erase(job);
    ready_.push_back(job);
    dispatch();
    return;
  }

  if (start > now && !sim::time_eq(start, now)) {
    core_.session()->hold(this, hold.resource, job, start);
    schedule_retry(job, start);
    return;
  }
  held_.erase(job);
  start_assignment(job, hold.resource, std::max(start, now), hold.decided_at);
}

void DynamicExecution::start_assignment(dag::JobId job,
                                        grid::ResourceId resource,
                                        sim::Time start,
                                        sim::Time decided_at) {
  // The paper's dynamic file model starts a transfer when the placement
  // decision is taken, so the records are stamped at decision time.
  if (sim::TraceRecorder* trace = core_.trace(); trace != nullptr) {
    for (const std::uint32_t e : core_.dag().in_edges(job)) {
      const dag::Edge& edge = core_.dag().edges()[e];
      const grid::ResourceId from = core_.job(edge.from).resource;
      if (from != resource) {
        trace->record_transfer(
            edge.from, job, resource, decided_at,
            decided_at + core_.actual().comm_cost(edge, from, resource));
      }
    }
  }
  // The dispatch loop vetted the nominal completion against the window;
  // a load spike can still stretch the realized run past it, which the
  // core reports or (resilience on) turns into a graceful failure.
  core_.start_segment(job, resource, start,
                      [this](dag::JobId ended, bool /*at_wall*/) {
                        complete(ended);
                      });
}

void DynamicExecution::complete(dag::JobId job) {
  core_.finish_segment(job);
  bool any_ready = false;
  for (const std::uint32_t e : core_.dag().out_edges(job)) {
    const dag::JobId succ = core_.dag().edges()[e].to;
    AHEFT_ASSERT(pending_preds_[succ] > 0, "pred counter underflow");
    if (--pending_preds_[succ] == 0) {
      ready_.push_back(succ);
      any_ready = true;
    }
  }
  if (any_ready) {
    dispatch();
  }
  if (core_.finished() && done_) {
    done_(*this);
  }
}

}  // namespace aheft::core
