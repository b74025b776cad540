#include "core/rescheduler.h"

#include <algorithm>
#include <optional>

#include "core/ranking.h"
#include "support/assert.h"

namespace aheft::core {

namespace {

void check_request(const RescheduleRequest& request) {
  AHEFT_REQUIRE(request.dag != nullptr, "request needs a DAG");
  AHEFT_REQUIRE(request.dag->finalized(), "DAG must be finalized");
  AHEFT_REQUIRE(request.estimates != nullptr, "request needs estimates");
  AHEFT_REQUIRE(request.pool != nullptr, "request needs a resource pool");
  AHEFT_REQUIRE(!request.resources.empty(),
                "request needs at least one visible resource");
  AHEFT_REQUIRE((request.snapshot == nullptr) == (request.previous == nullptr),
                "snapshot and previous schedule come together");
  AHEFT_REQUIRE(!request.restrict_to_previous || request.previous != nullptr,
                "re-pricing mode needs a previous schedule to restrict to");
  if (request.snapshot != nullptr) {
    AHEFT_REQUIRE(request.snapshot->job_count() == request.dag->job_count(),
                  "snapshot sized for a different DAG");
    AHEFT_REQUIRE(sim::time_eq(request.snapshot->clock(), request.clock),
                  "snapshot clock differs from request clock");
  }
  for (const grid::ResourceId r : request.resources) {
    AHEFT_REQUIRE(request.pool->resource(r).available_at(request.clock) ||
                      request.pool->resource(r).arrival == request.clock,
                  "resource in visible set is not available at clock");
  }
}

/// Seeds a fresh S1 with history: finished jobs always keep their actual
/// slots; running jobs are pinned under kKeepRunning when still feasible.
Schedule pin_history(const RescheduleRequest& request,
                     std::vector<bool>& pinned) {
  const dag::Dag& dag = *request.dag;
  Schedule result(dag.job_count());
  pinned.assign(dag.job_count(), false);
  const ExecutionSnapshot* snapshot = request.snapshot;
  if (snapshot == nullptr) {
    return result;
  }
  for (dag::JobId i = 0; i < dag.job_count(); ++i) {
    if (snapshot->finished(i)) {
      const FinishedInfo& info = snapshot->finished_info(i);
      result.assign(Assignment{i, info.resource, info.ast, info.aft});
      pinned[i] = true;
    }
  }
  if (request.config.running_policy == RunningJobPolicy::kKeepRunning) {
    for (const RunningInfo& info : snapshot->running()) {
      // A running job can only be kept if its resource is still in the
      // visible set and survives long enough — otherwise it is implicitly
      // restarted (rescheduling as the fault-tolerance mechanism).
      const bool visible =
          std::find(request.resources.begin(), request.resources.end(),
                    info.resource) != request.resources.end();
      const bool fits =
          sim::time_le(info.expected_finish,
                       request.pool->resource(info.resource).departure);
      if (!visible || !fits) {
        continue;
      }
      result.assign(Assignment{info.job, info.resource, info.ast,
                               info.expected_finish});
      pinned[info.job] = true;
    }
  }
  return result;
}

/// One greedy pass (the paper's Fig. 3 procedure) over a given job order.
Schedule schedule_in_order(const RescheduleRequest& request,
                           const std::vector<dag::JobId>& order) {
  const dag::Dag& dag = *request.dag;
  const grid::CostProvider& est = *request.estimates;

  std::vector<bool> pinned;
  Schedule result = pin_history(request, pinned);

  // The current job's in-edges, resolved once before its resource loops;
  // one buffer serves every job of the pass.
  std::vector<EdgeInput> inputs;
  // Inner max of Eq. 2: all inputs present on r.
  const auto data_ready = [&](grid::ResourceId r) {
    sim::Time ready = sim::kTimeZero;
    for (const EdgeInput& input : inputs) {
      ready = std::max(ready, edge_available(request, input, r));
    }
    return ready;
  };

  for (const dag::JobId job : order) {
    if (pinned[job]) {
      continue;
    }
    inputs.clear();
    for (const std::uint32_t e : dag.in_edges(job)) {
      inputs.push_back(resolve_edge_input(request, e, result));
    }

    grid::ResourceId best_resource = grid::kInvalidResource;
    sim::Time best_start = sim::kTimeInfinity;
    sim::Time best_finish = sim::kTimeInfinity;

    // Re-pricing restricts the search to the resource the previous plan
    // chose; the full visible set stays the fallback for jobs whose kept
    // resource became infeasible (departed, or its window filled up).
    std::vector<grid::ResourceId> kept;
    if (request.restrict_to_previous &&
        request.previous->assigned(job)) {
      kept.push_back(request.previous->assignment(job).resource);
    }

    const auto search = [&](const std::vector<grid::ResourceId>& candidates,
                            const AvailabilityView* availability) {
      for (const grid::ResourceId r : candidates) {
        const grid::Resource& machine = request.pool->resource(r);
        // avail[j]: a resource is usable from its arrival, and never
        // before the rescheduling clock.
        const sim::Time not_before = std::max(request.clock, machine.arrival);
        const sim::Time ready = data_ready(r);
        const double w = est.compute_cost(job, r);
        const sim::Time start =
            result.earliest_slot(r, ready, w, request.config.slot_policy,
                                 not_before, machine.departure, availability);
        if (start == sim::kTimeInfinity) {
          continue;  // does not fit in the resource's availability window
        }
        const sim::Time finish = start + w;  // Eq. 3
        // Strictly smaller EFT wins; near-equal EFTs keep the earlier
        // resource in visible-set order, matching [19]'s published
        // schedules.
        if (best_resource == grid::kInvalidResource ||
            (finish < best_finish && !sim::time_eq(finish, best_finish))) {
          best_resource = r;
          best_start = start;
          best_finish = finish;
        }
      }
    };

    const std::vector<grid::ResourceId>& primary =
        kept.empty() ? request.resources : kept;
    search(primary, request.availability);
    if (best_resource == grid::kInvalidResource &&
        request.availability != nullptr) {
      // Foreign load filled every machine's remaining window. The blind
      // estimate is still executable — held claims are displaceable and
      // committed windows may truncate — so degrade to it for this job
      // rather than declaring a live grid infeasible.
      search(primary, nullptr);
    }
    if (best_resource == grid::kInvalidResource && !kept.empty()) {
      // The kept resource is gone for good (typically departed): let the
      // re-priced plan move this job like a real reschedule would.
      search(request.resources, request.availability);
      if (best_resource == grid::kInvalidResource &&
          request.availability != nullptr) {
        search(request.resources, nullptr);
      }
    }

    if (best_resource == grid::kInvalidResource &&
        request.allow_infeasible) {
      // Every visible machine departs before this job could finish. With
      // restart semantics on, infeasibility is an outcome rather than an
      // error: place the job on the longest-surviving machine (the wall
      // that salvages the most checkpointed progress) and let the
      // executor's departure handling take it from there.
      sim::Time best_departure = -sim::kTimeInfinity;
      for (const grid::ResourceId r : request.resources) {
        const grid::Resource& machine = request.pool->resource(r);
        const sim::Time not_before = std::max(request.clock, machine.arrival);
        const sim::Time ready = data_ready(r);
        const double w = est.compute_cost(job, r);
        const sim::Time start =
            result.earliest_slot(r, ready, w, request.config.slot_policy,
                                 not_before, sim::kTimeInfinity, nullptr);
        const sim::Time finish = start + w;
        if (best_resource == grid::kInvalidResource ||
            machine.departure > best_departure ||
            (sim::time_eq(machine.departure, best_departure) &&
             finish < best_finish)) {
          best_resource = r;
          best_start = start;
          best_finish = finish;
          best_departure = machine.departure;
        }
      }
    }

    AHEFT_ASSERT(best_resource != grid::kInvalidResource,
                 "no feasible resource for job " + dag.job(job).name);
    result.assign(Assignment{job, best_resource, best_start, best_finish});
  }

  return result;
}

}  // namespace

EdgeInput resolve_edge_input(const RescheduleRequest& request,
                             std::size_t edge_index,
                             const Schedule& new_schedule) {
  const dag::Dag& dag = *request.dag;
  const dag::Edge& edge = dag.edges()[edge_index];
  const dag::JobId producer = edge.from;

  if (request.snapshot != nullptr && request.snapshot->finished(producer)) {
    const FinishedInfo& info = request.snapshot->finished_info(producer);
    return EdgeInput{&edge, info.resource, info.aft,
                     &request.snapshot->arrivals(edge_index)};
  }

  // Unfinished predecessor: it is pinned or already placed in S1 (rank
  // order guarantees predecessors are handled first).
  AHEFT_ASSERT(new_schedule.assigned(producer),
               "predecessor " + dag.job(producer).name +
                   " not yet placed — rank order violated");
  const Assignment& placed = new_schedule.assignment(producer);
  return EdgeInput{&edge, placed.resource, placed.finish, nullptr};
}

sim::Time edge_available(const RescheduleRequest& request,
                         const EdgeInput& input, grid::ResourceId target) {
  const grid::CostProvider& est = *request.estimates;

  if (input.arrivals != nullptr) {
    // Case 1 / "otherwise with finished n_m": the output already sits on
    // (or is in flight to) `target` because of schedule S0.
    if (const auto it = input.arrivals->find(target);
        it != input.arrivals->end()) {
      return it->second;
    }
    // Case 2: finished, but the output was never directed to `target`.
    const double c = est.comm_cost(*input.edge, input.resource, target);
    switch (request.config.transfer_policy) {
      case TransferPolicy::kRetransmitFromClock:
        // "The file transmission can not be earlier than clock."
        return request.clock + c;
      case TransferPolicy::kEagerReplicate:
        // The copy left at max(AFT, target arrival).
        return std::max(input.finish, request.pool->resource(target).arrival) +
               c;
      case TransferPolicy::kPrestagedArrivals:
        // A joining resource syncs previously produced files on arrival.
        return std::max(input.finish + c,
                        request.pool->resource(target).arrival);
    }
    return request.clock + c;
  }

  if (input.resource == target) {
    return input.finish;  // Case 3
  }
  // Otherwise: output follows the (new) schedule with one transfer.
  return input.finish + est.comm_cost(*input.edge, input.resource, target);
}

sim::Time file_available(const RescheduleRequest& request,
                         std::size_t edge_index, grid::ResourceId target,
                         const Schedule& new_schedule) {
  return edge_available(
      request, resolve_edge_input(request, edge_index, new_schedule), target);
}

Schedule aheft_schedule(const RescheduleRequest& request) {
  check_request(request);
  const dag::Dag& dag = *request.dag;

  if (request.restrict_to_previous) {
    // Re-pricing: keep the previous plan's mapping and per-resource order
    // by walking its jobs in start order (a linear extension of both the
    // precedence and the per-resource queues, since the plan was
    // feasible). Under an empty view this reproduces the previous
    // schedule exactly; under a fresh view it re-times the same plan
    // against today's foreign load. Order exploration is meaningless
    // with the mapping fixed, so the pass is single-shot.
    std::vector<dag::JobId> order(dag.job_count());
    for (dag::JobId i = 0; i < dag.job_count(); ++i) {
      order[i] = i;
    }
    // Jobs the previous plan did not cover sort last (schedule_in_order
    // remaps them over the full visible set), so a partial previous
    // schedule degrades instead of aborting.
    const auto start_of = [&](dag::JobId job) {
      const std::optional<Assignment>& slot =
          request.previous->maybe_assignment(job);
      return slot ? slot->start : sim::kTimeInfinity;
    };
    std::sort(order.begin(), order.end(),
              [&](dag::JobId a, dag::JobId b) {
                const sim::Time sa = start_of(a);
                const sim::Time sb = start_of(b);
                if (sa != sb) {
                  return sa < sb;
                }
                return a < b;
              });
    return schedule_in_order(request, order);
  }

  // Upward ranks over the visible resource set (Eq. 5/6), most significant
  // jobs first (Fig. 3 lines 2–3).
  const std::vector<double> ranks =
      upward_ranks(dag, *request.estimates, request.resources);
  const std::vector<dag::JobId> order = rank_order(ranks);

  Schedule best = schedule_in_order(request, order);

  // Optional order exploration: strict rank order is a heuristic, and jobs
  // with nearly equal ranks can legally schedule in either order. Trying a
  // few single-swap variants recovers schedules like the paper's Fig. 5(b),
  // which beats strict rank order by one near-tie swap.
  std::size_t tried = 0;
  for (std::size_t k = 0;
       k + 1 < order.size() && tried < request.config.order_candidates; ++k) {
    const dag::JobId a = order[k];
    const dag::JobId b = order[k + 1];
    const double gap = ranks[a] - ranks[b];
    const double scale = std::max(1.0, std::max(ranks[a], ranks[b]));
    if (gap > request.config.rank_tie_fraction * scale) {
      continue;
    }
    // Swapping is only legal if it does not violate precedence.
    const std::vector<dag::JobId> succ_of_a = dag.successors(a);
    if (std::find(succ_of_a.begin(), succ_of_a.end(), b) != succ_of_a.end()) {
      continue;
    }
    std::vector<dag::JobId> variant = order;
    std::swap(variant[k], variant[k + 1]);
    ++tried;
    Schedule candidate = schedule_in_order(request, variant);
    if (candidate.makespan() <
        best.makespan() - sim::kTimeEpsilon * (1.0 + best.makespan())) {
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace aheft::core
