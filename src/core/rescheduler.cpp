#include "core/rescheduler.h"

#include <algorithm>
#include <optional>
#include <string>

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
  // Inner max of Eq. 2 (all inputs present on r) by rows: the visible
  // set's row serves the primary search, both fallbacks and the
  // allow_infeasible loop; a kept resource gets a row of its own.
  DataReadyRow visible(request, request.resources);
  DataReadyRow kept(request, {});

  for (const dag::JobId job : order) {
    if (pinned[job]) {
      continue;
    }
    inputs.clear();
    for (const std::uint32_t e : dag.in_edges(job)) {
      inputs.push_back(resolve_edge_input(request, e, result));
    }
    bool visible_filled = false;
    const auto visible_row = [&]() -> const DataReadyRow& {
      if (!visible_filled) {
        visible.fill(inputs);
        visible_filled = true;
      }
      return visible;
    };

    grid::ResourceId best_resource = grid::kInvalidResource;
    sim::Time best_start = sim::kTimeInfinity;
    sim::Time best_finish = sim::kTimeInfinity;

    // Re-pricing restricts the search to the resource the previous plan
    // chose; the full visible set stays the fallback for jobs whose kept
    // resource became infeasible (departed, or its window filled up).
    const bool keeps =
        request.restrict_to_previous && request.previous->assigned(job);
    if (keeps) {
      const grid::ResourceId r = request.previous->assignment(job).resource;
      kept.retarget(std::span(&r, 1));
      kept.fill(inputs);
    }

    const auto search = [&](const DataReadyRow& row,
                            const AvailabilityView* availability) {
      const std::span<const grid::ResourceId> candidates = row.targets();
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        const grid::ResourceId r = candidates[k];
        const grid::Resource& machine = request.pool->resource(r);
        // avail[j]: a resource is usable from its arrival, and never
        // before the rescheduling clock.
        const sim::Time not_before = std::max(request.clock, machine.arrival);
        const double w = est.compute_cost(job, r);
        const sim::Time start =
            result.earliest_slot(r, row.value(k), w,
                                 request.config.slot_policy, not_before,
                                 machine.departure, availability);
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

    const DataReadyRow& primary = keeps ? kept : visible_row();
    search(primary, request.availability);
    if (best_resource == grid::kInvalidResource &&
        request.availability != nullptr) {
      // Foreign load filled every machine's remaining window. The blind
      // estimate is still executable — held claims are displaceable and
      // committed windows may truncate — so degrade to it for this job
      // rather than declaring a live grid infeasible.
      search(primary, nullptr);
    }
    if (best_resource == grid::kInvalidResource && keeps) {
      // The kept resource is gone for good (typically departed): let the
      // re-priced plan move this job like a real reschedule would.
      search(visible_row(), request.availability);
      if (best_resource == grid::kInvalidResource &&
          request.availability != nullptr) {
        search(visible_row(), nullptr);
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
      const DataReadyRow& row = visible_row();
      for (std::size_t k = 0; k < request.resources.size(); ++k) {
        const grid::ResourceId r = request.resources[k];
        const grid::Resource& machine = request.pool->resource(r);
        const sim::Time not_before = std::max(request.clock, machine.arrival);
        const double w = est.compute_cost(job, r);
        const sim::Time start =
            result.earliest_slot(r, row.value(k), w,
                                 request.config.slot_policy, not_before,
                                 sim::kTimeInfinity, nullptr);
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

DataReadyRow::DataReadyRow(const RescheduleRequest& request,
                           std::span<const grid::ResourceId> targets)
    : request_(request) {
  retarget(targets);
}

void DataReadyRow::retarget(std::span<const grid::ResourceId> targets) {
  for (const grid::ResourceId r : targets_) {
    slot_[r] = kNoSlot;
  }
  targets_.assign(targets.begin(), targets.end());
  edge_.resize(targets_.size());
  ready_.resize(targets_.size());
  for (std::size_t k = 0; k < targets_.size(); ++k) {
    const grid::ResourceId r = targets_[k];
    if (r >= slot_.size()) {
      slot_.resize(r + 1, kNoSlot);
    }
    AHEFT_REQUIRE(slot_[r] == kNoSlot,
                  "candidate list names resource " + std::to_string(r) +
                      " twice");
    slot_[r] = static_cast<std::uint32_t>(k);
  }
}

void DataReadyRow::fill(std::span<const EdgeInput> inputs) {
  const std::size_t n = targets_.size();
  const sim::Time clock = request_.clock;
  const auto arrival = [&](std::size_t k) {
    return request_.pool->resource(targets_[k]).arrival;
  };
  std::fill(ready_.begin(), ready_.end(), sim::kTimeZero);
  for (const EdgeInput& input : inputs) {
    // c from n_m's resource to every target (0 on n_m's own resource).
    request_.estimates->comm_costs(*input.edge, input.resource, targets_,
                                   edge_);
    if (input.arrivals != nullptr) {
      // Case 2: n_m finished, but its output was never directed to the
      // target.
      switch (request_.config.transfer_policy) {
        case TransferPolicy::kEagerReplicate:
          // The copy left at max(AFT, target arrival).
          for (std::size_t k = 0; k < n; ++k) {
            edge_[k] = std::max(input.finish, arrival(k)) + edge_[k];
          }
          break;
        case TransferPolicy::kPrestagedArrivals:
          // A joining resource syncs previously produced files on arrival.
          for (std::size_t k = 0; k < n; ++k) {
            edge_[k] = std::max(input.finish + edge_[k], arrival(k));
          }
          break;
        case TransferPolicy::kRetransmitFromClock:
        default:
          // "The file transmission can not be earlier than clock."
          for (std::size_t k = 0; k < n; ++k) {
            edge_[k] = clock + edge_[k];
          }
          break;
      }
      // Case 1 / "otherwise with finished n_m": the output already sits
      // on (or is in flight to) the target because of schedule S0.
      for (const auto& [r, when] : *input.arrivals) {
        if (r < slot_.size() && slot_[r] != kNoSlot) {
          edge_[slot_[r]] = when;
        }
      }
    } else {
      // Case 3 on n_m's own resource; otherwise the output follows the
      // (new) schedule with one transfer.
      for (std::size_t k = 0; k < n; ++k) {
        edge_[k] = targets_[k] == input.resource ? input.finish
                                                 : input.finish + edge_[k];
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      ready_[k] = std::max(ready_[k], edge_[k]);
    }
  }
}

sim::Time file_available(const RescheduleRequest& request,
                         std::size_t edge_index, grid::ResourceId target,
                         const Schedule& new_schedule) {
  const EdgeInput input =
      resolve_edge_input(request, edge_index, new_schedule);
  DataReadyRow row(request, std::span(&target, 1));
  row.fill(std::span(&input, 1));
  return row.value(0);
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
