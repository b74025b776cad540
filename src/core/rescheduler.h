// AHEFT: the HEFT-based adaptive rescheduling algorithm (paper §3.4).
//
// One routine covers both uses in the paper:
//  * initial scheduling — clock 0, empty snapshot — where AHEFT "is
//    identical to HEFT [19]";
//  * rescheduling of the remaining jobs at clock > 0 with a partially
//    executed schedule S0, using Eq. 1 (FEA), Eq. 2 (EST) and Eq. 3 (EFT).
#ifndef AHEFT_CORE_RESCHEDULER_H_
#define AHEFT_CORE_RESCHEDULER_H_

#include <map>
#include <span>
#include <vector>

#include "core/policies.h"
#include "core/schedule.h"
#include "core/snapshot.h"
#include "dag/dag.h"
#include "grid/cost_provider.h"
#include "grid/resource_pool.h"

namespace aheft::core {

/// Inputs of one (re)scheduling pass: procedure schedule(S0, P, H) of the
/// paper's Fig. 3, where P is `estimates` over `resources` and S0 is
/// (`previous`, `snapshot`).
struct RescheduleRequest {
  const dag::Dag* dag = nullptr;
  const grid::CostProvider* estimates = nullptr;   ///< the matrix P
  const grid::ResourcePool* pool = nullptr;        ///< availability windows
  std::vector<grid::ResourceId> resources;         ///< visible set R at clock
  sim::Time clock = sim::kTimeZero;
  const ExecutionSnapshot* snapshot = nullptr;     ///< null => initial
  const Schedule* previous = nullptr;              ///< S0; null => initial
  SchedulerConfig config;
  /// Foreign machine load snapshotted from the session ledger (other
  /// workflows' committed windows and held claims): every EST search
  /// fits into the view's free gaps instead of assuming an empty grid.
  /// Null (the default) and an empty view are bit-identical to the
  /// historical contention-blind pass.
  const AvailabilityView* availability = nullptr;
  /// Re-pricing mode (requires `previous`): every unpinned job keeps the
  /// resource `previous` mapped it to and only its EST/EFT is
  /// recomputed — under `availability` when set. The contention-aware
  /// planner uses this to estimate "keep the current plan" and a fresh
  /// remap candidate against the same ledger snapshot, so the adoption
  /// comparison is like-for-like instead of fresh-candidate vs a
  /// prediction frozen under an older contention picture. A job whose
  /// kept resource became infeasible falls back to the full visible set.
  bool restrict_to_previous = false;
  /// When no visible machine can finish a job before its departure wall,
  /// plan the job anyway on the machine that survives the longest
  /// instead of failing the pass. Only meaningful under restart
  /// semantics (DepartureAction kFail/kRequeue): the executor treats the
  /// doomed slot as a failure the job does not foresee — it runs to the
  /// wall, salvages checkpointed progress, and requeues or fails the
  /// workflow as data. Off by default: a historical (kError) session
  /// must keep reporting infeasibility as an invariant violation.
  bool allow_infeasible = false;
};

/// Runs one AHEFT pass and returns the full-coverage schedule S1: finished
/// jobs keep their actual slots, running jobs are pinned or restarted per
/// the configured RunningJobPolicy, and all remaining jobs are mapped in
/// non-increasing upward-rank order onto the EFT-minimising resource.
/// S1.makespan() is therefore the predicted makespan of the whole workflow.
[[nodiscard]] Schedule aheft_schedule(const RescheduleRequest& request);

/// The producer side of Eq. 1 for one in-edge (m, i): everything FEA
/// needs that does not depend on the target resource. A pass resolves a
/// job's in-edges once, then evaluates them over its candidate resources.
struct EdgeInput {
  const dag::Edge* edge = nullptr;
  /// Where n_m ran (finished) or is placed in S1 (unfinished).
  grid::ResourceId resource = grid::kInvalidResource;
  /// AFT(n_m) when finished, else its SFT in S1.
  sim::Time finish = sim::kTimeZero;
  /// The snapshot's arrivals of this edge's payload when n_m finished;
  /// null when n_m is only placed in S1.
  const std::map<grid::ResourceId, sim::Time>* arrivals = nullptr;
};

/// Resolves in-edge `edge_index` against the snapshot and `new_schedule`
/// (the S1 under construction, which must already hold n_m unless n_m
/// finished in the snapshot).
[[nodiscard]] EdgeInput resolve_edge_input(const RescheduleRequest& request,
                                           std::size_t edge_index,
                                           const Schedule& new_schedule);

/// Eq. 1 by rows: the inner max of Eq. 2 — when all of a job's inputs are
/// present — for every resource of a fixed candidate list at once. Each
/// in-edge is priced with one CostProvider::comm_costs call over the
/// whole list, and its snapshot arrivals are walked once against it. The
/// row keeps its buffers, so a pass reuses one row for every job.
class DataReadyRow {
 public:
  /// `request` must outlive the row; `targets` must not repeat a
  /// resource.
  DataReadyRow(const RescheduleRequest& request,
               std::span<const grid::ResourceId> targets);

  /// Replaces the candidate list (the values are stale until fill).
  void retarget(std::span<const grid::ResourceId> targets);

  /// value(k) = max over `inputs`, in order, of FEA(input, targets[k]);
  /// kTimeZero for a job without inputs.
  void fill(std::span<const EdgeInput> inputs);

  [[nodiscard]] std::span<const grid::ResourceId> targets() const {
    return targets_;
  }
  [[nodiscard]] sim::Time value(std::size_t k) const { return ready_[k]; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  const RescheduleRequest& request_;
  std::vector<grid::ResourceId> targets_;
  std::vector<std::uint32_t> slot_;  ///< resource id -> k, or kNoSlot
  std::vector<double> edge_;         ///< one in-edge's FEA row
  std::vector<sim::Time> ready_;
};

/// The earliest time n_m's output can feed n_i on resource r (Eq. 1): the
/// one-target DataReadyRow of in-edge `edge_index`. Exposed for unit tests.
[[nodiscard]] sim::Time file_available(const RescheduleRequest& request,
                                       std::size_t edge_index,
                                       grid::ResourceId target,
                                       const Schedule& new_schedule);

}  // namespace aheft::core

#endif  // AHEFT_CORE_RESCHEDULER_H_
