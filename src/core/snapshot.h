// Execution snapshot: everything the Planner needs to know about the state
// of a partially executed workflow at rescheduling time `clock`.
//
// The snapshot realizes the paper's "execution status snapshot of S0"
// (Fig. 2 line 6): which jobs finished where and when (AFT), which jobs are
// running, and where every finished job's output files are available
// (feeding Eq. 1's FEA cases).
#ifndef AHEFT_CORE_SNAPSHOT_H_
#define AHEFT_CORE_SNAPSHOT_H_

#include <map>
#include <optional>
#include <vector>

#include "dag/dag.h"
#include "grid/resource.h"
#include "sim/time.h"

namespace aheft::core {

/// A finished job: actual start/finish and the resource it ran on.
struct FinishedInfo {
  grid::ResourceId resource = grid::kInvalidResource;
  sim::Time ast = sim::kTimeZero;  ///< actual start time
  sim::Time aft = sim::kTimeZero;  ///< actual finish time
};

/// A job that started but did not finish by `clock`.
struct RunningInfo {
  dag::JobId job = dag::kInvalidJob;
  grid::ResourceId resource = grid::kInvalidResource;
  sim::Time ast = sim::kTimeZero;
  /// Finish time the executor currently expects (actual duration; under the
  /// paper's accuracy assumption this equals the planner's SFT).
  sim::Time expected_finish = sim::kTimeZero;
};

/// Where the payload of each DAG edge is (or will be) available: for edge
/// e = (m, i), arrivals[e] maps resource -> earliest availability time of
/// n_m's output for n_i on that resource. Populated once the producer
/// finishes: its own resource at AFT, plus every target a transfer was
/// initiated to (at AFT + c). This is the ground truth behind FEA cases 1,
/// 2, and "otherwise".
using EdgeArrivals = std::vector<std::map<grid::ResourceId, sim::Time>>;

class ExecutionSnapshot {
 public:
  /// Snapshot of a workflow that has not started (clock 0, nothing done).
  static ExecutionSnapshot initial(std::size_t job_count,
                                   std::size_t edge_count);

  ExecutionSnapshot(sim::Time clock, std::size_t job_count,
                    std::size_t edge_count);
  /// A snapshot whose arrivals are `arrivals` as they stand (one map per
  /// edge, already holding the earliest time per resource).
  ExecutionSnapshot(sim::Time clock, std::size_t job_count,
                    EdgeArrivals arrivals);

  [[nodiscard]] sim::Time clock() const { return clock_; }

  void mark_finished(dag::JobId job, FinishedInfo info);
  void add_running(RunningInfo info);
  void record_arrival(std::size_t edge_index, grid::ResourceId resource,
                      sim::Time when);

  [[nodiscard]] bool finished(dag::JobId job) const;
  [[nodiscard]] const FinishedInfo& finished_info(dag::JobId job) const;
  [[nodiscard]] const std::vector<RunningInfo>& running() const {
    return running_;
  }

  [[nodiscard]] const std::map<grid::ResourceId, sim::Time>& arrivals(
      std::size_t edge_index) const;

  [[nodiscard]] std::size_t finished_count() const { return finished_count_; }
  [[nodiscard]] std::size_t job_count() const { return finished_.size(); }

 private:
  sim::Time clock_ = sim::kTimeZero;
  std::vector<std::optional<FinishedInfo>> finished_;
  std::vector<RunningInfo> running_;
  EdgeArrivals arrivals_;
  std::size_t finished_count_ = 0;
};

}  // namespace aheft::core

#endif  // AHEFT_CORE_SNAPSHOT_H_
