// The cost interface shared by the ground-truth machine model and every
// estimator.
//
// Schedulers plan against a CostProvider (the paper's performance
// estimation matrix P); the execution engine consumes the ground truth.
// Under the paper's accuracy assumption both are the same object; the
// inaccuracy ablation plugs in a noisy estimator instead.
#ifndef AHEFT_GRID_COST_PROVIDER_H_
#define AHEFT_GRID_COST_PROVIDER_H_

#include <span>

#include "dag/dag.h"
#include "grid/resource.h"

namespace aheft::grid {

class CostProvider {
 public:
  virtual ~CostProvider() = default;

  /// Computation cost w_{i,j} of job i on resource j.
  [[nodiscard]] virtual double compute_cost(dag::JobId job,
                                            ResourceId resource) const = 0;

  /// Communication cost of moving edge `e`'s payload from resource `from`
  /// to resource `to` (0 when from == to).
  [[nodiscard]] virtual double comm_cost(const dag::Edge& e, ResourceId from,
                                         ResourceId to) const = 0;

  /// comm_cost of edge `e` from `from` to every resource of `targets`:
  /// out[k] = comm_cost(e, from, targets[k]). One call prices a whole row
  /// of candidate resources; the default loops over comm_cost, and a
  /// provider whose cost does not depend on the target overrides it.
  virtual void comm_costs(const dag::Edge& e, ResourceId from,
                          std::span<const ResourceId> targets,
                          std::span<double> out) const;

  /// Average communication cost of the edge across distinct resource pairs
  /// (the \bar{c}_{i,j} of the upward-rank definition, Eq. 5).
  [[nodiscard]] virtual double mean_comm_cost(const dag::Edge& e) const = 0;

  /// Average computation cost of a job over a resource set (the \bar{w}_i
  /// of Eq. 5). Provided here so estimators can override consistently.
  [[nodiscard]] virtual double mean_compute_cost(
      dag::JobId job, std::span<const ResourceId> resources) const;
};

}  // namespace aheft::grid

#endif  // AHEFT_GRID_COST_PROVIDER_H_
