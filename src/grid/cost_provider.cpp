#include "grid/cost_provider.h"

#include "support/assert.h"

namespace aheft::grid {

void CostProvider::comm_costs(const dag::Edge& e, ResourceId from,
                              std::span<const ResourceId> targets,
                              std::span<double> out) const {
  AHEFT_REQUIRE(out.size() == targets.size(),
                "comm_costs needs one output per target");
  for (std::size_t k = 0; k < targets.size(); ++k) {
    out[k] = comm_cost(e, from, targets[k]);
  }
}

double CostProvider::mean_compute_cost(
    dag::JobId job, std::span<const ResourceId> resources) const {
  AHEFT_REQUIRE(!resources.empty(), "mean over empty resource set");
  double total = 0.0;
  for (const ResourceId r : resources) {
    total += compute_cost(job, r);
  }
  return total / static_cast<double>(resources.size());
}

}  // namespace aheft::grid
