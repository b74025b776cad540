#include "core/snapshot.h"

#include <utility>

#include "support/assert.h"

namespace aheft::core {

ExecutionSnapshot ExecutionSnapshot::initial(std::size_t job_count,
                                             std::size_t edge_count) {
  return ExecutionSnapshot(sim::kTimeZero, job_count, edge_count);
}

ExecutionSnapshot::ExecutionSnapshot(sim::Time clock, std::size_t job_count,
                                     std::size_t edge_count)
    : clock_(clock), finished_(job_count), arrivals_(edge_count) {
  AHEFT_REQUIRE(clock >= 0.0, "clock must be non-negative");
}

ExecutionSnapshot::ExecutionSnapshot(sim::Time clock, std::size_t job_count,
                                     EdgeArrivals arrivals)
    : clock_(clock), finished_(job_count), arrivals_(std::move(arrivals)) {
  AHEFT_REQUIRE(clock >= 0.0, "clock must be non-negative");
}

void ExecutionSnapshot::mark_finished(dag::JobId job, FinishedInfo info) {
  AHEFT_REQUIRE(job < finished_.size(), "job id out of range");
  AHEFT_REQUIRE(!finished_[job].has_value(), "job finished twice");
  AHEFT_REQUIRE(sim::time_le(info.aft, clock_),
                "job finished in the snapshot's future");
  finished_[job] = info;
  ++finished_count_;
}

void ExecutionSnapshot::add_running(RunningInfo info) {
  AHEFT_REQUIRE(info.job < finished_.size(), "job id out of range");
  AHEFT_REQUIRE(!finished(info.job), "running job already finished");
  running_.push_back(info);
}

void ExecutionSnapshot::record_arrival(std::size_t edge_index,
                                       grid::ResourceId resource,
                                       sim::Time when) {
  AHEFT_REQUIRE(edge_index < arrivals_.size(), "edge index out of range");
  auto& per_edge = arrivals_[edge_index];
  const auto it = per_edge.find(resource);
  if (it == per_edge.end() || when < it->second) {
    per_edge[resource] = when;
  }
}

bool ExecutionSnapshot::finished(dag::JobId job) const {
  AHEFT_REQUIRE(job < finished_.size(), "job id out of range");
  return finished_[job].has_value();
}

const FinishedInfo& ExecutionSnapshot::finished_info(dag::JobId job) const {
  AHEFT_REQUIRE(finished(job), "job has not finished");
  return *finished_[job];
}

const std::map<grid::ResourceId, sim::Time>& ExecutionSnapshot::arrivals(
    std::size_t edge_index) const {
  AHEFT_REQUIRE(edge_index < arrivals_.size(), "edge index out of range");
  return arrivals_[edge_index];
}

}  // namespace aheft::core
