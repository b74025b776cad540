#include "exp/report.h"

#include "support/assert.h"
#include "support/csv.h"

namespace aheft::exp {

namespace {

void accumulate(GroupStats& stats, const CaseResult& result) {
  stats.heft.add(result.heft_makespan);
  stats.aheft.add(result.aheft_makespan);
  if (result.minmin_makespan > 0.0) {
    stats.minmin.add(result.minmin_makespan);
  }
  stats.adoptions.add(static_cast<double>(result.adoptions));
}

}  // namespace

std::map<double, GroupStats> group_by(
    const SweepOutcome& outcome,
    const std::function<double(const CaseSpec&)>& key) {
  AHEFT_REQUIRE(outcome.specs.size() == outcome.results.size(),
                "malformed sweep outcome");
  std::map<double, GroupStats> groups;
  for (std::size_t i = 0; i < outcome.specs.size(); ++i) {
    accumulate(groups[key(outcome.specs[i])], outcome.results[i]);
  }
  return groups;
}

GroupStats overall(const SweepOutcome& outcome) {
  GroupStats stats;
  for (const CaseResult& result : outcome.results) {
    accumulate(stats, result);
  }
  return stats;
}

void dump_csv(const std::vector<const SweepOutcome*>& outcomes,
              const std::string& path) {
  CsvWriter csv(path,
                {"app", "size", "ccr", "out_degree", "beta", "pool", "interval",
                 "fraction", "seed", "jobs", "universe", "heft", "aheft",
                 "minmin", "evaluations", "adoptions"});
  for (const SweepOutcome* outcome : outcomes) {
    for (std::size_t i = 0; i < outcome->specs.size(); ++i) {
      const CaseSpec& s = outcome->specs[i];
      const CaseResult& r = outcome->results[i];
      csv.write_row({to_string(s.app), std::to_string(s.size),
                     std::to_string(s.ccr), std::to_string(s.out_degree),
                     std::to_string(s.beta),
                     std::to_string(s.dynamics.initial),
                     std::to_string(s.dynamics.interval),
                     std::to_string(s.dynamics.fraction),
                     std::to_string(s.seed), std::to_string(r.jobs),
                     std::to_string(r.universe),
                     std::to_string(r.heft_makespan),
                     std::to_string(r.aheft_makespan),
                     std::to_string(r.minmin_makespan),
                     std::to_string(r.evaluations),
                     std::to_string(r.adoptions)});
    }
  }
}

}  // namespace aheft::exp
