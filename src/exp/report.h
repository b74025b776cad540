// Aggregation and reporting helpers shared by the bench binaries.
#ifndef AHEFT_EXP_REPORT_H_
#define AHEFT_EXP_REPORT_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "support/stats.h"

namespace aheft::exp {

/// Accumulated strategy makespans for one group of cases.
struct GroupStats {
  OnlineStats heft;
  OnlineStats aheft;
  OnlineStats minmin;
  OnlineStats adoptions;

  /// The paper's improvement rate: relative reduction of the average
  /// makespan, (avg HEFT - avg AHEFT) / avg HEFT.
  [[nodiscard]] double improvement() const {
    return improvement_rate(heft.mean(), aheft.mean());
  }
};

/// Groups case results by a numeric key (e.g. CCR or job count).
[[nodiscard]] std::map<double, GroupStats> group_by(
    const SweepOutcome& outcome,
    const std::function<double(const CaseSpec&)>& key);

/// Collapses the whole sweep into a single group.
[[nodiscard]] GroupStats overall(const SweepOutcome& outcome);

/// Writes one CSV row per case (spec fields + makespans) to `path`: every
/// case of every outcome, in order, under a single header.
void dump_csv(const std::vector<const SweepOutcome*>& outcomes,
              const std::string& path);

}  // namespace aheft::exp

#endif  // AHEFT_EXP_REPORT_H_
