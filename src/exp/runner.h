// Parallel sweep runner: executes a batch of cases on a thread pool with
// per-case deterministic seeding, so results are independent of thread
// count and scheduling order.
#ifndef AHEFT_EXP_RUNNER_H_
#define AHEFT_EXP_RUNNER_H_

#include <vector>

#include "exp/case.h"

namespace aheft::exp {

struct SweepOutcome {
  std::vector<CaseSpec> specs;
  std::vector<CaseResult> results;  ///< parallel to specs
};

/// Worker threads a sweep of `cases` cases starts for a `threads`
/// request (0 = hardware concurrency): never more than it has cases.
[[nodiscard]] std::size_t sweep_workers(std::size_t threads,
                                        std::size_t cases);

/// Runs every case on sweep_workers(threads, cases) threads; one or
/// fewer runs inline.
/// Prints coarse progress to stderr when `progress` is true.
[[nodiscard]] SweepOutcome run_sweep(std::vector<CaseSpec> specs,
                                     std::size_t threads = 0,
                                     bool progress = false);

}  // namespace aheft::exp

#endif  // AHEFT_EXP_RUNNER_H_
