#include "exp/runner.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <string>
#include <thread>

#include "support/stopwatch.h"
#include "support/thread_pool.h"

namespace aheft::exp {

std::size_t sweep_workers(std::size_t threads, std::size_t cases) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  return std::min(threads, cases);
}

SweepOutcome run_sweep(std::vector<CaseSpec> specs, std::size_t threads,
                       bool progress) {
  SweepOutcome outcome;
  outcome.results.resize(specs.size());
  outcome.specs = std::move(specs);

  std::atomic<std::size_t> done{0};
  Stopwatch watch;
  const std::size_t total = outcome.specs.size();
  const std::size_t report_every = std::max<std::size_t>(1, total / 20);

  auto body = [&](std::size_t i) {
    outcome.results[i] = run_case(outcome.specs[i]);
    const std::size_t d = done.fetch_add(1) + 1;
    if (progress && d % report_every == 0) {
      // One write per line: worker threads share std::cerr unlocked.
      const std::string line =
          "  [sweep] " + std::to_string(d) + "/" + std::to_string(total) +
          " cases (" + std::to_string(static_cast<int>(watch.seconds())) +
          "s)\n";
      std::cerr << line;
    }
  };

  const std::size_t workers = sweep_workers(threads, total);
  if (workers <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      body(i);
    }
  } else {
    ThreadPool pool(workers);
    parallel_for(&pool, total, body);
  }
  return outcome;
}

}  // namespace aheft::exp
