// Experiment-harness tests: case execution, determinism, sweep building,
// aggregation, CSV dumps.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/case.h"
#include "exp/paper_params.h"
#include "exp/report.h"
#include "exp/runner.h"
#include "exp/sweeps.h"

namespace aheft::exp {
namespace {

CaseSpec small_spec(std::uint64_t seed) {
  CaseSpec spec;
  spec.app = AppKind::kRandom;
  spec.size = 25;
  spec.ccr = 1.0;
  spec.out_degree = 0.3;
  spec.beta = 0.5;
  spec.dynamics = {5, 150.0, 0.2};
  spec.seed = seed;
  return spec;
}

TEST(Case, AheftNeverWorseThanHeft) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const CaseResult result = run_case(small_spec(seed));
    EXPECT_GT(result.heft_makespan, 0.0);
    EXPECT_LE(result.aheft_makespan, result.heft_makespan + 1e-6)
        << "seed " << seed;
    EXPECT_EQ(result.jobs, 25u);
    EXPECT_GE(result.universe, 5u);
  }
}

TEST(Case, DeterministicAcrossRuns) {
  const CaseResult a = run_case(small_spec(42));
  const CaseResult b = run_case(small_spec(42));
  EXPECT_DOUBLE_EQ(a.heft_makespan, b.heft_makespan);
  EXPECT_DOUBLE_EQ(a.aheft_makespan, b.aheft_makespan);
  EXPECT_EQ(a.adoptions, b.adoptions);
}

TEST(Case, DynamicBaselineRunsWhenRequested) {
  CaseSpec spec = small_spec(7);
  spec.run_dynamic = true;
  spec.horizon_factor = 4.0;
  const CaseResult result = run_case(spec);
  EXPECT_GT(result.minmin_makespan, 0.0);

  CaseSpec no_dynamic = small_spec(7);
  const CaseResult without = run_case(no_dynamic);
  EXPECT_DOUBLE_EQ(without.minmin_makespan, 0.0);
}

TEST(Case, AppKindsAreRunnable) {
  for (const AppKind app :
       {AppKind::kBlast, AppKind::kWien2k, AppKind::kMontage,
        AppKind::kGaussian}) {
    CaseSpec spec = small_spec(11);
    spec.app = app;
    spec.size = 10;
    const CaseResult result = run_case(spec);
    EXPECT_GT(result.heft_makespan, 0.0) << to_string(app);
    EXPECT_LE(result.aheft_makespan, result.heft_makespan + 1e-6);
  }
}

TEST(Case, ToStringCoversAllApps) {
  EXPECT_EQ(to_string(AppKind::kRandom), "random");
  EXPECT_EQ(to_string(AppKind::kBlast), "blast");
  EXPECT_EQ(to_string(AppKind::kWien2k), "wien2k");
  EXPECT_EQ(to_string(AppKind::kMontage), "montage");
  EXPECT_EQ(to_string(AppKind::kGaussian), "gaussian");
}

TEST(Runner, ThreadCountDoesNotChangeResults) {
  std::vector<CaseSpec> specs;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    specs.push_back(small_spec(s));
  }
  const SweepOutcome serial = run_sweep(specs, 1);
  const SweepOutcome parallel = run_sweep(specs, 4);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.results[i].heft_makespan,
                     parallel.results[i].heft_makespan);
    EXPECT_DOUBLE_EQ(serial.results[i].aheft_makespan,
                     parallel.results[i].aheft_makespan);
  }
}

TEST(Runner, NeverStartsMoreWorkersThanCases) {
  // Worker counts are checked without starting any threads.
  EXPECT_EQ(sweep_workers(64, 3), 3u);
  EXPECT_EQ(sweep_workers(2, 3), 2u);
  EXPECT_EQ(sweep_workers(4, 0), 0u);
  EXPECT_GE(sweep_workers(0, 3), 1u);
  EXPECT_LE(sweep_workers(0, 3), 3u);
  // Asking for more threads than cases still runs every case once.
  const SweepOutcome outcome = run_sweep({small_spec(1), small_spec(2)}, 6);
  const SweepOutcome serial = run_sweep({small_spec(1), small_spec(2)}, 1);
  ASSERT_EQ(outcome.results.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(outcome.results[i].aheft_makespan,
              serial.results[i].aheft_makespan);
  }
}

TEST(Report, GroupByAndOverall) {
  std::vector<CaseSpec> specs;
  for (const double ccr : {0.5, 5.0}) {
    for (std::uint64_t s = 1; s <= 3; ++s) {
      CaseSpec spec = small_spec(s);
      spec.ccr = ccr;
      specs.push_back(spec);
    }
  }
  const SweepOutcome outcome = run_sweep(specs, 2);
  const auto groups =
      group_by(outcome, [](const CaseSpec& s) { return s.ccr; });
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups.at(0.5).heft.count(), 3u);
  EXPECT_EQ(groups.at(5.0).aheft.count(), 3u);
  const GroupStats total = overall(outcome);
  EXPECT_EQ(total.heft.count(), 6u);
  // Improvement rate is consistent with the accumulated means.
  EXPECT_NEAR(total.improvement(),
              (total.heft.mean() - total.aheft.mean()) / total.heft.mean(),
              1e-12);
  EXPECT_GE(total.improvement(), -1e-9);
}

TEST(Report, DumpCsvWritesOneRowPerCase) {
  // Two sweeps into one file: one header, then every case of both, in
  // order (a bench that runs several sweeps keeps all of them).
  const SweepOutcome first = run_sweep({small_spec(1), small_spec(2)}, 1);
  const SweepOutcome second = run_sweep({small_spec(3)}, 1);
  const std::string path = ::testing::TempDir() + "/sweep.csv";
  dump_csv({&first, &second}, path);
  std::ifstream in(path);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);  // header + 3 cases
  EXPECT_EQ(lines[0].rfind("app,", 0), 0u);
  const std::vector<std::string> seeds{"1", "2", "3"};
  for (std::size_t row = 0; row < seeds.size(); ++row) {
    // Column 9 is the case seed.
    std::stringstream cells(lines[row + 1]);
    std::string cell;
    for (int column = 0; column < 9; ++column) {
      std::getline(cells, cell, ',');
    }
    EXPECT_EQ(cell, seeds[row]) << lines[row + 1];
  }
}

TEST(Sweeps, CaseSeedIsStableAndSensitive) {
  const CaseSpec a = small_spec(0);
  CaseSpec b = a;
  EXPECT_EQ(case_seed(1, a, 0), case_seed(1, b, 0));
  b.ccr = 2.0;
  EXPECT_NE(case_seed(1, a, 0), case_seed(1, b, 0));
  EXPECT_NE(case_seed(1, a, 0), case_seed(1, a, 1));
  EXPECT_NE(case_seed(1, a, 0), case_seed(2, a, 0));
  // Resource dynamics do NOT enter the seed: the same DAG instance is
  // paired with every resource model, as in the paper's design.
  CaseSpec c = a;
  c.dynamics = {40, 1600.0, 0.25};
  EXPECT_EQ(case_seed(1, a, 0), case_seed(1, c, 0));
}

TEST(Sweeps, RandomSweepSizesPerScale) {
  const auto smoke = build_random_sweep(Scale::kSmoke, 1, false);
  EXPECT_EQ(smoke.size(), 2u * 2u * 1u * 1u * 1u * 1u * 1u);
  const auto def = build_random_sweep(Scale::kDefault, 1, false);
  EXPECT_EQ(def.size(), 625u * 3u * 2u * 2u);  // types x thinned models
  const auto paper = build_random_sweep(Scale::kPaper, 1, false);
  EXPECT_EQ(paper.size(), 500000u);  // the paper's case count
}

TEST(Sweeps, AppSweepCoversParallelismCcrAndPool) {
  const auto specs = build_app_sweep(AppKind::kBlast, Scale::kDefault, 1);
  EXPECT_EQ(specs.size(), 5u * 5u * 5u * 2u);  // N x CCR x R x instances
  bool seen_n1000 = false;
  for (const CaseSpec& spec : specs) {
    EXPECT_EQ(spec.app, AppKind::kBlast);
    seen_n1000 |= spec.size == 1000;
  }
  EXPECT_TRUE(seen_n1000);
  EXPECT_THROW(build_app_sweep(AppKind::kRandom, Scale::kDefault, 1),
               std::invalid_argument);
}

TEST(Sweeps, Fig8SweepVariesExactlyOneAxis) {
  for (const SweepAxis axis :
       {SweepAxis::kCcr, SweepAxis::kBeta, SweepAxis::kJobs, SweepAxis::kPool,
        SweepAxis::kInterval, SweepAxis::kFraction}) {
    const auto specs =
        build_fig8_sweep(AppKind::kWien2k, axis, Scale::kSmoke, 1);
    ASSERT_FALSE(specs.empty());
    std::set<double> values;
    for (const CaseSpec& spec : specs) {
      values.insert(axis_value(axis, spec));
      if (axis != SweepAxis::kCcr) {
        EXPECT_DOUBLE_EQ(spec.ccr, kBaseCcr);
      }
      if (axis != SweepAxis::kBeta) {
        EXPECT_DOUBLE_EQ(spec.beta, kBaseBeta);
      }
    }
    EXPECT_GE(values.size(), 4u) << to_string(axis);
  }
}

TEST(Sweeps, SeedsDifferAcrossWorkloadsButPairAcrossModels) {
  const auto specs = build_app_sweep(AppKind::kBlast, Scale::kDefault, 7);
  std::set<std::uint64_t> seeds;
  for (const CaseSpec& spec : specs) {
    seeds.insert(spec.seed);
  }
  // 5 N x 5 CCR x 2 instances distinct workloads, each paired with every
  // pool size (5), so distinct seeds = cases / pools.
  EXPECT_EQ(seeds.size(), specs.size() / 5u);
}

}  // namespace
}  // namespace aheft::exp
