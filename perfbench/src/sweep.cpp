// sweep_random: a seeded, strided sample of the §4.2 Table 2 random-DAG
// grid at default scale, each case through exp::run_case (HEFT + AHEFT)
// on one thread.
#include <bit>
#include <numeric>

#include "composed.h"
#include "core/heft.h"
#include "core/ranking.h"
#include "core/schedule.h"
#include "exp/sweeps.h"
#include "harness.h"
#include "support/rng.h"
#include "support/stats.h"

namespace perfbench {
namespace {

using namespace aheft;

/// What one case simulates; compared bit for bit between passes and
/// between the plain and the composed path.
struct CaseOutputs {
  double heft = 0.0;
  double aheft = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t jobs = 0;
  std::uint64_t universe = 0;

  bool operator==(const CaseOutputs& other) const {
    return std::bit_cast<std::uint64_t>(heft) ==
               std::bit_cast<std::uint64_t>(other.heft) &&
           std::bit_cast<std::uint64_t>(aheft) ==
               std::bit_cast<std::uint64_t>(other.aheft) &&
           evaluations == other.evaluations &&
           adoptions == other.adoptions && jobs == other.jobs &&
           universe == other.universe;
  }
};

/// The default-scale grid and a seeded walk over it. Case k is grid entry
/// (offset + k * stride) mod size, with the stride coprime with the size
/// and near size / golden ratio, so the walk visits distinct cases and any
/// prefix of it covers every grid axis evenly: however many cases a run
/// reaches, its mix of sizes, CCRs and pools stays the same.
struct SweepInputs {
  std::vector<exp::CaseSpec> grid;
  std::size_t offset = 0;
  std::size_t stride = 1;

  [[nodiscard]] std::size_t size() const { return grid.size(); }
  [[nodiscard]] const exp::CaseSpec& at(std::size_t k) const {
    return grid[(offset + k * stride) % grid.size()];
  }
};

SweepInputs make_inputs(std::uint64_t seed) {
  SweepInputs inputs;
  inputs.grid = exp::build_random_sweep(
      Scale::kDefault, mix64(seed, hash64("perfbench/sweep_random")),
      /*run_dynamic=*/false);
  const std::size_t size = inputs.grid.size();
  inputs.stride = static_cast<std::size_t>(static_cast<double>(size) * 0.618);
  while (std::gcd(inputs.stride, size) != 1) {
    ++inputs.stride;
  }
  inputs.offset = RngStream(seed).child("perfbench/sweep-walk").index(size);
  return inputs;
}

CaseOutputs run_plain(const exp::CaseSpec& spec) {
  const exp::CaseResult r = exp::run_case(spec);
  return {r.heft_makespan, r.aheft_makespan, r.evaluations, r.adoptions,
          r.jobs,          r.universe};
}

/// Layer work and time summed over the traced cases.
struct LayerTotals {
  std::uint64_t cases = 0;
  double env_s = 0.0;
  double rank_s = 0.0;
  double heft_s = 0.0;
  double heft_arm_s = 0.0;
  double aheft_arm_s = 0.0;
  std::uint64_t edges = 0;
  std::uint64_t edge_resources = 0;
  std::uint64_t heft_events = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t adoptions = 0;
  std::uint64_t heft_queries = 0;
  std::uint64_t aheft_queries = 0;
};

/// Plans the case's initial HEFT schedule from its environment and checks
/// it: validate_static, and equality with the environment's sizing plan.
/// Returns an empty string when the plan is valid.
std::string check_initial_plan(const exp::CaseEnvironment& env,
                               const core::Schedule& plan) {
  try {
    core::validate_static(plan, env.workload.dag, env.model,
                          env.scenario.pool);
  } catch (const std::exception& error) {
    return std::string("validate_static: ") + error.what();
  }
  if (std::bit_cast<std::uint64_t>(plan.makespan()) !=
      std::bit_cast<std::uint64_t>(env.heft_plan_makespan)) {
    return "initial HEFT plan differs from the environment's sizing plan";
  }
  return {};
}

/// The composed path: build_case_environment -> ranking -> HEFT ->
/// HEFT arm and AHEFT arm in sessions the benchmark builds, each call in
/// its own span. Reproduces exp::run_case's outputs.
CaseOutputs run_composed(const exp::CaseSpec& spec, std::uint64_t id,
                         Tracer& tracer, LayerTotals& totals,
                         std::string& problem) {
  const Tracer::Span case_span = tracer.span("exp.case", id);
  Tracer::Span env_span = tracer.span("exp.build_case_environment", id);
  const exp::CaseEnvironment env = exp::build_case_environment(spec);
  totals.env_s += env_span.stop();
  const dag::Dag& dag = env.workload.dag;
  const grid::ResourcePool& pool = env.scenario.pool;
  const std::vector<grid::ResourceId> visible = pool.available_at(0.0);
  {
    Tracer::Span span = tracer.span("core.ranking.upward_ranks", id);
    const std::vector<double> ranks =
        core::upward_ranks(dag, env.model, visible);
    totals.rank_s += span.stop();
    if (ranks.size() != dag.job_count()) {
      problem = "upward_ranks returned the wrong number of ranks";
    }
  }
  core::Schedule plan;
  {
    Tracer::Span span = tracer.span("core.heft.heft_schedule", id);
    plan = core::heft_schedule(dag, env.model, pool, spec.scheduler);
    totals.heft_s += span.stop();
  }
  if (problem.empty()) {
    problem = check_initial_plan(env, plan);
  }
  totals.edges += dag.edge_count();
  totals.edge_resources += dag.edge_count() * visible.size();

  const core::SessionEnvironment session = composed_session(spec, env);
  const core::StrategyConfig config = composed_strategy(spec);
  CountingCosts heft_costs(env.model);
  ArmRun heft;
  {
    Tracer::Span span = tracer.span("core.engine.heft_arm", id);
    heft = run_arm(core::StrategyKind::kStaticHeft, dag, heft_costs,
                   env.model, session, config);
    totals.heft_arm_s += span.stop();
  }
  CountingCosts aheft_costs(env.model);
  ArmRun aheft;
  {
    Tracer::Span span = tracer.span("core.planner.aheft_arm", id);
    aheft = run_arm(core::StrategyKind::kAdaptiveAheft, dag, aheft_costs,
                    env.model, session, config);
    totals.aheft_arm_s += span.stop();
  }
  if (problem.empty() && (!heft.completed || !aheft.completed)) {
    problem = "a strategy arm ended with its workflow unfinished";
  }
  const bool loaded = session.load != nullptr;
  if (problem.empty() && !loaded &&
      std::bit_cast<std::uint64_t>(heft.outcome.makespan) !=
          std::bit_cast<std::uint64_t>(env.heft_plan_makespan)) {
    problem = "simulated HEFT arm differs from its static plan";
  }
  ++totals.cases;
  totals.heft_events += heft.events;
  totals.evaluations += aheft.outcome.evaluations;
  totals.adoptions += aheft.outcome.adoptions;
  totals.heft_queries += heft_costs.queries();
  totals.aheft_queries += aheft_costs.queries();
  return {loaded ? heft.outcome.makespan : env.heft_plan_makespan,
          aheft.outcome.makespan,
          aheft.outcome.evaluations,
          aheft.outcome.adoptions,
          dag.job_count(),
          pool.universe_size()};
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

WorkloadResult run_sweep_random(const Options& options) {
  WorkloadResult result;
  result.name = "sweep_random";
  result.op_name = "case";
  // The first `block` cases of the walk are the run's sample: the first
  // pass over them gives the digest and the simulated metrics, and later
  // passes repeat them while time is left and must reproduce the first.
  // Case costs are heavy-tailed (the p99 case costs 20x the median), so
  // the sample is large: a pass then costs within a few percent from one
  // seed to the next.
  const std::size_t block = options.small ? 8 : 1200;

  SweepInputs inputs;
  HostProbe probe;
  SetupClock setup(probe, /*spacing_s=*/0.25);
  setup.time([&] { inputs = make_inputs(options.seed); });
  // A repeated set-up must walk the same grid.
  std::size_t setup_mismatches = 0;
  const auto setup_again = [&] {
    const SweepInputs again = make_inputs(options.seed);
    setup_mismatches += again.size() == inputs.size() &&
                                again.offset == inputs.offset &&
                                again.stride == inputs.stride &&
                                again.at(0).seed == inputs.at(0).seed
                            ? 0
                            : 1;
  };

  std::vector<CaseOutputs> outputs(block);
  std::vector<bool> ok(block, false);
  RepeatTimes times(block);
  std::vector<double> case_ms;  ///< as measured, unscaled
  std::size_t twin_mismatches = 0;
  const auto run_one = [&](std::size_t k, bool first) {
    ++result.attempted;
    probe.maybe();
    const CpuClock::time_point start = CpuClock::now();
    try {
      const CaseOutputs out = run_plain(inputs.at(k));
      const double took = cpu_seconds_since(start);
      times.add(k, took * probe.scale());
      case_ms.push_back(took * 1e3);
      if (first) {
        outputs[k] = out;
        ok[k] = true;
      } else if (!(ok[k] && out == outputs[k])) {
        ++twin_mismatches;
      }
    } catch (const std::exception& error) {
      ++result.failed;
      result.check_failures.push_back("case " + std::to_string(k) +
                                      " threw: " + error.what());
    }
  };

  Tracer tracer;
  LayerTotals totals;
  // The composed path also runs untraced on every traced case: the same
  // calls without spans, the reference for the tracing overhead.
  Tracer untraced(/*enabled=*/false);
  LayerTotals untraced_totals;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  std::size_t composed_mismatches = 0;
  const auto note_problem = [&](std::size_t k, const std::string& problem) {
    ++result.failed;
    result.check_failures.push_back("case " + std::to_string(k) + ": " +
                                    problem);
  };

  // Untraced: every case through exp::run_case. Traced: each case runs
  // plain first (the reference outputs), then through the composed path
  // untraced and traced, in alternating order.
  // The first pass always runs whole; after it the run stops at the
  // deadline, between two cases (an untraced run repeats one at least).
  std::size_t passes = 0;
  std::size_t repeats = 0;
  const Clock::time_point begin = Clock::now();
  for (bool done = false; !done; ++passes) {
    for (std::size_t k = 0; k < block; ++k) {
      if (passes > 0 && (repeats > 0 || options.trace) &&
          seconds_since(begin) >= options.seconds) {
        done = true;
        break;
      }
      repeats += passes > 0 ? 1 : 0;
      run_one(k, passes == 0);
      setup.maybe(setup_again);
      if (!options.trace) {
        continue;
      }
      for (std::size_t pass = 0; pass < 2; ++pass) {
        const bool traced = (pass == 0) == ((k + passes) % 2 == 0);
        ++result.attempted;
        const Clock::time_point start = Clock::now();
        std::string problem;
        try {
          const CaseOutputs out =
              run_composed(inputs.at(k), k, traced ? tracer : untraced,
                           traced ? totals : untraced_totals, problem);
          if (problem.empty() && !(ok[k] && out == outputs[k])) {
            ++composed_mismatches;
          }
        } catch (const std::exception& error) {
          problem = std::string("threw: ") + error.what();
        }
        (traced ? traced_s : untraced_s) += seconds_since(start);
        if (!problem.empty()) {
          note_problem(k, problem);
        }
      }
    }
  }

  // Untimed check (untraced; the composed path checks its own): every
  // case's initial HEFT plan validates.
  for (std::size_t k = 0; !options.trace && k < block; ++k) {
    try {
      const exp::CaseEnvironment env = exp::build_case_environment(inputs.at(k));
      const core::Schedule plan =
          core::heft_schedule(env.workload.dag, env.model, env.scenario.pool,
                              inputs.at(k).scheduler);
      const std::string problem = check_initial_plan(env, plan);
      if (!problem.empty()) {
        note_problem(k, problem);
      }
    } catch (const std::exception& error) {
      note_problem(k, std::string("plan check threw: ") + error.what());
    }
  }
  result.check(twin_mismatches == 0,
               std::to_string(twin_mismatches) +
                   " repeated cases did not reproduce their first run");
  result.check(composed_mismatches == 0,
               std::to_string(composed_mismatches) +
                   " composed-path cases differ from exp::run_case");
  result.check(setup_mismatches == 0,
               std::to_string(setup_mismatches) +
                   " repeated set-ups walked another grid");
  result.setup_s = setup.median_seconds();
  result.setup_samples = setup.samples();

  Digest digest;
  OnlineStats heft_makespan;
  OnlineStats aheft_makespan;
  for (std::size_t k = 0; k < block; ++k) {
    const CaseOutputs& out = outputs[k];
    digest.add(out.heft);
    digest.add(out.aheft);
    digest.add(out.evaluations);
    digest.add(out.adoptions);
    digest.add(out.jobs);
    digest.add(out.universe);
    if (ok[k]) {
      heft_makespan.add(out.heft);
      aheft_makespan.add(out.aheft);
    }
  }
  result.digest = digest.hex();

  // Gated: the block's cases at their median scaled times. Printed beside
  // them: every case run, as measured.
  result.throughput_per_cpu_s =
      ratio(static_cast<double>(block), times.pass_seconds());
  result.op_cpu_ms_p50 = times.item_seconds() * 1e3;
  result.op_samples = times.samples();
  result.named = {
      {"cases_per_s", result.throughput_per_cpu_s, "1/s"},
      {"cases_per_s_unscaled",
       ratio(static_cast<double>(case_ms.size()) * 1e3,
             std::accumulate(case_ms.begin(), case_ms.end(), 0.0)),
       "1/s"},
      {"case_ms_p50", median(case_ms), "ms"},
      {"case_ms_p99", percentile(case_ms, 99.0), "ms"},
      {"aheft_gain_pct",
       improvement_rate(heft_makespan.mean(), aheft_makespan.mean()) * 100.0,
       "%"},
      {"sample_cases", static_cast<double>(block), "count"},
      {"passes", static_cast<double>(passes), "count"},
      {"host_probe_ms", probe.median_ms(), "ms"},
  };

  if (options.trace) {
    const double evals = static_cast<double>(totals.evaluations);
    const double traced_cases = static_cast<double>(totals.cases);
    result.layers = {
        {"exp.env_build_us_per_case", ratio(totals.env_s * 1e6, traced_cases)},
        {"core.ranking.ns_per_edge",
         ratio(totals.rank_s * 1e9, static_cast<double>(totals.edges))},
        {"core.heft.ns_per_edge_resource",
         ratio(totals.heft_s * 1e9,
               static_cast<double>(totals.edge_resources))},
        {"core.engine.ns_per_event",
         ratio(totals.heft_arm_s * 1e9,
               static_cast<double>(totals.heft_events))},
        {"core.rescheduler.us_per_eval",
         ratio((totals.aheft_arm_s - totals.heft_arm_s) * 1e6, evals)},
        {"core.planner.evaluations", ratio(evals, traced_cases)},
        {"core.planner.adoptions",
         ratio(static_cast<double>(totals.adoptions), traced_cases)},
        {"core.planner.adoption_ratio",
         ratio(static_cast<double>(totals.adoptions), evals)},
        {"grid.cost_queries_per_eval",
         ratio(static_cast<double>(totals.aheft_queries) -
                   static_cast<double>(totals.heft_queries),
               evals)},
        {"trace.overhead_pct", (ratio(traced_s, untraced_s) - 1.0) * 100.0},
    };
    result.span_totals = tracer.totals();
    if (!options.spans_path.empty() &&
        !tracer.write(options.spans_path, result.name)) {
      result.check(false, "could not write spans to " + options.spans_path);
    }
  }
  return result;
}

}  // namespace perfbench
