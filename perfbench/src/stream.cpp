// stream_contended: serial shared sessions of 24 random-DAG workflows
// each, arriving from the `bursty` source under FCFS contention. Every
// stream runs once per strategy (HEFT, Min-Min, AHEFT) through
// core::run_workflow_stream on a worker pool the benchmark owns; a run
// passes over 48 seeded streams as often as its time allows. Streams
// differ in cost by about a quarter, so a pass takes many short ones: the
// cost of a pass then moves by under 4% from one seed to the next.
#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <numeric>
#include <optional>

#include "composed.h"
#include "core/workflow_stream.h"
#include "harness.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace perfbench {
namespace {

using namespace aheft;

constexpr core::StrategyKind kArms[] = {core::StrategyKind::kStaticHeft,
                                        core::StrategyKind::kDynamic,
                                        core::StrategyKind::kAdaptiveAheft};
constexpr const char* kArmNames[] = {"heft", "minmin", "aheft"};

exp::CaseSpec stream_spec(std::uint64_t seed, std::uint64_t stream,
                          bool small) {
  exp::CaseSpec spec;
  spec.app = exp::AppKind::kRandom;
  spec.size = small ? 16 : 40;
  spec.ccr = 1.0;
  spec.out_degree = 0.25;
  spec.dynamics = {8, 300.0, 0.2};
  spec.scenario_source = "bursty";
  spec.bursty.mean_calm = 400.0;
  spec.bursty.mean_burst = 120.0;
  spec.bursty.calm_arrival_mean = 500.0;
  spec.bursty.burst_arrival_mean = 60.0;
  spec.react_to_variance = true;
  spec.horizon_factor = 4.0;
  spec.stream_jobs = small ? 6 : 24;
  spec.stream_interarrival = 250.0;
  spec.contention_policy = "fcfs";
  spec.seed =
      mix64(mix64(seed, hash64("perfbench/stream_contended")), stream);
  return spec;
}

/// One stream's generated inputs. The session environment points into
/// the case environment, so the whole struct stays put once built.
struct StreamInputs {
  exp::CaseSpec spec;
  std::optional<exp::CaseEnvironment> env;
  exp::StreamSetup setup;
  core::SessionEnvironment session;
  core::StrategyConfig config;
};

std::unique_ptr<StreamInputs> make_stream(std::uint64_t seed,
                                          std::uint64_t stream, bool small) {
  auto inputs = std::make_unique<StreamInputs>();
  inputs->spec = stream_spec(seed, stream, small);
  inputs->env.emplace(exp::build_case_environment(inputs->spec));
  inputs->setup = exp::build_stream_setup(inputs->spec, *inputs->env);
  inputs->session = composed_session(inputs->spec, *inputs->env);
  inputs->config = composed_strategy(inputs->spec);
  return inputs;
}

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise equality of the simulated parts of two stream outcomes.
bool same_outcome(const core::StreamOutcome& a, const core::StreamOutcome& b) {
  if (a.workflows.size() != b.workflows.size() ||
      !same(a.mean_makespan, b.mean_makespan) ||
      !same(a.mean_wait, b.mean_wait) || !same(a.span, b.span)) {
    return false;
  }
  for (std::size_t i = 0; i < a.workflows.size(); ++i) {
    const core::WorkflowResult& x = a.workflows[i];
    const core::WorkflowResult& y = b.workflows[i];
    if (!same(x.finish, y.finish) || !same(x.slowdown, y.slowdown) ||
        !same(x.wait, y.wait) || x.outcome.failed != y.outcome.failed ||
        x.outcome.evaluations != y.outcome.evaluations ||
        x.outcome.adoptions != y.outcome.adoptions) {
      return false;
    }
  }
  return true;
}

/// The stream's contended session, composed by the benchmark: every
/// instance launched in (arrival, insertion) order into one session, as
/// run_workflow_stream does, without the solo baselines.
struct ComposedSession {
  std::vector<core::StrategyOutcome> outcomes;
  std::vector<unsigned char> done;
  std::uint64_t events = 0;
};

ComposedSession run_composed_session(
    const core::SessionEnvironment& env, core::StrategyKind kind,
    const core::StrategyConfig& config,
    const std::vector<core::WorkflowInstance>& instances) {
  std::vector<std::size_t> order(instances.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return instances[a].arrival < instances[b].arrival;
                   });
  const auto driver = core::make_strategy_driver(kind, config);
  core::SimulationSession session(env);
  ComposedSession run;
  run.outcomes.resize(instances.size());
  run.done.assign(instances.size(), 0);
  for (const std::size_t i : order) {
    const core::WorkflowInstance& instance = instances[i];
    driver->launch(session, *instance.dag, *instance.estimates,
                   *instance.actual,
                   core::LaunchOptions{instance.arrival, instance.priority},
                   [&run, i](const core::StrategyOutcome& outcome) {
                     run.outcomes[i] = outcome;
                     run.done[i] = 1;
                   });
  }
  session.run();
  run.events = session.executed_events();
  return run;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

WorkloadResult run_stream_contended(const Options& options) {
  WorkloadResult result;
  result.name = "stream_contended";
  result.op_name =
      "pass over the streams, each through all three strategy arms (timed "
      "per stream)";
  // One worker: the solo baselines run serially. With min(4, nproc)
  // workers the run-to-run spread of the stream's throughput on a shared
  // 4-vCPU VM was 45% against 13% with one (eight interleaved pairs of
  // 12 s runs), at about the same median; the contended session this
  // workload measures is serial either way.
  ThreadPool pool(1);

  // One arm of one stream through run_workflow_stream on the benchmark's
  // pool; throws what the stream throws.
  const auto run_arm_stream = [&](const StreamInputs& stream, std::size_t a) {
    const auto driver = core::make_strategy_driver(kArms[a], stream.config);
    core::StreamConfig config;
    config.workers = &pool;
    return core::run_workflow_stream(stream.session, *driver,
                                     stream.setup.instances, config);
  };

  // The run's streams, each with its own seed, are set up once before it
  // measures and again now and then; a repeated set-up must build the
  // same streams.
  const std::size_t stream_count = options.small ? 2 : 48;
  std::vector<std::unique_ptr<StreamInputs>> streams;
  HostProbe probe;
  SetupClock setup(probe, /*spacing_s=*/1.0);
  setup.time([&] {
    for (std::size_t k = 0; k < stream_count; ++k) {
      streams.push_back(make_stream(options.seed, k, options.small));
    }
  });
  std::size_t setup_mismatches = 0;
  const auto setup_again = [&] {
    for (std::size_t k = 0; k < stream_count; ++k) {
      const std::unique_ptr<StreamInputs> again =
          make_stream(options.seed, k, options.small);
      const auto& want = streams[k]->setup.instances;
      const auto& got = again->setup.instances;
      bool match = got.size() == want.size();
      for (std::size_t i = 0; match && i < got.size(); ++i) {
        match = same(got[i].arrival, want[i].arrival) &&
                got[i].dag->job_count() == want[i].dag->job_count();
      }
      setup_mismatches += match ? 0 : 1;
    }
  };

  RepeatTimes times(stream_count);
  double arm_s[3] = {0.0, 0.0, 0.0};  ///< CPU
  double plain_wall_s = 0.0;  ///< wall time of the untraced arms
  std::uint64_t pass_completed = 0;  ///< workflows completed in one pass
  std::uint64_t completed = 0;       ///< over every arm run
  std::vector<std::array<std::optional<core::StreamOutcome>, 3>> first(
      stream_count);
  std::size_t twin_mismatches = 0;

  Tracer tracer;
  double traced_arm_s[3] = {0.0, 0.0, 0.0};
  double session_s[3] = {0.0, 0.0, 0.0};
  std::uint64_t session_events[3] = {0, 0, 0};
  std::uint64_t traced_workflows = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t adoptions = 0;
  std::size_t traced_mismatches = 0;
  std::size_t composed_mismatches = 0;

  // Passes over the streams until the time is up. The first pass gives
  // the digest and the simulated metrics and always runs whole; every
  // later stream, and the traced arms, must reproduce it. After the first
  // pass the run stops at the deadline, between two streams (an untraced
  // run repeats one at least).
  std::uint64_t passes = 0;
  std::size_t repeats = 0;
  const Clock::time_point begin = Clock::now();
  for (bool done = false; !done; ++passes) {
    for (std::size_t k = 0; k < stream_count; ++k) {
      if (passes > 0 && (repeats > 0 || options.trace) &&
          seconds_since(begin) >= options.seconds) {
        done = true;
        break;
      }
      repeats += passes > 0 ? 1 : 0;
      const StreamInputs& stream = *streams[k];
      const std::size_t workflows = stream.setup.instances.size();
      std::optional<core::StreamOutcome> outcomes[3];
      double this_stream_s = 0.0;
      const Clock::time_point wall_start = Clock::now();
      for (std::size_t a = 0; a < 3; ++a) {
        result.attempted += workflows;
        probe.maybe();
        const double scale = probe.scale();
        const CpuClock::time_point start = CpuClock::now();
        try {
          outcomes[a] = run_arm_stream(stream, a);
          result.failed += outcomes[a]->failed_workflows;
          completed += outcomes[a]->completed_workflows;
          if (passes == 0) {
            pass_completed += outcomes[a]->completed_workflows;
          }
        } catch (const std::exception& error) {
          result.failed += workflows;
          result.check_failures.push_back(
              "stream " + std::to_string(k) + " " + kArmNames[a] +
              " arm threw: " + error.what());
        }
        const double took = cpu_seconds_since(start);
        this_stream_s += took * scale;
        arm_s[a] += took;
      }
      plain_wall_s += seconds_since(wall_start);
      times.add(k, this_stream_s);
      for (std::size_t a = 0; a < 3; ++a) {
        if (passes == 0) {
          first[k][a] = std::move(outcomes[a]);
        } else if (!outcomes[a].has_value() || !first[k][a].has_value() ||
                   !same_outcome(*outcomes[a], *first[k][a])) {
          ++twin_mismatches;
        }
      }
      setup.maybe(setup_again);
      if (!options.trace) {
        continue;
      }
      // The same stream again, each arm in a span, then each arm's
      // contended session composed by hand with its event count.
      const std::uint64_t item = passes * stream_count + k;
      traced_workflows += workflows;
      for (std::size_t a = 0; a < 3; ++a) {
        result.attempted += workflows;
        try {
          Tracer::Span span =
              tracer.span("core.stream.run_workflow_stream", item * 3 + a);
          const core::StreamOutcome traced = run_arm_stream(stream, a);
          traced_arm_s[a] += span.stop();
          result.failed += traced.failed_workflows;
          if (!first[k][a].has_value() ||
              !same_outcome(traced, *first[k][a])) {
            ++traced_mismatches;
          }
        } catch (const std::exception& error) {
          result.failed += workflows;
          result.check_failures.push_back(std::string("traced ") +
                                          kArmNames[a] +
                                          " arm threw: " + error.what());
        }
      }
      for (std::size_t a = 0; a < 3; ++a) {
        Tracer::Span span = tracer.span(
            a == 0 ? "core.session.heft"
                   : (a == 1 ? "core.session.minmin" : "core.session.aheft"),
            item * 3 + a);
        const ComposedSession run = run_composed_session(
            stream.session, kArms[a], stream.config, stream.setup.instances);
        session_s[a] += span.stop();
        session_events[a] += run.events;
        if (a == 2) {
          for (const core::StrategyOutcome& outcome : run.outcomes) {
            evaluations += outcome.evaluations;
            adoptions += outcome.adoptions;
          }
        }
        bool match = first[k][a].has_value();
        for (std::size_t i = 0; match && i < workflows; ++i) {
          const core::WorkflowResult& want = first[k][a]->workflows[i];
          match = run.done[i] != 0 &&
                  same(run.outcomes[i].makespan, want.finish) &&
                  run.outcomes[i].failed == want.outcome.failed;
        }
        if (!match) {
          ++composed_mismatches;
        }
      }
    }
  }

  result.check(twin_mismatches == 0,
               std::to_string(twin_mismatches) +
                   " repeated stream arms did not reproduce their first run");
  result.check(setup_mismatches == 0,
               std::to_string(setup_mismatches) +
                   " repeated set-ups built other streams");
  // Untimed: stream 0's arms, run on the benchmark's composed session,
  // equal the library's own exp::run_stream_strategy bit for bit, so the
  // composed session cannot drift from what exp runs.
  std::size_t library_mismatches = 0;
  for (std::size_t a = 0; a < 3; ++a) {
    try {
      const exp::StreamStrategySummary want = exp::run_stream_strategy(
          streams[0]->spec, *streams[0]->env, streams[0]->setup, kArms[a]);
      const std::optional<core::StreamOutcome>& got = first[0][a];
      bool match = got.has_value() &&
                   got->workflows.size() == want.makespans.size() &&
                   same(got->mean_makespan, want.mean_makespan) &&
                   same(got->mean_wait, want.mean_wait);
      for (std::size_t i = 0; match && i < want.makespans.size(); ++i) {
        const core::WorkflowResult& wf = got->workflows[i];
        match = same(wf.makespan, want.makespans[i]) &&
                same(wf.slowdown, want.slowdowns[i]) &&
                same(wf.wait, want.waits[i]);
      }
      library_mismatches += match ? 0 : 1;
    } catch (const std::exception&) {
      ++library_mismatches;
    }
  }
  result.check(library_mismatches == 0,
               std::to_string(library_mismatches) +
                   " of stream 0's arms differ from exp::run_stream_strategy");
  result.check(traced_mismatches == 0,
               std::to_string(traced_mismatches) +
                   " traced arms differ from their untraced run");
  result.check(composed_mismatches == 0,
               std::to_string(composed_mismatches) +
                   " composed sessions differ from run_workflow_stream");

  Digest digest;
  for (const auto& arms : first) {
    for (const std::optional<core::StreamOutcome>& outcome : arms) {
      if (!outcome.has_value()) {
        continue;
      }
      for (const core::WorkflowResult& wf : outcome->workflows) {
        digest.add(wf.finish);
        digest.add(wf.slowdown);
        digest.add(wf.wait);
        digest.add(static_cast<std::uint64_t>(wf.outcome.failed));
      }
      digest.add(outcome->mean_makespan);
      digest.add(outcome->mean_wait);
    }
  }
  result.digest = digest.hex();

  const auto first_mean = [&](std::size_t a,
                              double core::StreamOutcome::*field) {
    return first[0][a].has_value() ? (*first[0][a]).*field : 0.0;
  };
  const double runs = static_cast<double>(times.samples());
  result.setup_s = setup.median_seconds();
  result.setup_samples = setup.samples();
  // Gated: a pass over the streams at their median scaled times, as a
  // rate and as a time (the median single stream moves with which streams
  // the seed drew). Printed beside it: the mean over every stream run, as
  // measured.
  result.throughput_per_cpu_s =
      ratio(static_cast<double>(pass_completed), times.pass_seconds());
  result.op_cpu_ms_p50 = times.pass_seconds() * 1e3;
  result.op_samples = times.samples();
  result.named = {
      {"workflows_per_s", result.throughput_per_cpu_s, "1/s"},
      {"workflows_per_s_mean",
       ratio(static_cast<double>(completed), arm_s[0] + arm_s[1] + arm_s[2]),
       "1/s"},
      {"aheft_mean_makespan",
       first_mean(2, &core::StreamOutcome::mean_makespan), "sim"},
      {"aheft_mean_wait", first_mean(2, &core::StreamOutcome::mean_wait),
       "sim"},
      {"heft_mean_makespan",
       first_mean(0, &core::StreamOutcome::mean_makespan), "sim"},
      {"minmin_mean_makespan",
       first_mean(1, &core::StreamOutcome::mean_makespan), "sim"},
      {"heft_arm_ms", arm_s[0] * 1e3 / runs, "ms"},
      {"minmin_arm_ms", arm_s[1] * 1e3 / runs, "ms"},
      {"aheft_arm_ms", arm_s[2] * 1e3 / runs, "ms"},
      {"streams", static_cast<double>(stream_count), "count"},
      {"passes", static_cast<double>(passes), "count"},
      {"host_probe_ms", probe.median_ms(), "ms"},
      {"workflows_per_stream",
       static_cast<double>(streams[0]->setup.instances.size()), "count"},
  };

  if (options.trace) {
    const double wf = static_cast<double>(traced_workflows);
    const double evals = static_cast<double>(evaluations);
    result.layers = {
        {"core.stream.heft_ms_per_wf", ratio(traced_arm_s[0] * 1e3, wf)},
        {"core.stream.minmin_ms_per_wf", ratio(traced_arm_s[1] * 1e3, wf)},
        {"core.stream.aheft_ms_per_wf", ratio(traced_arm_s[2] * 1e3, wf)},
        {"core.session.heft_ns_per_event",
         ratio(session_s[0] * 1e9, static_cast<double>(session_events[0]))},
        {"core.session.minmin_ns_per_event",
         ratio(session_s[1] * 1e9, static_cast<double>(session_events[1]))},
        {"core.session.aheft_ns_per_event",
         ratio(session_s[2] * 1e9, static_cast<double>(session_events[2]))},
        {"core.rescheduler.us_per_eval",
         ratio((session_s[2] - session_s[0]) * 1e6, evals)},
        {"core.planner.evaluations", ratio(evals, wf)},
        {"core.planner.adoptions", ratio(static_cast<double>(adoptions), wf)},
        {"core.planner.adoption_ratio",
         ratio(static_cast<double>(adoptions), evals)},
        // The same run_workflow_stream calls, in spans and without.
        {"trace.overhead_pct",
         (ratio(traced_arm_s[0] + traced_arm_s[1] + traced_arm_s[2],
                plain_wall_s) -
          1.0) *
             100.0},
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
