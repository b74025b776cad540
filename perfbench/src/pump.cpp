// pump_sharded: 256 dedicated-machine chain workflows with precomputed
// plans, driven straight into ExecutionEngines on four shards with the
// trace and history sinks on and an adaptive epoch width. No planner runs
// and no two workflows share a machine, so the engine pump, the event
// queue, the epoch barrier and the sink merge carry the work. (At 2048
// workflows the pump's working set leaves the caches, and its time swung
// with the host's memory load by more than any probe could follow.)
//
// The timed pumps drain their shards inline on the calling thread, so the
// gated CPU time is the pump's own work, not the scheduling of threads on
// a shared host; the traced run adds the same pump fanned out on
// min(4, nproc) workers for the shard efficiency.
#include <bit>
#include <memory>
#include <string>
#include <vector>

#include "core/execution_engine.h"
#include "core/schedule.h"
#include "core/session.h"
#include "dag/dag.h"
#include "grid/history.h"
#include "grid/machine_model.h"
#include "grid/resource_pool.h"
#include "harness.h"
#include "sim/trace.h"
#include "support/rng.h"
#include "support/thread_pool.h"

namespace perfbench {
namespace {

using namespace aheft;

constexpr std::size_t kMinChain = 8;
constexpr std::size_t kMaxChain = 24;

/// The generated inputs: one machine per workflow, one chain DAG per
/// chain length, one cost model over every (job, machine), and each
/// workflow's plan on its own machine.
struct PumpInputs {
  grid::ResourcePool pool;
  std::vector<dag::Dag> chains;  ///< chains[k] has kMinChain + k jobs
  std::unique_ptr<grid::MachineModel> model;
  std::vector<std::size_t> chain_of;  ///< per workflow, index into chains
  std::vector<core::Schedule> plans;
};

PumpInputs make_inputs(std::uint64_t seed, std::size_t workflows) {
  RngStream rng = RngStream(seed).child("perfbench/pump_sharded");
  PumpInputs inputs;
  // Names built by append: GCC 12 misreports `"literal" + std::string`
  // under -O2 as an overlapping memcpy (-Wrestrict).
  const auto named = [](const char* prefix, std::size_t n) {
    std::string name(prefix);
    name.append(std::to_string(n));
    return name;
  };
  for (std::size_t w = 0; w < workflows; ++w) {
    inputs.pool.add(grid::Resource{.name = named("m", w)});
  }
  for (std::size_t jobs = kMinChain; jobs <= kMaxChain; ++jobs) {
    dag::Dag chain(named("chain", jobs));
    for (std::size_t i = 0; i < jobs; ++i) {
      chain.add_job(named("j", i));
      if (i > 0) {
        chain.add_edge(static_cast<dag::JobId>(i - 1),
                       static_cast<dag::JobId>(i), 0.0);
      }
    }
    chain.finalize();
    inputs.chains.push_back(std::move(chain));
  }
  inputs.model = std::make_unique<grid::MachineModel>(kMaxChain, workflows);
  for (dag::JobId i = 0; i < kMaxChain; ++i) {
    for (std::size_t r = 0; r < workflows; ++r) {
      // Run times on a 0.25 grid: many events share a time, so each
      // epoch carries a batch of work across every shard.
      inputs.model->set_compute_cost(
          i, static_cast<grid::ResourceId>(r),
          0.25 * static_cast<double>(rng.uniform_int(2, 6)));
    }
  }
  for (std::size_t w = 0; w < workflows; ++w) {
    const std::size_t k = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kMaxChain - kMinChain)));
    inputs.chain_of.push_back(k);
    const std::size_t jobs = kMinChain + k;
    const auto machine = static_cast<grid::ResourceId>(w);
    core::Schedule plan(jobs);
    sim::Time clock = 0.0;
    for (dag::JobId i = 0; i < jobs; ++i) {
      const sim::Time end = clock + inputs.model->compute_cost(i, machine);
      plan.assign(core::Assignment{i, machine, clock, end});
      clock = end;
    }
    inputs.plans.push_back(std::move(plan));
  }
  return inputs;
}

struct PumpRun {
  double submit_s = 0.0;  ///< wall
  double run_s = 0.0;     ///< wall
  double cpu_s = 0.0;     ///< submit + run, process CPU time
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t staged_messages = 0;
  std::size_t staging_high_water = 0;
  std::size_t shards = 0;
  std::uint64_t records = 0;  ///< trace intervals + history observations
  std::size_t unfinished = 0;
  std::string digest;
};

/// One pump: a fresh session, every engine built and submitted on its
/// machine's home shard, then the run. Submit and run are timed apart;
/// a null `workers` drains the shards inline.
PumpRun pump(const PumpInputs& inputs, std::size_t shards, ThreadPool* workers,
             bool sinks) {
  sim::TraceRecorder trace;
  grid::PerformanceHistoryRepository history;
  core::SessionEnvironment env;
  env.pool = &inputs.pool;
  env.shards = shards;
  env.shard_workers = shards > 1 ? workers : nullptr;
  env.epoch = sim::EpochConfig{0.0, true, sim::kTimeInfinity};
  if (sinks) {
    env.trace = &trace;
    env.history = &history;
  }
  PumpRun run;
  std::vector<std::unique_ptr<core::ExecutionEngine>> engines;
  engines.reserve(inputs.plans.size());
  {
    core::SimulationSession session(env);
    const CpuClock::time_point cpu_start = CpuClock::now();
    const Clock::time_point submit_start = Clock::now();
    for (std::size_t w = 0; w < inputs.plans.size(); ++w) {
      const auto machine = static_cast<grid::ResourceId>(w);
      const auto binding = session.bind_shard(session.shard_of(machine));
      const dag::Dag& chain = inputs.chains[inputs.chain_of[w]];
      engines.push_back(std::make_unique<core::ExecutionEngine>(
          session, chain, *inputs.model));
      if (sinks) {
        engines.back()->set_completion_hook(
            [&session, &chain](dag::JobId job, grid::ResourceId resource,
                               sim::Time start, sim::Time end) {
              session.history()->record(chain.job(job).operation, resource,
                                       end - start);
            });
      }
      engines.back()->submit(inputs.plans[w]);
    }
    run.submit_s = seconds_since(submit_start);
    const Clock::time_point run_start = Clock::now();
    session.run();
    run.run_s = seconds_since(run_start);
    run.cpu_s = cpu_seconds_since(cpu_start);
    run.events = session.executed_events();
    run.epochs = session.sharded().epochs();
    run.staged_messages = session.sharded().staged_messages();
    run.staging_high_water = session.sharded().staging_high_water();
    run.shards = session.shard_count();
    Digest digest;
    for (const auto& engine : engines) {
      if (!engine->finished()) {
        ++run.unfinished;
      }
      digest.add(engine->makespan());
    }
    digest.add(run.events);
    for (const sim::TraceInterval& interval : trace.intervals()) {
      digest.add(static_cast<std::uint64_t>(interval.kind));
      digest.add(static_cast<std::uint64_t>(interval.job));
      digest.add(static_cast<std::uint64_t>(interval.resource));
      digest.add(interval.start);
      digest.add(interval.end);
    }
    for (const auto& observation : history.snapshot()) {
      digest.add(observation.operation);
      digest.add(static_cast<std::uint64_t>(observation.resource));
      digest.add(observation.smoothed);
      digest.add(static_cast<std::uint64_t>(observation.count));
    }
    run.records = trace.intervals().size() + history.total_observations();
    run.digest = digest.hex();
    engines.clear();  // the engines go before the session they joined
  }
  return run;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

WorkloadResult run_pump_sharded(const Options& options) {
  WorkloadResult result;
  result.name = "pump_sharded";
  result.op_name = "pump of every workflow";
  const std::size_t workflows = options.small ? 48 : 256;
  constexpr std::size_t kShards = 4;

  PumpInputs inputs;
  HostProbe probe;
  SetupClock setup(probe, /*spacing_s=*/0.1);
  setup.time([&] { inputs = make_inputs(options.seed, workflows); });
  // A repeated set-up must plan the same workflows.
  std::size_t setup_mismatches = 0;
  const auto setup_again = [&] {
    const PumpInputs again = make_inputs(options.seed, workflows);
    bool same = again.plans.size() == inputs.plans.size() &&
                again.chain_of == inputs.chain_of;
    for (std::size_t w = 0; same && w < again.plans.size(); ++w) {
      same = std::bit_cast<std::uint64_t>(again.plans[w].makespan()) ==
             std::bit_cast<std::uint64_t>(inputs.plans[w].makespan());
    }
    setup_mismatches += same ? 0 : 1;
  };
  ThreadPool workers(options.threads);

  std::string reference;
  std::string parallel_reference;
  std::size_t twin_mismatches = 0;
  RepeatTimes times(1);
  double plain_s = 0.0;
  std::uint64_t events = 0;

  // Counts one pump's workflows and checks its digest against the first.
  const auto account = [&](const PumpRun& run, std::string& first) {
    result.attempted += workflows;
    result.failed += run.unfinished;
    if (first.empty()) {
      first = run.digest;
    } else if (run.digest != first) {
      ++twin_mismatches;
    }
  };

  Tracer tracer;
  double traced_s = 0.0;
  double traced_plain_s = 0.0;
  double serial_s = 0.0;
  std::uint64_t serial_events = 0;
  double parallel_s = 0.0;
  double sinks_off_s = 0.0;
  double sinks_on_s = 0.0;
  std::uint64_t records = 0;
  double submit_s = 0.0;
  PumpRun last_traced;
  std::uint64_t round = 0;

  const Clock::time_point begin = Clock::now();
  do {
    probe.maybe();
    const PumpRun run = pump(inputs, kShards, nullptr, /*sinks=*/true);
    account(run, reference);
    times.add(0, run.cpu_s * probe.scale());
    plain_s += run.cpu_s;
    events += run.events;
    if (options.trace) {
      traced_plain_s += run.submit_s + run.run_s;
      {
        Tracer::Span span = tracer.span("sim.pump.serial", round);
        const PumpRun serial = pump(inputs, 1, nullptr, true);
        span.stop();
        serial_s += serial.submit_s + serial.run_s;
        serial_events += serial.events;
        result.attempted += workflows;
        result.failed += serial.unfinished;
      }
      {
        Tracer::Span span = tracer.span("sim.pump.sinks_off", round);
        const PumpRun off = pump(inputs, kShards, nullptr, false);
        span.stop();
        sinks_off_s += off.run_s;
        result.attempted += workflows;
        result.failed += off.unfinished;
      }
      {
        Tracer::Span span = tracer.span("sim.pump.parallel", round);
        const PumpRun parallel = pump(inputs, kShards, &workers, true);
        span.stop();
        parallel_s += parallel.submit_s + parallel.run_s;
        account(parallel, parallel_reference);
      }
      {
        Tracer::Span span = tracer.span("sim.pump.sharded", round);
        last_traced = pump(inputs, kShards, nullptr, true);
      }
      traced_s += last_traced.submit_s + last_traced.run_s;
      account(last_traced, reference);
      sinks_on_s += last_traced.run_s;
      submit_s += last_traced.submit_s;
      records += last_traced.records;
    }
    setup.maybe(setup_again);
    ++round;
  } while (seconds_since(begin) < options.seconds);

  result.check(twin_mismatches == 0,
               std::to_string(twin_mismatches) +
                   " repeated pumps did not reproduce the first one");
  result.check(parallel_reference.empty() || parallel_reference == reference,
               "the pump on a worker pool differs from the inline one");
  result.check(setup_mismatches == 0,
               std::to_string(setup_mismatches) +
                   " repeated set-ups planned other workflows");
  result.setup_s = setup.median_seconds();
  result.setup_samples = setup.samples();
  result.digest = reference;
  // Every pump does the same work. Gated: the median scaled pump time;
  // printed beside it: the mean over every pump, as measured.
  const double events_per_pump =
      ratio(static_cast<double>(events), static_cast<double>(round));
  result.op_cpu_ms_p50 = times.item_seconds() * 1e3;
  result.throughput_per_cpu_s = ratio(events_per_pump, times.item_seconds());
  result.op_samples = times.samples();
  result.named = {
      {"events_per_s", result.throughput_per_cpu_s, "1/s"},
      {"events_per_s_mean", ratio(static_cast<double>(events), plain_s),
       "1/s"},
      {"host_probe_ms", probe.median_ms(), "ms"},
      {"pump_workflows", static_cast<double>(workflows), "count"},
      {"pump_shards", static_cast<double>(kShards), "count"},
      {"events_per_pump", events_per_pump, "count"},
  };

  if (options.trace) {
    const double rounds = static_cast<double>(round);
    result.layers = {
        {"sim.pump_ns_per_event",
         ratio(serial_s * 1e9, static_cast<double>(serial_events))},
        {"sim.shard_efficiency",
         ratio(serial_s, static_cast<double>(options.threads) * parallel_s)},
        {"sim.shards", static_cast<double>(last_traced.shards)},
        {"sim.sink_merge_ns_per_record",
         ratio((sinks_on_s - sinks_off_s) * 1e9, static_cast<double>(records))},
        {"sim.epochs", static_cast<double>(last_traced.epochs)},
        {"sim.staged_messages",
         static_cast<double>(last_traced.staged_messages)},
        {"sim.staging_high_water",
         static_cast<double>(last_traced.staging_high_water)},
        {"core.engine.submit_us_per_wf",
         ratio(submit_s * 1e6, rounds * static_cast<double>(workflows))},
        {"trace.overhead_pct",
         (ratio(traced_s, traced_plain_s) - 1.0) * 100.0},
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
