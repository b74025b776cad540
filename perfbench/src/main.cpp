// perfbench: the reproduction's benchmark program.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--small] [--spans=PATH]
//
// NAME is sweep_random, stream_contended, pump_sharded, archive_fit, or
// `all` (every workload in turn, from this one process). The untraced run
// (--trace=0) measures the end-to-end metrics; the traced run (--trace=1)
// records spans around the benchmark's calls into each layer and reports
// the per-layer metrics, plus the tracing overhead against an untraced
// pass over the same inputs. Every run checks its outputs and prints a
// digest of its simulated results. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif

namespace {

using namespace perfbench;

struct Unit {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics every workload reports, in the order
/// report() fills them. Times are the process's CPU time (see CpuClock)
/// scaled by the host probe (see HostProbe), as medians of repeated items
/// (see RepeatTimes).
constexpr Unit kEndToEnd[] = {
    {"throughput_per_cpu_s", "1/s"},
    {"op_cpu_ms_p50", "ms"},
    {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

/// The per-layer metrics of the traced run. A workload that bypasses a
/// layer reports 0 for it (layers.json maps each metric to the workload
/// that exercises it).
constexpr Unit kPerLayer[] = {
    {"exp.env_build_us_per_case", "us"},
    {"core.ranking.ns_per_edge", "ns"},
    {"core.heft.ns_per_edge_resource", "ns"},
    {"core.engine.ns_per_event", "ns"},
    {"core.rescheduler.us_per_eval", "us"},
    {"core.planner.evaluations", "count"},
    {"core.planner.adoptions", "count"},
    {"core.planner.adoption_ratio", "ratio"},
    {"grid.cost_queries_per_eval", "count"},
    {"core.stream.heft_ms_per_wf", "ms"},
    {"core.stream.minmin_ms_per_wf", "ms"},
    {"core.stream.aheft_ms_per_wf", "ms"},
    {"core.session.heft_ns_per_event", "ns"},
    {"core.session.minmin_ns_per_event", "ns"},
    {"core.session.aheft_ns_per_event", "ns"},
    {"sim.pump_ns_per_event", "ns"},
    {"sim.shard_efficiency", "ratio"},
    {"sim.shards", "count"},
    {"sim.sink_merge_ns_per_record", "ns"},
    {"sim.epochs", "count"},
    {"sim.staged_messages", "count"},
    {"sim.staging_high_water", "count"},
    {"core.engine.submit_us_per_wf", "us"},
    {"archive.swf_parse_mb_per_s", "MB/s"},
    {"archive.fit_ms", "ms"},
    {"archive.generate_ns_per_job", "ns"},
    {"trace.overhead_pct", "%"},
};

using Runner = WorkloadResult (*)(const Options&);

struct WorkloadEntry {
  const char* name;
  Runner run;
};

constexpr WorkloadEntry kWorkloads[] = {
    {"sweep_random", &run_sweep_random},
    {"stream_contended", &run_stream_contended},
    {"pump_sharded", &run_pump_sharded},
    {"archive_fit", &run_archive_fit},
};

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

/// Parses --key=value / --key value pairs; exits with usage on error.
Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::cerr << "perfbench: unexpected argument '" << arg << "'\n";
      std::exit(2);
    }
    arg = arg.substr(2);
    std::string value;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "small" && i + 1 < argc) {
      value = argv[++i];
    }
    try {
      if (arg == "workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "seed") {
        options.seed = std::stoull(value);
      } else if (arg == "seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "small") {
        options.small = true;
      } else if (arg == "spans") {
        options.spans_path = value;
      } else {
        std::cerr << "perfbench: unknown option --" << arg << "\n";
        std::exit(2);
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value '" << value << "' for --" << arg
                << "\n";
      std::exit(2);
    }
  }
  if (!have_workload) {
    std::cerr << "usage: perfbench --workload=NAME|all --seed=N --seconds=S "
                 "--trace=0|1 [--small] [--spans=PATH]\n";
    std::exit(2);
  }
  options.threads = std::min<std::size_t>(4, online_cpus());
  return options;
}

/// JSON number with every digit; non-finite values are a bug upstream.
std::string number(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << (std::isfinite(value) ? value : 0.0);
  return out.str();
}

bool valid_name(const std::string& name) {
  static const std::regex pattern("[A-Za-z0-9_.-]+");
  return std::regex_match(name, pattern);
}

/// Prints one workload's report lines and returns its JSON metrics.
std::vector<Metric> report(const Options& options, WorkloadResult& result) {
  std::vector<Metric> json;
  const double rss = peak_rss_mb();
  std::cout << "== " << result.name << " (seed " << options.seed << ", "
            << (options.trace ? "traced" : "untraced") << ")\n";
  if (!options.trace) {
    const double values[] = {result.throughput_per_cpu_s,
                             result.op_cpu_ms_p50, rss, result.setup_s};
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      json.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
      result.check(std::isfinite(values[i]) && values[i] > 0.0,
                   std::string("end-to-end metric ") + kEndToEnd[i].name +
                       " is not a positive number");
    }
  } else {
    for (const Unit& unit : kPerLayer) {
      const auto found = result.layers.find(unit.name);
      const double value =
          found == result.layers.end() ? 0.0 : found->second;
      json.push_back({unit.name, value, unit.unit});
      result.check(std::isfinite(value),
                   std::string("layer metric ") + unit.name +
                       " is not finite");
    }
    for (const auto& [name, value] : result.layers) {
      result.check(std::any_of(std::begin(kPerLayer), std::end(kPerLayer),
                               [&](const Unit& u) { return name == u.name; }),
                   "workload reported an undeclared layer metric " + name);
    }
  }
  for (const Metric& metric : json) {
    std::cout << "metric " << metric.name << " = " << number(metric.value)
              << " " << metric.unit << "\n";
  }
  for (const Metric& metric : result.named) {
    std::cout << "metric " << metric.name << " = " << number(metric.value)
              << " " << metric.unit << "\n";
  }
  const double fail_ratio =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::cout << "metric fail_ratio = " << number(fail_ratio) << " ratio\n"
            << "metric run_wall_s = " << number(result.run_wall_s) << " s\n"
            << "metric run_cpu_s = " << number(result.run_cpu_s) << " s\n"
            << "operations attempted=" << result.attempted
            << " failed=" << result.failed << " (one operation = one "
            << result.op_name << "; " << result.op_samples
            << " timed samples; setup_s is the median of "
            << result.setup_samples << " set-ups)\n";
  if (options.trace && !result.span_totals.empty()) {
    std::cout << "spans (name: count, total s, self s):\n";
    for (const auto& [name, totals] : result.span_totals) {
      std::cout << "  " << name << ": " << totals.count << ", "
                << number(totals.total_s) << ", " << number(totals.self_s)
                << "\n";
    }
  }
  std::cout << "digest " << result.name << " " << result.digest << "\n";
  for (const Metric& metric : json) {
    result.check(valid_name(metric.name),
                 "metric name '" + metric.name +
                     "' does not fit [A-Za-z0-9_.-]+");
  }
  for (const std::string& failure : result.check_failures) {
    std::cout << "check FAIL " << failure << "\n";
  }
  std::cout << "checks " << (result.correct() ? "PASS" : "FAIL") << "\n";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  std::vector<const WorkloadEntry*> selected;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == "all" || options.workload == entry.name) {
      selected.push_back(&entry);
    }
  }
  if (selected.empty()) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  std::cout << "host nproc=" << online_cpus()
            << " pool_threads=" << options.threads << " compiler=\""
            << PERFBENCH_COMPILER << "\" build_type="
            << (build_type.empty() ? "(empty)" : build_type) << "\n";
  if (!release) {
    std::cout << "WARNING: not a Release build; timings are not "
                 "comparable\n";
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::ostringstream metrics;
  bool first = true;
  for (const WorkloadEntry* entry : selected) {
    Options run = options;
    run.workload = entry->name;
    if (!options.spans_path.empty() && selected.size() > 1) {
      run.spans_path = options.spans_path + "." + entry->name;
    }
    WorkloadResult result;
    const Clock::time_point wall_start = Clock::now();
    const CpuClock::time_point cpu_start = CpuClock::now();
    try {
      result = entry->run(run);
    } catch (const std::exception& error) {
      result.name = entry->name;
      result.attempted = std::max<std::uint64_t>(result.attempted, 1);
      result.failed = result.attempted;
      result.check(false, std::string("workload threw: ") + error.what());
    }
    result.run_wall_s = seconds_since(wall_start);
    result.run_cpu_s = cpu_seconds_since(cpu_start);
    const auto json = report(run, result);
    correct = correct && result.correct() && result.attempted > 0;
    attempted += result.attempted;
    failed += result.failed;
    for (const Metric& metric : json) {
      metrics << (first ? "" : ", ") << "\""
              << (selected.size() > 1 ? std::string(entry->name) + "." : "")
              << metric.name << "\": {\"value\": " << number(metric.value)
              << ", \"unit\": \"" << metric.unit << "\"}";
      first = false;
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(attempted, 1)
            << ", \"failed\": " << failed << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return 0;
}
