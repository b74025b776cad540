// archive_fit: an SWF log synthesized at setup from known distributions
// (diurnal Poisson bag arrivals, geometric bag sizes, log-normal
// runtimes), then parsed, fitted, and used to draw a fitted job stream.
// Only the archive layer runs; no scheduler code does.
#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "archive/fitted_model.h"
#include "archive/swf_reader.h"
#include "harness.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using namespace aheft;

/// Ground truth of the synthesized log: the reference stage of
/// bench/bench_archive_workloads.cpp, whose fit-recovery check holds for
/// these values. Only the job count differs from that stage.
struct Reference {
  double mu = 4.5;       ///< log-runtime mean
  double sigma = 1.0;    ///< log-runtime spread
  double bag_p = 0.4;    ///< geometric bag-size parameter
  double intra_gap = 20.0;
  double base_rate = 0.02;  ///< bag heads per second at the quietest hour
};

/// Synthesizes an SWF log with known marginals: diurnal Poisson bag
/// arrivals, geometric bag sizes, iid log-normal runtimes, a small
/// processor-count support (as bench_archive_workloads does).
archive::SwfLog synthesize(const Reference& ref, std::size_t jobs,
                           std::uint64_t seed) {
  archive::SwfLog log;
  log.header.fields = {{"Version", "2.2"},
                       {"MaxNodes", "16"},
                       {"MaxProcs", "64"},
                       {"UnixStartTime", "1167609600"}};
  RngStream arrivals = RngStream(seed).child("ref-arrivals");
  RngStream runtimes = RngStream(seed).child("ref-runtimes");
  RngStream bags = RngStream(seed).child("ref-bags");
  const std::vector<std::int64_t> procs_support{1, 1, 2, 2, 4, 8};

  // Hourly bag-head rates: a day-shaped profile peaking at 15:00.
  std::array<double, 24> rate{};
  double peak = 0.0;
  for (std::size_t h = 0; h < 24; ++h) {
    rate[h] = ref.base_rate *
              (1.0 + 0.8 * std::sin((static_cast<double>(h) - 9.0) *
                                    std::numbers::pi / 12.0));
    peak = std::max(peak, rate[h]);
  }

  double now = 0.0;
  std::int64_t id = 0;
  while (log.jobs.size() < jobs) {
    // Thinned non-homogeneous Poisson bag head.
    for (;;) {
      now += arrivals.exponential(1.0 / peak);
      const auto hour = static_cast<std::size_t>(
                            std::fmod(now, 86400.0) / 3600.0) %
                        24;
      if (arrivals.uniform01() * peak <= rate[hour]) {
        break;
      }
    }
    const std::size_t bag_size = bags.geometric(ref.bag_p);
    const std::int64_t user = bags.uniform_int(1, 12);
    const std::int64_t procs = procs_support[bags.index(
        procs_support.size())];
    double submit = now;
    for (std::size_t i = 0; i < bag_size && log.jobs.size() < jobs; ++i) {
      if (i > 0) {
        submit += arrivals.exponential(ref.intra_gap);
      }
      archive::SwfJob job;
      job.id = ++id;
      job.submit = submit;
      job.wait = runtimes.exponential(30.0);
      job.runtime = runtimes.log_normal(ref.mu, ref.sigma);
      job.procs = procs;
      job.requested_procs = procs;
      job.requested_time = job.runtime * 2.0;
      job.status = 1;
      job.user = user;
      job.executable = user;
      log.jobs.push_back(job);
    }
    now = submit;
  }
  return log;
}

void digest_fit(Digest& digest, const archive::ArchiveFit& fit) {
  digest.add(fit.runtime_log_normal.mu);
  digest.add(fit.runtime_log_normal.sigma);
  digest.add(fit.runtime_weibull.shape);
  digest.add(fit.runtime_weibull.scale);
  digest.add(static_cast<std::uint64_t>(fit.runtime_is_log_normal));
  for (const double r : fit.hourly_rate) {
    digest.add(r);
  }
  digest.add(fit.bag_size_p);
  digest.add(fit.intra_bag_gap_mean);
  digest.add(fit.runtime_correlation);
  for (const auto& [p, procs] : fit.procs_cdf) {
    digest.add(p);
    digest.add(static_cast<std::uint64_t>(procs));
  }
  digest.add(static_cast<std::uint64_t>(fit.fitted_jobs));
}

struct Pass {
  double parse_s = 0.0;
  double fit_s = 0.0;
  double generate_s = 0.0;
  std::uint64_t bad_jobs = 0;  ///< generated jobs breaking the invariants
  std::string digest;
  archive::SwfLog parsed;
  archive::ArchiveFit fit;
};

/// One ingest + generate pass, each step timed in CPU time; `tracer`
/// (when non-null) spans each call.
Pass run_pass(const std::string& text, std::uint64_t seed,
              std::size_t generate, Tracer* tracer, std::uint64_t item) {
  Pass pass;
  const auto timed = [&](const char* name, double& seconds, auto&& body) {
    std::optional<Tracer::Span> span;
    if (tracer != nullptr) {
      span.emplace(*tracer, name, item);
    }
    const CpuClock::time_point start = CpuClock::now();
    body();
    seconds = cpu_seconds_since(start);
  };
  archive::ArchiveFit& fit = pass.fit;
  timed("archive.read_swf", pass.parse_s,
        [&] { pass.parsed = archive::read_swf_string(text); });
  timed("archive.fit_archive", pass.fit_s,
        [&] { fit = archive::fit_archive(pass.parsed); });
  Digest digest;
  digest_fit(digest, fit);
  timed("archive.generate", pass.generate_s, [&] {
    archive::FittedJobStream stream(fit, mix64(seed, hash64("generate")));
    double last = 0.0;
    for (std::size_t i = 0; i < generate; ++i) {
      const archive::GeneratedJob job = stream.next();
      if (job.arrival < last || !(job.runtime > 0.0) || job.procs < 1) {
        ++pass.bad_jobs;
      }
      last = job.arrival;
      digest.add(job.arrival);
      digest.add(job.runtime);
      digest.add(static_cast<std::uint64_t>(job.procs));
      digest.add(job.bag);
    }
  });
  pass.digest = digest.hex();
  return pass;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

WorkloadResult run_archive_fit(const Options& options) {
  WorkloadResult result;
  result.name = "archive_fit";
  result.op_name = "parse + fit + generate pass";
  // The small size is the reference stage's smoke size, at which its
  // fit-recovery tolerance holds.
  const std::size_t jobs = options.small ? 20000 : 50000;
  const std::size_t generate = jobs;

  archive::SwfLog source;
  std::string text;
  HostProbe probe;
  SetupClock setup(probe, /*spacing_s=*/1.5);
  setup.time([&] {
    source = synthesize(Reference{}, jobs, options.seed);
    text = archive::write_swf_string(source);
  });
  // A repeated set-up must write the same log.
  std::size_t setup_mismatches = 0;
  const auto setup_again = [&] {
    const std::string again =
        archive::write_swf_string(synthesize(Reference{}, jobs, options.seed));
    setup_mismatches += again == text ? 0 : 1;
  };

  std::string reference;
  std::size_t twin_mismatches = 0;
  RepeatTimes times(1);
  RepeatTimes ingest_times(1);
  double ingest_s = 0.0;
  double generate_s = 0.0;
  std::uint64_t passes = 0;

  // Counts one pass; the first one also proves the write -> read round
  // trip and that the fit recovers the synthesized log's runtime law,
  // every later one must reproduce the first one's digest.
  const auto account = [&](const Pass& pass) {
    result.attempted += jobs + generate;
    result.failed += pass.bad_jobs;
    if (reference.empty()) {
      reference = pass.digest;
      result.check(pass.parsed == source,
                   "SWF write -> read round trip is not identical");
      const Reference truth;
      result.check(pass.fit.runtime_is_log_normal &&
                       std::abs(pass.fit.runtime_log_normal.mu - truth.mu) <
                           0.05 &&
                       std::abs(pass.fit.runtime_log_normal.sigma -
                                truth.sigma) < 0.05,
                   "the fit does not recover the log-normal runtime "
                   "mu/sigma within 0.05");
    } else if (pass.digest != reference) {
      ++twin_mismatches;
    }
  };

  Tracer tracer;
  double traced_s = 0.0;
  double traced_plain_s = 0.0;
  double traced_parse_s = 0.0;
  double traced_fit_s = 0.0;
  double traced_generate_s = 0.0;

  const Clock::time_point begin = Clock::now();
  do {
    try {
      probe.maybe();
      const double scale = probe.scale();
      const Pass pass = run_pass(text, options.seed, generate, nullptr, 0);
      account(pass);
      const double took = pass.parse_s + pass.fit_s + pass.generate_s;
      times.add(0, took * scale);
      ingest_s += pass.parse_s + pass.fit_s;
      ingest_times.add(0, (pass.parse_s + pass.fit_s) * scale);
      generate_s += pass.generate_s;
      ++passes;
      if (options.trace) {
        traced_plain_s += took;
        const Pass traced =
            run_pass(text, options.seed, generate, &tracer, passes);
        account(traced);
        traced_parse_s += traced.parse_s;
        traced_fit_s += traced.fit_s;
        traced_generate_s += traced.generate_s;
        traced_s += traced.parse_s + traced.fit_s + traced.generate_s;
      }
      setup.maybe(setup_again);
    } catch (const std::exception& error) {
      result.attempted += jobs + generate;
      result.failed += jobs + generate;
      result.check_failures.push_back(std::string("pass threw: ") +
                                      error.what());
      break;
    }
  } while (seconds_since(begin) < options.seconds);

  result.check(twin_mismatches == 0,
               std::to_string(twin_mismatches) +
                   " repeated passes did not reproduce the first one");
  result.check(setup_mismatches == 0,
               std::to_string(setup_mismatches) +
                   " repeated set-ups wrote another log");
  result.setup_s = setup.median_seconds();
  result.setup_samples = setup.samples();
  result.digest = reference;
  const double n = static_cast<double>(passes);
  // Every pass does the same work. Gated: the median scaled ingest (parse +
  // fit) and pass times; printed beside them: means over every pass, as
  // measured.
  result.throughput_per_cpu_s =
      ratio(static_cast<double>(jobs), ingest_times.item_seconds());
  result.op_cpu_ms_p50 = times.item_seconds() * 1e3;
  result.op_samples = times.samples();
  result.named = {
      {"ingest_jobs_per_s", result.throughput_per_cpu_s, "1/s"},
      {"ingest_jobs_per_s_mean", ratio(static_cast<double>(jobs) * n, ingest_s),
       "1/s"},
      {"generate_jobs_per_s",
       ratio(static_cast<double>(generate) * n, generate_s), "1/s"},
      {"host_probe_ms", probe.median_ms(), "ms"},
      {"swf_jobs", static_cast<double>(jobs), "count"},
      {"swf_bytes", static_cast<double>(text.size()), "B"},
  };

  if (options.trace) {
    result.layers = {
        {"archive.swf_parse_mb_per_s",
         ratio(static_cast<double>(text.size()) * n / 1e6, traced_parse_s)},
        {"archive.fit_ms", ratio(traced_fit_s * 1e3, n)},
        {"archive.generate_ns_per_job",
         ratio(traced_generate_s * 1e9, static_cast<double>(generate) * n)},
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
