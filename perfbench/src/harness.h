// Shared machinery of the perfbench binary: options, clocks, the span
// tracer, output digests, order statistics, and the per-workload result
// every workload hands back to main().
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test-sized inputs (a few cases / workflows / jobs): the benchmark's
  /// own tests run every workload this way in seconds.
  bool small = false;
  /// Worker cap for every pool the benchmark builds: min(4, nproc).
  std::size_t threads = 1;
  /// Where the traced run writes its spans (JSON lines).
  std::string spans_path;
};

/// Wall time: run deadlines, spans, and the per-layer timings.
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the whole process (every thread), the clock of the gated
/// end-to-end timings. On a shared virtual machine the wall time of the
/// same work swings with the time other guests take from this one; the
/// kernel leaves that stolen time out of a thread's CPU time, so the
/// program's own cost reads steadily. Threads blocked on a pool's queue
/// add nothing, so work handed to the benchmark's one-worker pool counts
/// once.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;

  static time_point now() noexcept {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(std::chrono::seconds(ts.tv_sec) +
                      std::chrono::nanoseconds(ts.tv_nsec));
  }
};

[[nodiscard]] inline double cpu_seconds_since(CpuClock::time_point start) {
  return std::chrono::duration<double>(CpuClock::now() - start).count();
}

/// In-memory span recorder for the traced run. Spans nest by call
/// structure: a span opened while another is open records it as its
/// parent. Every span carries the id of the case, workflow, or pass it
/// belongs to. Single-threaded: only the main thread records. A disabled
/// tracer records nothing and its spans read 0 s, so a traced path can run
/// untraced as the reference for the tracing overhead.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    std::uint64_t item = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  ///< -1 while open
    std::int32_t parent = -1;
  };

  /// RAII span; closes on destruction or on stop().
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t item);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Closes the span and returns its duration in seconds (0 when the
    /// tracer is disabled).
    double stop();

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  explicit Tracer(bool enabled = true);

  [[nodiscard]] Span span(const char* name, std::uint64_t item) {
    return Span(*this, name, item);
  }

  [[nodiscard]] const std::vector<Record>& records() const {
    return records_;
  }

  /// Per-name totals over every recorded span: count, summed duration,
  /// and self time (duration minus the part covered by child spans).
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes every span as one JSON object per line; false on I/O error.
  bool write(const std::string& path, std::string_view workload) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
};

/// Order-sensitive 64-bit digest of simulated outputs (FNV-1a over the
/// exact bytes, so doubles must match bit for bit).
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(std::uint64_t value) { add_bytes(&value, sizeof value); }
  void add(std::string_view text) {
    add(static_cast<std::uint64_t>(text.size()));
    add_bytes(text.data(), text.size());
  }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 1469598103934665603ULL;
};

/// Linear-interpolation percentile (q in [0, 100]) of unsorted samples;
/// 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// Peak resident set size of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// The host-speed reference of the gated times. On a shared virtual
/// machine the CPU time of the same work swings by up to 1.7x over
/// minutes as neighbours load the cores, caches and memory the guest
/// shares; a run-to-run spread that wide hides any change to the program.
/// The probe is a fixed discrete-event kernel of the benchmark's own (a
/// binary-heap event queue over an ordered map of live entities), the kind
/// of work the simulator does. It shares no code or data with the
/// program and, after its first run, no allocator either: the queue keeps
/// its capacity and the map's nodes come from a pool over a buffer the
/// probe owns, so a change to the program's heap use cannot move it. It
/// runs every `spacing_s` of wall time between operations, and each gated
/// time is scaled by kReferenceSeconds over the median of the last few
/// probe times, so it reads as on a host where the probe takes
/// kReferenceSeconds.
class HostProbe {
 public:
  static constexpr double kReferenceSeconds = 2e-3;

  explicit HostProbe(double spacing_s = 0.02);
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the probe when the spacing has passed since the last one.
  void maybe() {
    if (times_.empty() || seconds_since(last_) >= spacing_s_) {
      run();
    }
  }
  /// kReferenceSeconds over the median of the last kWindow probe times.
  [[nodiscard]] double scale();
  /// Median probe time over the run, in ms.
  [[nodiscard]] double median_ms() const { return median(times_) * 1e3; }

 private:
  static constexpr std::size_t kWindow = 5;
  using Event = std::pair<std::uint64_t, std::uint64_t>;  // (time, entity)

  void run();

  double spacing_s_;
  Clock::time_point last_;
  std::vector<double> times_;
  std::vector<Event> queue_;
  std::vector<std::byte> arena_;
  std::pmr::monotonic_buffer_resource buffer_;
  std::pmr::unsynchronized_pool_resource nodes_;
  std::uint64_t sink_ = 0;  ///< keeps the kernel's result alive
};

/// The set-up timings of a run, in CPU seconds scaled by the host probe.
/// A workload sets up once before it measures and again between
/// operations whenever `spacing_s` of wall time passed since the last
/// set-up, so the reported median samples the whole run, not the moment
/// before it. The repeats are not inside any operation's timing.
class SetupClock {
 public:
  SetupClock(HostProbe& probe, double spacing_s)
      : probe_(probe), spacing_s_(spacing_s) {}

  /// Runs `setup` now and records its time.
  template <typename Fn>
  void time(Fn&& setup) {
    probe_.maybe();
    const CpuClock::time_point start = CpuClock::now();
    setup();
    times_.push_back(cpu_seconds_since(start) * probe_.scale());
    last_ = Clock::now();
  }
  /// Runs `setup` when the spacing has passed since the last set-up.
  template <typename Fn>
  void maybe(Fn&& setup) {
    if (seconds_since(last_) >= spacing_s_) {
      time(setup);
    }
  }
  [[nodiscard]] double median_seconds() const { return median(times_); }
  [[nodiscard]] std::size_t samples() const { return times_.size(); }

 private:
  HostProbe& probe_;
  double spacing_s_;
  Clock::time_point last_ = Clock::now();
  std::vector<double> times_;
};

/// The probe-scaled CPU times of operations that repeat the same items
/// (cases, streams, pumps, passes) over the whole run. Each item is timed
/// again on every pass, so its median samples the host over the whole run,
/// and the run's figures are built from those medians.
class RepeatTimes {
 public:
  explicit RepeatTimes(std::size_t items) : samples_(items) {}

  void add(std::size_t item, double seconds) {
    samples_[item].push_back(seconds);
  }
  /// Sum over the items of their median times: one pass over them all.
  [[nodiscard]] double pass_seconds() const;
  /// Median over the items of their median times.
  [[nodiscard]] double item_seconds() const;
  [[nodiscard]] std::size_t samples() const;

 private:
  std::vector<std::vector<double>> samples_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back: the operation accounting, the
/// correctness verdict, the simulated-output digest, and its metrics.
struct WorkloadResult {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::string digest;
  /// The contract metrics every workload reports untraced, in CPU time.
  double throughput_per_cpu_s = 0.0;
  double op_cpu_ms_p50 = 0.0;
  double setup_s = 0.0;
  std::size_t setup_samples = 0;
  /// Wall and CPU time of the whole workload run (set-up, checks and all):
  /// their ratio shows how much of the wall time the host took away.
  double run_wall_s = 0.0;
  double run_cpu_s = 0.0;
  /// What one operation is on this workload ("case", "workflow", ...).
  std::string op_name;
  std::size_t op_samples = 0;
  /// Workload-specific end-to-end metrics, printed by name with units.
  std::vector<Metric> named;
  /// Per-layer metrics of the traced run (empty untraced).
  std::map<std::string, double> layers;
  /// Per-name span totals of the traced run, for the self-time table.
  std::map<std::string, Tracer::Totals> span_totals;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  [[nodiscard]] bool correct() const {
    return check_failures.empty() && failed == 0;
  }
};

WorkloadResult run_sweep_random(const Options& options);
WorkloadResult run_stream_contended(const Options& options);
WorkloadResult run_pump_sharded(const Options& options);
WorkloadResult run_archive_fit(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
