#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t item)
    : tracer_(&tracer),
      index_(tracer.enabled_ ? static_cast<std::int32_t>(tracer.records_.size())
                             : -1) {
  if (index_ < 0) {
    return;
  }
  Record record;
  record.name = name;
  record.item = item;
  record.parent = tracer.open_.empty() ? -1 : tracer.open_.back();
  tracer.records_.push_back(record);
  tracer.open_.push_back(index_);
  // Stamp last so the bookkeeping above is outside the span.
  tracer.records_[static_cast<std::size_t>(index_)].start_ns =
      tracer.now_ns();
}

double Tracer::Span::stop() {
  if (index_ < 0) {
    return 0.0;
  }
  Record& record = tracer_->records_[static_cast<std::size_t>(index_)];
  if (record.end_ns < 0) {
    record.end_ns = tracer_->now_ns();
    // Spans close in LIFO order; tolerate an explicit stop() of an inner
    // span followed by its destructor.
    if (!tracer_->open_.empty() && tracer_->open_.back() == index_) {
      tracer_->open_.pop_back();
    }
  }
  return static_cast<double>(record.end_ns - record.start_ns) * 1e-9;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_ns[static_cast<std::size_t>(record.parent)] +=
          record.end_ns - record.start_ns;
    }
  }
  std::map<std::string, Totals> totals;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const std::int64_t duration = record.end_ns - record.start_ns;
    Totals& entry = totals[record.name];
    ++entry.count;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
  }
  return totals;
}

bool Tracer::write(const std::string& path, std::string_view workload) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    out << "{\"workload\":\"" << workload << "\",\"span\":" << i
        << ",\"name\":\"" << record.name << "\",\"item\":" << record.item
        << ",\"parent\":" << record.parent
        << ",\"start_ns\":" << record.start_ns
        << ",\"end_ns\":" << record.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= bytes[i];
    state_ *= 1099511628211ULL;
  }
}

std::string Digest::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

namespace {
constexpr std::uint64_t kProbeEntities = 2000;
constexpr std::size_t kProbeEvents = 10000;
}  // namespace

HostProbe::HostProbe(double spacing_s)
    : spacing_s_(spacing_s),
      arena_(std::size_t{1} << 20),
      buffer_(arena_.data(), arena_.size(), std::pmr::null_memory_resource()),
      nodes_(&buffer_) {
  queue_.reserve(kProbeEntities + 1);
}

void HostProbe::run() {
  const CpuClock::time_point start = CpuClock::now();
  {
    std::pmr::map<std::uint64_t, std::uint64_t> live(&nodes_);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x;
    };
    const auto push = [this](std::uint64_t when, std::uint64_t id) {
      queue_.emplace_back(when, id);
      std::push_heap(queue_.begin(), queue_.end(), std::greater<>());
    };
    queue_.clear();
    for (std::uint64_t id = 0; id < kProbeEntities; ++id) {
      push(next() >> 44, id);
      live.emplace(id, 0);
    }
    std::uint64_t fresh = kProbeEntities;
    for (std::size_t i = 0; i < kProbeEvents; ++i) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>());
      const auto [when, id] = queue_.back();
      queue_.pop_back();
      const auto it = live.find(id);
      it->second += when;
      if ((next() >> 60) == 0) {
        // The entity leaves and a new one arrives.
        live.erase(it);
        live.emplace(fresh, 0);
        push(when + (next() >> 50), fresh++);
      } else {
        push(when + (next() >> 50), id);
      }
    }
    sink_ += live.size() + live.begin()->second;
  }
  times_.push_back(cpu_seconds_since(start));
  last_ = Clock::now();
}

double HostProbe::scale() {
  if (times_.empty()) {
    run();
  }
  const std::size_t from = times_.size() > kWindow ? times_.size() - kWindow : 0;
  return kReferenceSeconds /
         median(std::vector<double>(times_.begin() + static_cast<std::ptrdiff_t>(from),
                                    times_.end()));
}

double RepeatTimes::pass_seconds() const {
  double total = 0.0;
  for (const std::vector<double>& item : samples_) {
    total += median(item);
  }
  return total;
}

double RepeatTimes::item_seconds() const {
  std::vector<double> medians;
  for (const std::vector<double>& item : samples_) {
    medians.push_back(median(item));
  }
  return median(std::move(medians));
}

std::size_t RepeatTimes::samples() const {
  std::size_t count = 0;
  for (const std::vector<double>& item : samples_) {
    count += item.size();
  }
  return count;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
