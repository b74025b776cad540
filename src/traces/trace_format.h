// SWF-inspired plain-text grid trace format.
//
// A trace is the on-disk description of a grid scenario — resource
// up/down intervals, per-resource time-varying load multipliers, and job
// arrival records — so any simulated environment can be recorded and
// replayed bit-identically.
//
// Grammar (one record per line; a field that starts with '#' starts a
// comment; blank lines are ignored; fields are separated by any C-locale
// whitespace, as every support/record_reader format is):
//
//   gridtrace v1 <name>                          header, first record
//   resource <id> <arrival> <departure> <name>   availability window
//   load <resource-id> <start> <end> <multiplier>
//   job <id> <arrival> <name>                    workload arrival record
//
// Times are doubles on the logical simulation clock; the token "inf"
// denotes an open departure or load-segment end. Resource and job ids
// must be dense and ascending from 0 so they line up with the library's
// dense grid::ResourceId / dag::JobId indexing. Records may only
// reference resources declared on earlier lines. Names are single
// tokens without '#' or control bytes, so every name the reader accepts
// survives a write unchanged. Doubles are written
// with max_digits10 precision, so a write -> read round trip reproduces
// the exact same values.
#ifndef AHEFT_TRACES_TRACE_FORMAT_H_
#define AHEFT_TRACES_TRACE_FORMAT_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "grid/resource.h"
#include "sim/time.h"
#include "support/record_reader.h"

namespace aheft::traces {

/// One resource's availability window.
struct ResourceRecord {
  grid::ResourceId id = 0;
  sim::Time arrival = sim::kTimeZero;
  sim::Time departure = sim::kTimeInfinity;
  std::string name;

  bool operator==(const ResourceRecord&) const = default;
};

/// One piecewise-constant load segment: `resource` runs jobs
/// `multiplier` times slower during [start, end).
struct LoadRecord {
  grid::ResourceId resource = 0;
  sim::Time start = sim::kTimeZero;
  sim::Time end = sim::kTimeInfinity;
  double multiplier = 1.0;

  bool operator==(const LoadRecord&) const = default;
};

/// One job-arrival record (workload stream extension; a single-DAG run
/// has every job arriving at t = 0).
struct JobArrivalRecord {
  std::uint32_t job = 0;
  sim::Time arrival = sim::kTimeZero;
  std::string name;

  bool operator==(const JobArrivalRecord&) const = default;
};

/// A parsed trace file.
struct GridTrace {
  std::string name = "trace";
  std::vector<ResourceRecord> resources;
  std::vector<LoadRecord> load;
  std::vector<JobArrivalRecord> jobs;

  bool operator==(const GridTrace&) const = default;
};

/// Parse failure: what() is "trace line <N>: <message>", line() is N.
using TraceParseError = RecordParseError;

/// Parses a trace; throws TraceParseError on malformed input.
[[nodiscard]] GridTrace read_trace(std::istream& in);
[[nodiscard]] GridTrace read_trace_string(std::string_view text);
/// Throws std::runtime_error when the file cannot be opened.
[[nodiscard]] GridTrace read_trace_file(const std::string& path);

/// Writes a trace in the format read_trace parses. Whitespace, control
/// bytes and '#' inside names are replaced with '_' (names are single
/// tokens on disk).
void write_trace(std::ostream& out, const GridTrace& trace);
[[nodiscard]] std::string write_trace_string(const GridTrace& trace);
/// Throws std::runtime_error when the file cannot be created.
void write_trace_file(const std::string& path, const GridTrace& trace);

}  // namespace aheft::traces

#endif  // AHEFT_TRACES_TRACE_FORMAT_H_
