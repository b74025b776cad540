// Standard Workload Format (SWF) reader for real-workload archives.
//
// SWF is the lingua franca of the Parallel Workloads Archive, and the
// Grid Workloads Archive's .gwf logs are an extension of it (the same
// leading fields, with extra columns appended). A log is a sequence of
// `;`-prefixed header comments followed by one job record per line, 18
// whitespace-separated numeric fields each (GWA logs carry more; the
// extras are ignored):
//
//   1 job id          2 submit time     3 wait time      4 run time
//   5 alloc procs     6 avg cpu time    7 used memory    8 req procs
//   9 req time       10 req memory     11 status        12 user id
//  13 group id       14 executable id  15 queue         16 partition
//  17 preceding job  18 think time
//
// Times are seconds relative to the log start; -1 marks a missing value.
// Structured header comments of the form `; Key: Value` (Version,
// MaxProcs, MaxNodes, UnixStartTime, ...) are parsed into the header map.
//
// Lines, fields and numbers follow the rules shared with the gridtrace
// reader (support/record_reader.h): any C-locale whitespace separates
// fields, so a line that is only whitespace is blank and a header comment
// may be indented by any of it. Malformed fields, negative submit times,
// and out-of-order submits raise SwfParseError carrying the 1-based line.
#ifndef AHEFT_ARCHIVE_SWF_READER_H_
#define AHEFT_ARCHIVE_SWF_READER_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "support/record_reader.h"

namespace aheft::archive {

/// SWF status codes (field 11) this subsystem interprets.
enum class SwfStatus : int {
  kFailed = 0,
  kCompleted = 1,
  kPartialToBeContinued = 2,
  kPartialLast = 3,
  kCancelled = 5,
  kUnknown = -1,
};

/// One SWF job record. Fields the simulator never consumes (memory,
/// queue, partition, dependencies) are parsed for validation but not
/// stored.
struct SwfJob {
  std::int64_t id = -1;          ///< field 1, as recorded (not re-numbered)
  double submit = 0.0;           ///< field 2, seconds from log start
  double wait = -1.0;            ///< field 3, -1 when missing
  double runtime = -1.0;         ///< field 4, -1 when missing
  std::int64_t procs = -1;       ///< field 5 (allocated), -1 when missing
  std::int64_t requested_procs = -1;  ///< field 8, -1 when missing
  double requested_time = -1.0;  ///< field 9, -1 when missing
  int status = -1;               ///< field 11
  std::int64_t user = -1;        ///< field 12
  std::int64_t executable = -1;  ///< field 14

  [[nodiscard]] bool completed() const noexcept {
    return status == static_cast<int>(SwfStatus::kCompleted);
  }

  bool operator==(const SwfJob&) const = default;
};

/// Parsed `; Key: Value` header comments plus the derived capacity hints.
struct SwfHeader {
  std::map<std::string, std::string> fields;

  /// Named header value, empty when absent.
  [[nodiscard]] std::string value(const std::string& key) const;
  /// Named header value parsed as a non-negative integer; 0 when absent
  /// or non-numeric (SWF headers are advisory, never rejected).
  [[nodiscard]] std::uint64_t value_u64(const std::string& key) const;

  [[nodiscard]] std::uint64_t max_procs() const { return value_u64("MaxProcs"); }
  [[nodiscard]] std::uint64_t max_nodes() const { return value_u64("MaxNodes"); }
  [[nodiscard]] std::uint64_t unix_start_time() const {
    return value_u64("UnixStartTime");
  }

  bool operator==(const SwfHeader&) const = default;
};

/// A parsed archive log.
struct SwfLog {
  SwfHeader header;
  std::vector<SwfJob> jobs;  ///< submit-ordered (the reader enforces it)

  bool operator==(const SwfLog&) const = default;
};

/// Parse failure: what() is "swf line <N>: <message>", line() is N.
using SwfParseError = RecordParseError;

/// Parses an SWF/GWA log; throws SwfParseError on malformed input.
[[nodiscard]] SwfLog read_swf(std::istream& in);
[[nodiscard]] SwfLog read_swf_string(std::string_view text);
/// Throws std::runtime_error when the file cannot be opened.
[[nodiscard]] SwfLog read_swf_file(const std::string& path);

/// Writes a log in the 18-field format read_swf parses (unstored fields
/// are emitted as -1). Doubles round-trip bit-identically, matching the
/// gridtrace writer's guarantee.
void write_swf(std::ostream& out, const SwfLog& log);
[[nodiscard]] std::string write_swf_string(const SwfLog& log);
/// Throws std::runtime_error when the file cannot be created.
void write_swf_file(const std::string& path, const SwfLog& log);

/// The simulatable subset of a log: completed jobs (or, with
/// `include_failed`, any terminal status) carrying a positive runtime and
/// at least one allocated processor (falling back to requested
/// processors when the allocation is missing). Submit order is kept.
[[nodiscard]] std::vector<SwfJob> usable_jobs(const SwfLog& log,
                                              bool include_failed = false);

}  // namespace aheft::archive

#endif  // AHEFT_ARCHIVE_SWF_READER_H_
