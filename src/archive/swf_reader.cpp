#include "archive/swf_reader.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <istream>
#include <ostream>

namespace aheft::archive {

namespace {

/// A job record has these many leading numeric fields; GWA logs append
/// more, which the reader ignores.
constexpr std::size_t kSwfFields = 18;

/// SWF fields are plain seconds/counts (missing values are -1), so NaN
/// and inf are malformed.
double finite(const RecordReader& reader, std::string_view field,
              const char* name) {
  const double value = reader.number<double>(field, name);
  if (!std::isfinite(value)) {
    reader.malformed(field, name);
  }
  return value;
}

/// `; Key: Value` header comment -> (Key, Value); an empty key for
/// free-text comments.
std::pair<std::string_view, std::string_view> parse_header_comment(
    std::string_view line) {
  const std::size_t start = line.find_first_not_of("; \t");
  if (start == std::string_view::npos) {
    return {};
  }
  const std::size_t colon = line.find(':', start);
  if (colon == std::string_view::npos) {
    return {};
  }
  std::string_view key = line.substr(start, colon - start);
  key = key.substr(0, key.find_last_not_of(" \t") + 1);
  // Structured keys are single words (MaxProcs, UnixStartTime, ...);
  // colons inside free text ("note: beware") are not headers.
  if (key.empty() || key.find_first_of(" \t") != std::string_view::npos) {
    return {};
  }
  std::string_view value = line.substr(colon + 1);
  value.remove_prefix(std::min(value.find_first_not_of(" \t"), value.size()));
  return {key, value.substr(0, value.find_last_not_of(" \t\r") + 1)};
}

}  // namespace

std::string SwfHeader::value(const std::string& key) const {
  const auto it = fields.find(key);
  return it == fields.end() ? "" : it->second;
}

std::uint64_t SwfHeader::value_u64(const std::string& key) const {
  const std::string text = value(key);
  std::uint64_t parsed = 0;
  // Advisory header: tolerate trailing annotations ("128 (see note)").
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  return result.ec == std::errc() ? parsed : 0;
}

SwfLog read_swf(std::istream& in) { return read_swf_string(read_stream(in)); }

SwfLog read_swf_string(std::string_view text) {
  RecordReader reader("swf", text);
  SwfLog log;
  double last_submit = -1.0;
  std::array<std::string_view, kSwfFields> f;
  while (reader.next_line()) {
    const std::string_view line = reader.line();
    const std::size_t first = line.find_first_not_of(kFieldSpace);
    if (first == std::string_view::npos) {
      continue;  // blank
    }
    if (line[first] == ';') {
      const auto [key, value] = parse_header_comment(line.substr(first));
      if (!key.empty()) {
        log.header.fields.try_emplace(std::string(key), value);  // first wins
      }
      continue;
    }

    const std::size_t count = reader.split(f);
    if (count < kSwfFields) {
      reader.fail("expected " + std::to_string(kSwfFields) +
                  " fields (SWF job record), got " + std::to_string(count));
    }
    SwfJob job;
    job.id = reader.number<std::int64_t>(f[0], "job id");
    job.submit = finite(reader, f[1], "submit time");
    job.wait = finite(reader, f[2], "wait time");
    job.runtime = finite(reader, f[3], "run time");
    job.procs = reader.number<std::int64_t>(f[4], "allocated processors");
    (void)finite(reader, f[5], "average cpu time");
    (void)finite(reader, f[6], "used memory");
    job.requested_procs =
        reader.number<std::int64_t>(f[7], "requested processors");
    job.requested_time = finite(reader, f[8], "requested time");
    (void)finite(reader, f[9], "requested memory");
    job.status = static_cast<int>(reader.number<std::int64_t>(f[10], "status"));
    job.user = reader.number<std::int64_t>(f[11], "user id");
    (void)reader.number<std::int64_t>(f[12], "group id");
    job.executable = reader.number<std::int64_t>(f[13], "executable id");
    (void)reader.number<std::int64_t>(f[14], "queue");
    (void)reader.number<std::int64_t>(f[15], "partition");
    (void)reader.number<std::int64_t>(f[16], "preceding job");
    (void)finite(reader, f[17], "think time");

    if (job.submit < 0.0) {
      reader.fail("submit time must be non-negative");
    }
    // SWF logs are submit-ordered by definition; the arrival compilation
    // depends on it, so an out-of-order record is a corrupt log.
    if (job.submit < last_submit) {
      reader.fail("submit times must be non-decreasing (got " +
                  format_significant(job.submit, 6) + " after " +
                  format_significant(last_submit, 6) + ")");
    }
    last_submit = job.submit;
    log.jobs.push_back(job);
  }
  return log;
}

SwfLog read_swf_file(const std::string& path) {
  return read_swf_string(read_text_file(path, "SWF"));
}

void write_swf(std::ostream& out, const SwfLog& log) {
  out << write_swf_string(log);
}

std::string write_swf_string(const SwfLog& log) {
  RecordWriter out;
  for (const auto& [key, value] : log.header.fields) {
    out.field(";").field(key + ":").field(value).end_record();
  }
  for (const SwfJob& job : log.jobs) {
    out.field(job.id).field(job.submit).field(job.wait).field(job.runtime);
    out.field(job.procs).field(-1).field(-1).field(job.requested_procs);
    out.field(job.requested_time).field(-1).field(job.status).field(job.user);
    out.field(-1).field(job.executable).field(-1).field(-1).field(-1);
    out.field(-1).end_record();
  }
  return out.take();
}

void write_swf_file(const std::string& path, const SwfLog& log) {
  write_text_file(path, "SWF", write_swf_string(log));
}

std::vector<SwfJob> usable_jobs(const SwfLog& log, bool include_failed) {
  std::vector<SwfJob> jobs;
  jobs.reserve(log.jobs.size());
  for (const SwfJob& job : log.jobs) {
    if (!include_failed && !job.completed()) {
      continue;
    }
    if (!(job.runtime > 0.0)) {
      continue;  // unknown or zero runtime cannot be simulated
    }
    SwfJob kept = job;
    if (kept.procs <= 0) {
      kept.procs = kept.requested_procs;
    }
    if (kept.procs <= 0) {
      continue;  // no processor count at all
    }
    jobs.push_back(kept);
  }
  return jobs;
}

}  // namespace aheft::archive
