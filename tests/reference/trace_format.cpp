// The gridtrace reader and writer as they stood before the shared
// support/record_reader module, kept verbatim (namespace and call
// qualification aside) as the differential oracle for
// tests/test_ingest_fuzz.cpp. Test code only.
#include "reference/reference_readers.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

namespace aheft::reference {

using traces::GridTrace;
using traces::JobArrivalRecord;
using traces::LoadRecord;
using traces::ResourceRecord;

namespace {

constexpr std::string_view kMagic = "gridtrace";
constexpr std::string_view kVersion = "v1";

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw TraceParseError(line, message);
}

/// Splits a line into whitespace-separated tokens, dropping '#' comments.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token.front() == '#') {
      break;
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

/// Locale-independent double parse accepting "inf"; rejects trailing junk.
double parse_time(std::size_t line, const std::string& token,
                  const char* field) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    fail(line, std::string("malformed ") + field + " '" + token + "'");
  }
  if (std::isnan(value)) {
    fail(line, std::string(field) + " must not be NaN");
  }
  return value;
}

std::uint32_t parse_id(std::size_t line, const std::string& token,
                       const char* field) {
  std::uint32_t value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) {
    fail(line, std::string("malformed ") + field + " '" + token + "'");
  }
  return value;
}

void expect_tokens(std::size_t line, const std::vector<std::string>& tokens,
                   std::size_t count, const char* grammar) {
  if (tokens.size() != count) {
    std::ostringstream os;
    os << "expected '" << grammar << "' (" << count << " fields), got "
       << tokens.size();
    fail(line, os.str());
  }
}

/// Round-trip-exact double formatting; infinities become "inf".
std::string format_time(double value) {
  if (std::isinf(value)) {
    return value > 0 ? "inf" : "-inf";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string sanitize_name(std::string name) {
  for (char& c : name) {
    // Names are single tokens on disk: whitespace of any kind (including
    // newlines, which would split the record) and comment markers must
    // not survive serialization.
    if (static_cast<unsigned char>(c) <= ' ' || c == '#') {
      c = '_';
    }
  }
  return name.empty() ? "_" : name;
}

}  // namespace

TraceParseError::TraceParseError(std::size_t line, const std::string& message)
    : std::runtime_error("trace line " + std::to_string(line) + ": " +
                         message),
      line_(line) {}

GridTrace read_trace(std::istream& in) {
  GridTrace trace;
  trace.name.clear();
  bool saw_header = false;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& directive = tokens[0];

    if (!saw_header) {
      if (directive != kMagic) {
        fail(line_number, "expected 'gridtrace v1 <name>' header, got '" +
                              directive + "'");
      }
      expect_tokens(line_number, tokens, 3, "gridtrace v1 <name>");
      if (tokens[1] != kVersion) {
        fail(line_number, "unsupported trace version '" + tokens[1] +
                              "' (this reader understands v1)");
      }
      trace.name = tokens[2];
      saw_header = true;
      continue;
    }

    if (directive == "resource") {
      expect_tokens(line_number, tokens, 5,
                    "resource <id> <arrival> <departure> <name>");
      ResourceRecord record;
      record.id = parse_id(line_number, tokens[1], "resource id");
      record.arrival = parse_time(line_number, tokens[2], "arrival");
      record.departure = parse_time(line_number, tokens[3], "departure");
      record.name = tokens[4];
      if (record.id != trace.resources.size()) {
        fail(line_number,
             "resource ids must be dense and ascending from 0 (expected " +
                 std::to_string(trace.resources.size()) + ", got " +
                 std::to_string(record.id) + ")");
      }
      if (record.arrival < 0.0) {
        fail(line_number, "arrival must be non-negative");
      }
      if (!(record.departure > record.arrival)) {
        fail(line_number, "departure must be later than arrival");
      }
      trace.resources.push_back(std::move(record));
    } else if (directive == "load") {
      expect_tokens(line_number, tokens, 5,
                    "load <resource-id> <start> <end> <multiplier>");
      LoadRecord record;
      record.resource = parse_id(line_number, tokens[1], "resource id");
      record.start = parse_time(line_number, tokens[2], "start");
      record.end = parse_time(line_number, tokens[3], "end");
      record.multiplier = parse_time(line_number, tokens[4], "multiplier");
      if (record.resource >= trace.resources.size()) {
        fail(line_number, "load references undeclared resource " +
                              std::to_string(record.resource) +
                              " (declare resources before load records)");
      }
      if (record.start < 0.0) {
        fail(line_number, "load start must be non-negative");
      }
      if (!(record.end > record.start)) {
        fail(line_number, "load segment must end after it starts");
      }
      if (!(record.multiplier > 0.0) || std::isinf(record.multiplier)) {
        fail(line_number, "load multiplier must be finite and > 0");
      }
      trace.load.push_back(record);
    } else if (directive == "job") {
      expect_tokens(line_number, tokens, 4, "job <id> <arrival> <name>");
      JobArrivalRecord record;
      record.job = parse_id(line_number, tokens[1], "job id");
      record.arrival = parse_time(line_number, tokens[2], "arrival");
      record.name = tokens[3];
      if (record.job != trace.jobs.size()) {
        fail(line_number,
             "job ids must be dense and ascending from 0 (expected " +
                 std::to_string(trace.jobs.size()) + ", got " +
                 std::to_string(record.job) + ")");
      }
      if (record.arrival < 0.0) {
        fail(line_number, "job arrival must be non-negative");
      }
      trace.jobs.push_back(std::move(record));
    } else {
      fail(line_number, "unknown directive '" + directive + "'");
    }
  }
  if (!saw_header) {
    fail(line_number == 0 ? 1 : line_number,
         "empty trace: missing 'gridtrace v1 <name>' header");
  }
  return trace;
}

GridTrace read_trace_string(std::string_view text) {
  std::istringstream in{std::string(text)};
  return read_trace(in);
}

GridTrace read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open trace file '" + path + "'");
  }
  return read_trace(in);
}

void write_trace(std::ostream& out, const GridTrace& trace) {
  out << kMagic << ' ' << kVersion << ' ' << sanitize_name(trace.name)
      << '\n';
  for (const ResourceRecord& r : trace.resources) {
    out << "resource " << r.id << ' ' << format_time(r.arrival) << ' '
        << format_time(r.departure) << ' ' << sanitize_name(r.name) << '\n';
  }
  for (const LoadRecord& l : trace.load) {
    out << "load " << l.resource << ' ' << format_time(l.start) << ' '
        << format_time(l.end) << ' ' << format_time(l.multiplier) << '\n';
  }
  for (const JobArrivalRecord& j : trace.jobs) {
    out << "job " << j.job << ' ' << format_time(j.arrival) << ' '
        << sanitize_name(j.name) << '\n';
  }
}

std::string write_trace_string(const GridTrace& trace) {
  std::ostringstream out;
  reference::write_trace(out, trace);
  return out.str();
}

void write_trace_file(const std::string& path, const GridTrace& trace) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot create trace file '" + path + "'");
  }
  reference::write_trace(out, trace);
  if (!out.flush()) {
    throw std::runtime_error("failed writing trace file '" + path + "'");
  }
}

}  // namespace aheft::reference
