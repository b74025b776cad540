#include "traces/trace_format.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <istream>
#include <ostream>

namespace aheft::traces {

namespace {

constexpr std::string_view kMagic = "gridtrace";
constexpr std::string_view kVersion = "v1";

/// Names are single tokens on disk, and '#' starts a comment, so the
/// writer turns whitespace, control bytes and '#' into '_'.
bool name_byte(char c) {
  return static_cast<unsigned char>(c) > ' ' && c != '#';
}

std::string sanitize_name(std::string name) {
  std::replace_if(
      name.begin(), name.end(), [](char c) { return !name_byte(c); }, '_');
  return name.empty() ? "_" : name;
}

/// A name the writer would rewrite cannot round-trip, so the reader
/// refuses it. Checked after the rest of the record.
std::string parse_name(const RecordReader& reader, std::string_view field) {
  if (!std::all_of(field.begin(), field.end(), name_byte)) {
    reader.fail("names must not contain '#' or control bytes");
  }
  return std::string(field);
}

/// Trace times accept "inf" (open ends) but never NaN.
double parse_time(const RecordReader& reader, std::string_view field,
                  const char* name) {
  const double value = reader.number<double>(field, name);
  if (std::isnan(value)) {
    reader.fail(std::string(name) + " must not be NaN");
  }
  return value;
}

}  // namespace

GridTrace read_trace(std::istream& in) {
  return read_trace_string(read_stream(in));
}

GridTrace read_trace_string(std::string_view text) {
  RecordReader reader("trace", text);
  GridTrace trace;
  trace.name.clear();
  bool saw_header = false;
  std::array<std::string_view, 5> f;
  while (reader.next_line()) {
    const std::size_t count = reader.split(f, '#');
    if (count == 0) {
      continue;
    }
    const auto expect_fields = [&](std::size_t want, const char* grammar) {
      if (count != want) {
        reader.fail("expected '" + std::string(grammar) + "' (" +
                    std::to_string(want) + " fields), got " +
                    std::to_string(count));
      }
    };
    const std::string_view directive = f[0];

    if (!saw_header) {
      if (directive != kMagic) {
        reader.fail("expected 'gridtrace v1 <name>' header, got '" +
                    std::string(directive) + "'");
      }
      expect_fields(3, "gridtrace v1 <name>");
      if (f[1] != kVersion) {
        reader.fail("unsupported trace version '" + std::string(f[1]) +
                    "' (this reader understands v1)");
      }
      trace.name = parse_name(reader, f[2]);
      saw_header = true;
      continue;
    }

    if (directive == "resource") {
      expect_fields(5, "resource <id> <arrival> <departure> <name>");
      ResourceRecord record;
      record.id = reader.number<std::uint32_t>(f[1], "resource id");
      record.arrival = parse_time(reader, f[2], "arrival");
      record.departure = parse_time(reader, f[3], "departure");
      if (record.id != trace.resources.size()) {
        reader.fail(
            "resource ids must be dense and ascending from 0 (expected " +
            std::to_string(trace.resources.size()) + ", got " +
            std::to_string(record.id) + ")");
      }
      if (record.arrival < 0.0) {
        reader.fail("arrival must be non-negative");
      }
      if (!(record.departure > record.arrival)) {
        reader.fail("departure must be later than arrival");
      }
      record.name = parse_name(reader, f[4]);
      trace.resources.push_back(std::move(record));
    } else if (directive == "load") {
      expect_fields(5, "load <resource-id> <start> <end> <multiplier>");
      LoadRecord record;
      record.resource = reader.number<std::uint32_t>(f[1], "resource id");
      record.start = parse_time(reader, f[2], "start");
      record.end = parse_time(reader, f[3], "end");
      record.multiplier = parse_time(reader, f[4], "multiplier");
      if (record.resource >= trace.resources.size()) {
        reader.fail("load references undeclared resource " +
                    std::to_string(record.resource) +
                    " (declare resources before load records)");
      }
      if (record.start < 0.0) {
        reader.fail("load start must be non-negative");
      }
      if (!(record.end > record.start)) {
        reader.fail("load segment must end after it starts");
      }
      if (!(record.multiplier > 0.0) || std::isinf(record.multiplier)) {
        reader.fail("load multiplier must be finite and > 0");
      }
      trace.load.push_back(record);
    } else if (directive == "job") {
      expect_fields(4, "job <id> <arrival> <name>");
      JobArrivalRecord record;
      record.job = reader.number<std::uint32_t>(f[1], "job id");
      record.arrival = parse_time(reader, f[2], "arrival");
      if (record.job != trace.jobs.size()) {
        reader.fail("job ids must be dense and ascending from 0 (expected " +
                    std::to_string(trace.jobs.size()) + ", got " +
                    std::to_string(record.job) + ")");
      }
      if (record.arrival < 0.0) {
        reader.fail("job arrival must be non-negative");
      }
      record.name = parse_name(reader, f[3]);
      trace.jobs.push_back(std::move(record));
    } else {
      reader.fail("unknown directive '" + std::string(directive) + "'");
    }
  }
  if (!saw_header) {
    reader.fail("empty trace: missing 'gridtrace v1 <name>' header");
  }
  return trace;
}

GridTrace read_trace_file(const std::string& path) {
  return read_trace_string(read_text_file(path, "trace"));
}

void write_trace(std::ostream& out, const GridTrace& trace) {
  out << write_trace_string(trace);
}

std::string write_trace_string(const GridTrace& trace) {
  RecordWriter out;
  out.field(kMagic).field(kVersion).field(sanitize_name(trace.name));
  out.end_record();
  for (const ResourceRecord& r : trace.resources) {
    out.field("resource").field(r.id).field(r.arrival).field(r.departure);
    out.field(sanitize_name(r.name)).end_record();
  }
  for (const LoadRecord& l : trace.load) {
    out.field("load").field(l.resource).field(l.start).field(l.end);
    out.field(l.multiplier).end_record();
  }
  for (const JobArrivalRecord& j : trace.jobs) {
    out.field("job").field(j.job).field(j.arrival);
    out.field(sanitize_name(j.name)).end_record();
  }
  return out.take();
}

void write_trace_file(const std::string& path, const GridTrace& trace) {
  write_text_file(path, "trace", write_trace_string(trace));
}

}  // namespace aheft::traces
