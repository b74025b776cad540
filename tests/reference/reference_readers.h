// The reference SWF and gridtrace readers: the line-by-line
// `istringstream` implementations the shipped readers replaced, kept as
// the oracle the differential fuzzer (tests/test_ingest_fuzz.cpp) checks
// archive/swf_reader and traces/trace_format against. They parse into the
// shipped data types, so results compare with `==`; their parse errors
// are their own types.
#ifndef AHEFT_TESTS_REFERENCE_REFERENCE_READERS_H_
#define AHEFT_TESTS_REFERENCE_REFERENCE_READERS_H_

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>

#include "archive/swf_reader.h"
#include "traces/trace_format.h"

namespace aheft::reference {

class SwfParseError : public std::runtime_error {
 public:
  SwfParseError(std::size_t line, const std::string& message);

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

[[nodiscard]] archive::SwfLog read_swf(std::istream& in);
[[nodiscard]] archive::SwfLog read_swf_string(std::string_view text);
[[nodiscard]] archive::SwfLog read_swf_file(const std::string& path);
void write_swf(std::ostream& out, const archive::SwfLog& log);
[[nodiscard]] std::string write_swf_string(const archive::SwfLog& log);
void write_swf_file(const std::string& path, const archive::SwfLog& log);

class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line, const std::string& message);

  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

[[nodiscard]] traces::GridTrace read_trace(std::istream& in);
[[nodiscard]] traces::GridTrace read_trace_string(std::string_view text);
[[nodiscard]] traces::GridTrace read_trace_file(const std::string& path);
void write_trace(std::ostream& out, const traces::GridTrace& trace);
[[nodiscard]] std::string write_trace_string(const traces::GridTrace& trace);
void write_trace_file(const std::string& path,
                      const traces::GridTrace& trace);

}  // namespace aheft::reference

#endif  // AHEFT_TESTS_REFERENCE_REFERENCE_READERS_H_
