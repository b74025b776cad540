#include "support/record_reader.h"

#include <algorithm>
#include <fstream>
#include <iterator>

namespace aheft {

RecordParseError::RecordParseError(std::string_view format, std::size_t line,
                                   const std::string& message)
    : std::runtime_error(std::string(format) + " line " +
                         std::to_string(line) + ": " + message),
      format_(format),
      line_(line) {}

bool RecordReader::next_line() {
  if (rest_.empty()) {
    return false;
  }
  const std::size_t end = std::min(rest_.find('\n'), rest_.size());
  line_ = rest_.substr(0, end);
  rest_.remove_prefix(std::min(end + 1, rest_.size()));
  ++line_number_;
  return true;
}

std::size_t RecordReader::split(std::span<std::string_view> fields,
                                std::optional<char> comment) const {
  std::size_t count = 0;
  std::size_t at = line_.find_first_not_of(kFieldSpace);
  while (at != std::string_view::npos) {
    if (comment && line_[at] == *comment) {
      break;
    }
    const std::size_t end =
        std::min(line_.find_first_of(kFieldSpace, at), line_.size());
    if (count < fields.size()) {
      fields[count] = line_.substr(at, end - at);
    }
    ++count;
    at = line_.find_first_not_of(kFieldSpace, end);
  }
  return count;
}

void RecordReader::fail(const std::string& message) const {
  throw RecordParseError(format_, std::max<std::size_t>(line_number_, 1),
                         message);
}

void RecordReader::malformed(std::string_view field, const char* name) const {
  fail(std::string("malformed ") + name + " '" + std::string(field) + "'");
}

std::string format_significant(double value, int digits) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, digits);
  return std::string(buffer, result.ptr);
}

std::string read_stream(std::istream& in) {
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string read_text_file(const std::string& path, std::string_view kind) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + std::string(kind) + " file '" +
                             path + "'");
  }
  return read_stream(in);
}

void write_text_file(const std::string& path, std::string_view kind,
                     std::string_view text) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot create " + std::string(kind) +
                             " file '" + path + "'");
  }
  out << text;
  if (!out.flush()) {
    throw std::runtime_error("failed writing " + std::string(kind) +
                             " file '" + path + "'");
  }
}

}  // namespace aheft
