// Line-oriented text records: the one tokenizer, field parser, exact
// double formatter, parse error and file helpers behind the gridtrace
// (traces/trace_format.h) and SWF (archive/swf_reader.h) readers.
//
// Rules every format read through here shares:
//   - Lines split at '\n' the way std::getline does: numbered from 1, a
//     final line without '\n' still counts, and a trailing '\n' does not
//     open an empty last line.
//   - Fields are separated by the C-locale whitespace set " \t\n\v\f\r"
//     (what `istream >>` skips), so CRLF line ends and tabs are plain
//     separators. Every other byte, NUL included, belongs to a field.
//   - Numeric fields go through std::from_chars (locale-independent) and
//     must consume the whole field: "5abc" is malformed, not 5.
//   - Doubles are written with 17 significant digits, so write -> read
//     reproduces every finite value and both infinities exactly.
// Comment syntax, record grammars and validation stay with each format.
#ifndef AHEFT_SUPPORT_RECORD_READER_H_
#define AHEFT_SUPPORT_RECORD_READER_H_

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace aheft {

/// Field separators: exactly the C-locale isspace set.
inline constexpr std::string_view kFieldSpace = " \t\n\v\f\r";

/// The whole of `text` as a T through std::from_chars: no leading
/// whitespace or '+', no trailing junk, no overflow. Empty on anything
/// else.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// Parse failure in a line-oriented format. what() reads
/// "<format> line <N>: <message>".
class RecordParseError : public std::runtime_error {
 public:
  RecordParseError(std::string_view format, std::size_t line,
                   const std::string& message);

  [[nodiscard]] const std::string& format() const noexcept { return format_; }
  [[nodiscard]] std::size_t line() const noexcept { return line_; }

 private:
  std::string format_;
  std::size_t line_;
};

/// Walks a text line by line and raises RecordParseError for the current
/// line. Fields are views into the text, which must outlive the reader.
class RecordReader {
 public:
  RecordReader(std::string_view format, std::string_view text)
      : format_(format), rest_(text) {}

  /// Advances to the next line; false once the text is used up.
  bool next_line();
  [[nodiscard]] std::string_view line() const { return line_; }

  /// Splits the current line into fields, stores the first
  /// `fields.size()` of them and returns how many there are in all. With
  /// `comment`, a field starting with that byte ends the line.
  std::size_t split(std::span<std::string_view> fields,
                    std::optional<char> comment = std::nullopt) const;

  /// parse_number<T>(field); fails with "malformed <name> '<field>'"
  /// when that is empty.
  template <typename T>
  [[nodiscard]] T number(std::string_view field, const char* name) const {
    const std::optional<T> value = parse_number<T>(field);
    if (!value) {
      malformed(field, name);
    }
    return *value;
  }

  /// Throws RecordParseError for the current line, numbered from 1; past
  /// the end, for the last line, and for line 1 when there is none.
  [[noreturn]] void fail(const std::string& message) const;
  [[noreturn]] void malformed(std::string_view field, const char* name) const;

 private:
  std::string_view format_;
  std::string_view rest_;
  std::string_view line_;
  std::size_t line_number_ = 0;
};

/// printf("%.*g", digits, value). At the default 17 digits the text reads
/// back as exactly `value`; infinities print as "inf" / "-inf".
[[nodiscard]] std::string format_significant(
    double value, int digits = std::numeric_limits<double>::max_digits10);

/// Builds record text: fields on a line are joined by one space, integers
/// print in decimal and doubles through format_significant (exact).
class RecordWriter {
 public:
  RecordWriter& field(std::string_view text) {
    text_.append(text) += ' ';
    return *this;
  }
  RecordWriter& field(double value) {
    return field(format_significant(value));
  }
  template <std::integral T>
  RecordWriter& field(T value) {
    char buffer[24];
    const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
    return field(std::string_view(buffer, result.ptr));
  }
  /// Ends the current record, which has at least one field, with '\n'.
  void end_record() { text_.back() = '\n'; }

  [[nodiscard]] std::string take() { return std::move(text_); }

 private:
  std::string text_;
};

/// Everything left in `in`.
[[nodiscard]] std::string read_stream(std::istream& in);
/// The whole file; throws std::runtime_error "cannot open <kind> file
/// '<path>'" when it cannot be opened.
[[nodiscard]] std::string read_text_file(const std::string& path,
                                         std::string_view kind);
/// Replaces the file with `text`; throws std::runtime_error when it
/// cannot be created or written.
void write_text_file(const std::string& path, std::string_view kind,
                     std::string_view text);

/// Reads each path once per process through `Read` (a
/// `T(const std::string&)` file reader) and serves that parse from then
/// on: sweeps run hundreds of cases against one file from worker
/// threads. A file rewritten in place mid-process keeps serving its first
/// parse; a read that throws caches nothing. Entries are never erased and
/// std::map nodes are stable, so the returned reference stays valid.
template <auto Read>
const auto& read_once(const std::string& path) {
  using Value = std::remove_cvref_t<decltype(Read(path))>;
  static std::mutex mutex;
  static std::map<std::string, Value, std::less<>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(path);
  if (it == cache.end()) {
    it = cache.emplace(path, Read(path)).first;
  }
  return it->second;
}

}  // namespace aheft

#endif  // AHEFT_SUPPORT_RECORD_READER_H_
