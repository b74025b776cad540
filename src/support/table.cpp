#include "support/table.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/assert.h"
#include "support/record_reader.h"

namespace aheft {

namespace {

bool looks_numeric(std::string_view cell) {
  // Allow a trailing '%' so percentage columns right-align too.
  if (cell.ends_with('%')) {
    cell.remove_suffix(1);
  }
  return parse_number<double>(cell).has_value();
}

}  // namespace

AsciiTable::AsciiTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  AHEFT_REQUIRE(!header_.empty(), "table needs at least one column");
}

AsciiTable& AsciiTable::add_row(std::vector<std::string> cells) {
  AHEFT_REQUIRE(cells.size() == header_.size(),
                "row width must match header width");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string AsciiTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "| " : " ");
      const bool right = looks_numeric(row[c]);
      const auto pad = widths[c] - row[c].size();
      if (right) {
        os << std::string(pad, ' ') << row[c];
      } else {
        os << row[c] << std::string(pad, ' ');
      }
      os << " |";
    }
    os << '\n';
  };

  emit_row(header_);
  os << '|';
  for (const std::size_t w : widths) {
    os << std::string(w + 2, '-') << '|';
  }
  os << '\n';
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return os.str();
}

std::string format_double(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string format_percent(double ratio, int precision) {
  return format_double(ratio * 100.0, precision) + "%";
}

}  // namespace aheft
