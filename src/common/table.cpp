#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/check.h"

namespace harmony {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  HARMONY_CHECK(!headers_.empty());
}

TextTable& TextTable::add_row(std::vector<std::string> cells) {
  HARMONY_CHECK_MSG(cells.size() == headers_.size(),
                    "row width must match header width");
  rows_.push_back(std::move(cells));
  return *this;
}

std::string TextTable::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string TextTable::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string TextTable::money(double dollars) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "$%.2f", dollars);
  return buf;
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto rule = [&] {
    os << '+';
    for (auto w : widths) os << std::string(w + 2, '-') << '+';
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c] << std::string(widths[c] - cells[c].size(), ' ')
         << " |";
    }
    os << '\n';
  };
  rule();
  line(headers_);
  rule();
  for (const auto& row : rows_) line(row);
  rule();
}

std::string TextTable::to_csv() const {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (c) os << ',';
      // Quote cells containing separators; enough for our numeric tables.
      if (cells[c].find_first_of(",\"\n") != std::string::npos) {
        os << '"';
        for (char ch : cells[c]) {
          if (ch == '"') os << '"';
          os << ch;
        }
        os << '"';
      } else {
        os << cells[c];
      }
    }
    os << '\n';
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  t.print(os);
  return os;
}

}  // namespace harmony
