// ASCII table / CSV rendering for benchmark output. Every bench binary prints
// the paper's tables through this, so formatting is centralized.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace harmony {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  TextTable& add_row(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 2);
  static std::string pct(double fraction, int precision = 1);  // 0.31 -> "31.0%"
  static std::string money(double dollars);                    // 1.5 -> "$1.50"

  void print(std::ostream& os) const;
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& t);

}  // namespace harmony
