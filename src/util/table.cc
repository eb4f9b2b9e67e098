#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.h"

namespace rdfsr {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  RDFSR_CHECK(!header_.empty());
}

void TextTable::AddRow(std::vector<std::string> row) {
  RDFSR_CHECK_EQ(row.size(), header_.size()) << "row arity mismatch";
  rows_.push_back(std::move(row));
}

std::string TextTable::ToString() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto rule = [&] {
    std::string s = "+";
    for (std::size_t w : widths) s += std::string(w + 2, '-') + "+";
    s += "\n";
    return s;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      s += " " + cells[c] + std::string(widths[c] - cells[c].size(), ' ') + " |";
    }
    s += "\n";
    return s;
  };

  std::ostringstream out;
  out << rule() << line(header_) << rule();
  for (const auto& row : rows_) out << line(row);
  out << rule();
  return out.str();
}

std::string FormatDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string FormatCount(long long v) {
  std::string digits = std::to_string(v < 0 ? -v : v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (v < 0) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

}  // namespace rdfsr
