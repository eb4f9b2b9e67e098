// Plain-text table rendering used by the benchmark harness to print the paper's
// tables (Table 1, Table 2, the Section 7.4 confusion matrix, ...).

#ifndef RDFSR_UTIL_TABLE_H_
#define RDFSR_UTIL_TABLE_H_

#include <string>
#include <vector>

namespace rdfsr {

/// A simple left/right-aligned monospace table.
///
/// Usage:
///   TextTable t({"p1", "p2", "sigma"});
///   t.AddRow({"givenName", "surName", "1.00"});
///   std::cout << t.ToString();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Appends a data row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  std::size_t num_rows() const { return rows_.size(); }

  /// Renders with column padding and a rule under the header.
  std::string ToString() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with `digits` fractional digits ("0.54").
std::string FormatDouble(double v, int digits = 2);

/// Formats a count with thousands separators ("790,703").
std::string FormatCount(long long v);

}  // namespace rdfsr

#endif  // RDFSR_UTIL_TABLE_H_
