// Test oracle: the explicit subject x property matrix M(D) of Section 2.1 and
// everything the tests define on it. The library never materializes M(D) —
// schema::IndexBuilder folds (subject, property) pairs straight into the
// signature index — so the dense view lives here, as the reference the
// index-level machinery is checked against:
//
//  * DenseMatrix: M(D) with named rows and columns, built from explicit rows,
//    from a graph, or from a graph's sort slice D_t (type triples excluded);
//  * GroupRows: the canonical grouping of a matrix's rows into signature sets
//    ((count desc, support lex asc) order), which index_builder_test compares
//    IndexBuilder against;
//  * ExpandIndex: a signature index expanded back to one row per subject,
//    each row tagged with its signature id (IndexOf goes the other way,
//    through the library's IndexBuilder, to give tests small named indexes);
//  * the brute-force rule semantics of Section 3.2 (Satisfies,
//    CountSatisfying, EvaluateBruteForce), enumerating all |S x P|^n cell
//    assignments — the ground truth for eval/'s signature-level counting;
//  * GenerateRandomMatrix: random valid matrices (no empty row or column) for
//    property tests.

#ifndef RDFSR_TESTS_DENSE_MATRIX_ORACLE_H_
#define RDFSR_TESTS_DENSE_MATRIX_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rdf/graph.h"
#include "rdf/vocab.h"
#include "rules/ast.h"
#include "schema/index_builder.h"
#include "schema/signature_index.h"
#include "util/check.h"
#include "util/rng.h"

namespace rdfsr::oracle {

/// Explicit 0/1 subject x property matrix with named rows and columns.
class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Builds a matrix from rows of 0/1 cells. Subjects are named
  /// "s0","s1",... and properties "p0","p1",... unless names are given.
  static DenseMatrix FromRows(const std::vector<std::vector<int>>& rows,
                              std::vector<std::string> subject_names = {},
                              std::vector<std::string> property_names = {}) {
    DenseMatrix m;
    const std::size_t ncols =
        rows.empty() ? property_names.size() : rows[0].size();
    if (subject_names.empty()) {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        subject_names.emplace_back("s") += std::to_string(r);
      }
    }
    if (property_names.empty()) {
      for (std::size_t c = 0; c < ncols; ++c) {
        property_names.emplace_back("p") += std::to_string(c);
      }
    }
    RDFSR_CHECK_EQ(subject_names.size(), rows.size());
    RDFSR_CHECK_EQ(property_names.size(), ncols);

    m.subject_names_ = std::move(subject_names);
    m.property_names_ = std::move(property_names);
    m.cells_.assign(rows.size() * ncols, 0);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      RDFSR_CHECK_EQ(rows[r].size(), ncols) << "ragged row " << r;
      for (std::size_t c = 0; c < ncols; ++c) {
        RDFSR_CHECK(rows[r][c] == 0 || rows[r][c] == 1);
        m.cells_[r * ncols + c] = static_cast<std::uint8_t>(rows[r][c]);
      }
    }
    return m;
  }

  /// M(D) of a whole graph. Row order follows the first appearance of each
  /// subject in D; column order the first appearance of each property.
  static DenseMatrix FromGraph(const rdf::Graph& graph) {
    return FromTriples(graph, [](const rdf::Triple&) { return true; });
  }

  /// M(D_t) of the sort slice: the non-type triples of every subject
  /// declared (s, rdf:type, t). Empty when t or rdf:type is unknown.
  /// `slice_triples`, if non-null, receives |D_t|.
  static DenseMatrix FromSortSlice(const rdf::Graph& graph,
                                   std::string_view type_iri,
                                   std::size_t* slice_triples = nullptr) {
    std::size_t n = 0;
    DenseMatrix m;
    const rdf::TermId type_prop = graph.dict().FindIri(rdf::vocab::kRdfType);
    const rdf::TermId sort = graph.dict().FindIri(type_iri);
    if (type_prop != rdf::kInvalidTermId && sort != rdf::kInvalidTermId) {
      std::unordered_set<rdf::TermId> members;
      for (const rdf::Triple& t : graph.triples()) {
        if (t.predicate == type_prop && t.object == sort) {
          members.insert(t.subject);
        }
      }
      m = FromTriples(graph, [&](const rdf::Triple& t) {
        const bool in_slice =
            t.predicate != type_prop && members.count(t.subject) > 0;
        n += in_slice ? 1 : 0;
        return in_slice;
      });
    }
    if (slice_triples != nullptr) *slice_triples = n;
    return m;
  }

  std::size_t num_subjects() const { return subject_names_.size(); }
  std::size_t num_properties() const { return property_names_.size(); }

  /// Cell value (0 or 1).
  int At(std::size_t subject, std::size_t property) const {
    RDFSR_CHECK_LT(subject, num_subjects());
    RDFSR_CHECK_LT(property, num_properties());
    return cells_[subject * num_properties() + property] ? 1 : 0;
  }

  const std::string& subject_name(std::size_t s) const {
    RDFSR_CHECK_LT(s, subject_names_.size());
    return subject_names_[s];
  }
  const std::string& property_name(std::size_t p) const {
    RDFSR_CHECK_LT(p, property_names_.size());
    return property_names_[p];
  }

 private:
  /// The matrix of the triples `keep` accepts, rows and columns in
  /// first-appearance order.
  template <typename Keep>
  static DenseMatrix FromTriples(const rdf::Graph& graph, Keep keep) {
    DenseMatrix m;
    const rdf::Dictionary& dict = graph.dict();
    std::unordered_map<rdf::TermId, std::size_t> subj_index;
    std::unordered_map<rdf::TermId, std::size_t> prop_index;
    std::vector<std::pair<std::size_t, std::size_t>> ones;
    for (const rdf::Triple& t : graph.triples()) {
      if (!keep(t)) continue;
      auto [s, new_s] = subj_index.emplace(t.subject, subj_index.size());
      if (new_s) m.subject_names_.push_back(dict.term(t.subject).lexical);
      auto [p, new_p] = prop_index.emplace(t.predicate, prop_index.size());
      if (new_p) m.property_names_.push_back(dict.term(t.predicate).lexical);
      ones.emplace_back(s->second, p->second);
    }
    m.cells_.assign(m.num_subjects() * m.num_properties(), 0);
    for (const auto& [r, c] : ones) m.cells_[r * m.num_properties() + c] = 1;
    return m;
  }

  std::vector<std::string> subject_names_;
  std::vector<std::string> property_names_;
  std::vector<std::uint8_t> cells_;  // row-major
};

/// The rows of a matrix grouped into signature sets, in the canonical
/// (count desc, support lex asc) order a SignatureIndex uses.
struct Grouping {
  std::vector<std::vector<int>> supports;  ///< sorted property ids
  std::vector<std::int64_t> counts;
  std::vector<int> row_signature;  ///< matrix row -> signature id
};

inline Grouping GroupRows(const DenseMatrix& matrix) {
  std::map<std::vector<int>, std::vector<int>> rows_by_support;
  for (std::size_t r = 0; r < matrix.num_subjects(); ++r) {
    std::vector<int> support;
    for (std::size_t p = 0; p < matrix.num_properties(); ++p) {
      if (matrix.At(r, p)) support.push_back(static_cast<int>(p));
    }
    rows_by_support[support].push_back(static_cast<int>(r));
  }
  std::vector<std::pair<std::vector<int>, std::vector<int>>> groups(
      rows_by_support.begin(), rows_by_support.end());
  std::stable_sort(groups.begin(), groups.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.size() > b.second.size();
                   });
  Grouping grouping;
  grouping.row_signature.assign(matrix.num_subjects(), -1);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    grouping.supports.push_back(groups[i].first);
    grouping.counts.push_back(
        static_cast<std::int64_t>(groups[i].second.size()));
    for (int r : groups[i].second) {
      grouping.row_signature[r] = static_cast<int>(i);
    }
  }
  return grouping;
}

/// A signature index expanded back to M(D): one row per subject, signatures
/// in index order, columns in the index's property order.
struct Expansion {
  DenseMatrix matrix;  ///< subjects named "sig<i>_<j>"
  std::vector<int> row_signature;  ///< matrix row -> signature id
};

inline Expansion ExpandIndex(const schema::SignatureIndex& index) {
  std::vector<std::vector<int>> rows;
  std::vector<std::string> subject_names;
  Expansion expansion;
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    std::vector<int> row(index.num_properties(), 0);
    for (int p : index.signature(i).support()) row[p] = 1;
    for (std::int64_t j = 0; j < index.signature(i).count; ++j) {
      rows.push_back(row);
      subject_names.push_back("sig" + std::to_string(i) + "_" +
                              std::to_string(j));
      expansion.row_signature.push_back(static_cast<int>(i));
    }
  }
  expansion.matrix = DenseMatrix::FromRows(rows, std::move(subject_names),
                                           index.property_names());
  return expansion;
}

/// The index of a matrix built the library's way — not a reference, a test
/// fixture: names are interned into a dictionary and the 1-cells fed to
/// schema::IndexBuilder column by column, so the index keeps the matrix's
/// column order whenever no column is empty.
inline schema::SignatureIndex IndexOf(const DenseMatrix& matrix,
                                      bool keep_subject_names = true) {
  rdf::Dictionary dict;
  std::vector<rdf::TermId> subjects;
  for (std::size_t r = 0; r < matrix.num_subjects(); ++r) {
    subjects.push_back(dict.InternIri(matrix.subject_name(r)));
  }
  schema::IndexBuilder builder;
  for (std::size_t p = 0; p < matrix.num_properties(); ++p) {
    const rdf::TermId property = dict.InternIri(matrix.property_name(p));
    for (std::size_t r = 0; r < matrix.num_subjects(); ++r) {
      if (matrix.At(r, p)) builder.Add(subjects[r], property);
    }
  }
  return builder.Build(dict, keep_subject_names);
}

// --- Brute-force semantics (Section 3.2) --------------------------------
//
// A variable assignment rho maps each rule variable to a cell (s, p) of the
// matrix M. sigma_r(M) = |total(phi1 ∧ phi2, M)| / |total(phi1, M)| (defined
// as 1 when the denominator is 0). This enumerates all |S x P|^n assignments
// and is exponential in the number of variables.

/// A cell position (subject row, property column).
using Cell = std::pair<int, int>;

namespace internal {

inline int VarIndex(const std::vector<std::string>& variables,
                    const std::string& v) {
  auto it = std::find(variables.begin(), variables.end(), v);
  RDFSR_CHECK(it != variables.end()) << "unbound rule variable '" << v << "'";
  return static_cast<int>(it - variables.begin());
}

}  // namespace internal

/// Evaluates the satisfaction relation (M, rho) |= phi. `variables` and
/// `cells` are parallel: variables[i] is assigned cells[i]. All variables of
/// phi must be assigned.
inline bool Satisfies(const rules::FormulaPtr& phi, const DenseMatrix& matrix,
                      const std::vector<std::string>& variables,
                      const std::vector<Cell>& cells) {
  using internal::VarIndex;
  using rules::FormulaKind;
  RDFSR_CHECK(phi != nullptr);
  RDFSR_CHECK_EQ(variables.size(), cells.size());
  switch (phi->kind) {
    case FormulaKind::kValEqConst: {
      const Cell c = cells[VarIndex(variables, phi->var1)];
      return matrix.At(c.first, c.second) == phi->value;
    }
    case FormulaKind::kSubjEqConst: {
      const Cell c = cells[VarIndex(variables, phi->var1)];
      return matrix.subject_name(c.first) == phi->constant;
    }
    case FormulaKind::kPropEqConst: {
      const Cell c = cells[VarIndex(variables, phi->var1)];
      return matrix.property_name(c.second) == phi->constant;
    }
    case FormulaKind::kVarEq: {
      const Cell a = cells[VarIndex(variables, phi->var1)];
      const Cell b = cells[VarIndex(variables, phi->var2)];
      return a == b;
    }
    case FormulaKind::kValEqVal: {
      const Cell a = cells[VarIndex(variables, phi->var1)];
      const Cell b = cells[VarIndex(variables, phi->var2)];
      return matrix.At(a.first, a.second) == matrix.At(b.first, b.second);
    }
    case FormulaKind::kSubjEqSubj: {
      const Cell a = cells[VarIndex(variables, phi->var1)];
      const Cell b = cells[VarIndex(variables, phi->var2)];
      return a.first == b.first;
    }
    case FormulaKind::kPropEqProp: {
      const Cell a = cells[VarIndex(variables, phi->var1)];
      const Cell b = cells[VarIndex(variables, phi->var2)];
      return a.second == b.second;
    }
    case FormulaKind::kNot:
      return !Satisfies(phi->left, matrix, variables, cells);
    case FormulaKind::kAnd:
      return Satisfies(phi->left, matrix, variables, cells) &&
             Satisfies(phi->right, matrix, variables, cells);
    case FormulaKind::kOr:
      return Satisfies(phi->left, matrix, variables, cells) ||
             Satisfies(phi->right, matrix, variables, cells);
  }
  return false;
}

namespace internal {

/// Counts of the assignments satisfying phi and, when phi2 is non-null, of
/// those also satisfying phi2.
struct EnumerationCounts {
  std::int64_t phi_count = 0;
  std::int64_t both_count = 0;
};

inline EnumerationCounts EnumerateAll(const rules::FormulaPtr& phi,
                                      const rules::FormulaPtr& phi2,
                                      const DenseMatrix& matrix,
                                      const std::vector<std::string>& variables) {
  EnumerationCounts counts;
  const std::int64_t subjects = static_cast<std::int64_t>(matrix.num_subjects());
  const std::int64_t props = static_cast<std::int64_t>(matrix.num_properties());
  const std::int64_t cells = subjects * props;
  if (cells == 0 || variables.empty()) return counts;

  std::vector<Cell> assignment(variables.size());
  std::vector<std::int64_t> odometer(variables.size(), 0);
  while (true) {
    for (std::size_t i = 0; i < variables.size(); ++i) {
      assignment[i] = {static_cast<int>(odometer[i] / props),
                       static_cast<int>(odometer[i] % props)};
    }
    if (Satisfies(phi, matrix, variables, assignment)) {
      ++counts.phi_count;
      if (phi2 != nullptr &&
          Satisfies(phi2, matrix, variables, assignment)) {
        ++counts.both_count;
      }
    }
    // Advance the odometer.
    std::size_t pos = 0;
    while (pos < odometer.size()) {
      if (++odometer[pos] < cells) break;
      odometer[pos] = 0;
      ++pos;
    }
    if (pos == odometer.size()) break;
  }
  return counts;
}

}  // namespace internal

/// |total(phi, M)|: the number of satisfying assignments with domain exactly
/// var(phi) (enumerated brute-force).
inline std::int64_t CountSatisfying(const rules::FormulaPtr& phi,
                                    const DenseMatrix& matrix) {
  std::vector<std::string> variables;
  rules::CollectVariables(phi, &variables);
  return internal::EnumerateAll(phi, nullptr, matrix, variables).phi_count;
}

/// An exact structuredness value: favorable / total case counts.
struct SigmaValue {
  std::int64_t favorable = 0;
  std::int64_t total = 0;

  /// sigma as a double; 1.0 when there are no total cases (paper convention).
  double Value() const {
    return total == 0 ? 1.0 : static_cast<double>(favorable) / total;
  }
};

/// sigma_r(M) by brute-force enumeration over assignments of var(phi1).
inline SigmaValue EvaluateBruteForce(const rules::Rule& rule,
                                     const DenseMatrix& matrix) {
  const internal::EnumerationCounts counts = internal::EnumerateAll(
      rule.antecedent(), rule.consequent(), matrix, rule.variables());
  SigmaValue sigma;
  sigma.total = counts.phi_count;
  sigma.favorable = counts.both_count;
  return sigma;
}

// --- Random matrices ------------------------------------------------------

/// Shape of a random explicit matrix.
struct RandomMatrixSpec {
  int num_subjects = 6;
  int num_properties = 4;
  double density = 0.5;  ///< Bernoulli probability of a 1 cell.
  std::uint64_t seed = 1;
};

/// Random 0/1 matrix with no all-zero row and no all-zero column.
inline DenseMatrix GenerateRandomMatrix(const RandomMatrixSpec& spec) {
  RDFSR_CHECK_GT(spec.num_subjects, 0);
  RDFSR_CHECK_GT(spec.num_properties, 0);
  Rng rng(spec.seed);
  std::vector<std::vector<int>> rows(
      spec.num_subjects, std::vector<int>(spec.num_properties, 0));
  for (auto& row : rows) {
    for (int p = 0; p < spec.num_properties; ++p) {
      row[p] = rng.Chance(spec.density) ? 1 : 0;
    }
  }
  // Repair all-zero rows (subjects must have >= 1 property) and all-zero
  // columns (properties must be mentioned).
  for (auto& row : rows) {
    bool any = false;
    for (int v : row) any = any || v == 1;
    if (!any) row[rng.Below(spec.num_properties)] = 1;
  }
  for (int p = 0; p < spec.num_properties; ++p) {
    bool any = false;
    for (const auto& row : rows) any = any || row[p] == 1;
    if (!any) rows[rng.Below(spec.num_subjects)][p] = 1;
  }
  return DenseMatrix::FromRows(rows);
}

}  // namespace rdfsr::oracle

#endif  // RDFSR_TESTS_DENSE_MATRIX_ORACLE_H_
