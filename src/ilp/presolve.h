// Root-node presolve for MIP models.
//
// Cheap, provably-safe reductions applied before branch-and-bound:
//   * empty rows: dropped (or infeasibility detected),
//   * singleton rows a*x in [lo, hi]: folded into x's bounds, then dropped,
//   * integer bound rounding: [lb, ub] -> [ceil(lb), floor(ub)],
//   * fixed variables (lb == ub): substituted into every row, then removed,
//   * activity-redundant rows: a row whose worst-case activity range already
//     lies inside [lo, hi] is dropped; one whose best case misses the range
//     proves infeasibility,
//   * implied variable bounds: from each remaining row, the bound on a.x
//     minus the worst-case activity of the other terms tightens each
//     variable's own bounds (classic activity-based bound tightening).
// Applied to a fixpoint (bounded rounds). The Section-6 encodings benefit
// twice: the X-sum rows fix variables k = 1 instances completely, and the
// precedence rows fix the leading X variables of every sort.

#ifndef RDFSR_ILP_PRESOLVE_H_
#define RDFSR_ILP_PRESOLVE_H_

#include <vector>

#include "ilp/model.h"

namespace rdfsr::ilp {

/// Outcome of presolving.
struct PresolveResult {
  /// The reduced model (meaningless when proven_infeasible).
  Model reduced;
  bool proven_infeasible = false;
  /// reduced variable index -> original variable index.
  std::vector<int> variable_map;
  /// Per original variable: its fixed value, or NaN when still free.
  std::vector<double> fixed_values;

  /// Lifts a solution of the reduced model back to the original space.
  std::vector<double> RestoreSolution(const std::vector<double>& reduced_x) const;
};

/// Presolves a model. `max_rounds` bounds the fixpoint iteration.
PresolveResult Presolve(const Model& model, int max_rounds = 10);

/// Bound propagation against external variable bounds (the branch-and-bound
/// root-fixing pass): repeatedly derives implied bounds from every row's
/// activity range, rounding integer bounds each round, and writes the result
/// into *lb / *ub. Returns false when the bounds prove the model infeasible.
/// `budget`, when non-null, caps the work in row-term evaluations; when it
/// runs out propagation stops cleanly (bounds stay valid, just less tight).
bool PropagateBounds(const Model& model, std::vector<double>* lb,
                     std::vector<double>* ub, int max_rounds,
                     long long* budget = nullptr);

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_PRESOLVE_H_
