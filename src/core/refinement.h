// Sort refinements (Definition 4.2) and their validation.
//
// A sigma-sort refinement of D with threshold theta is an entity-preserving
// partition {D_1, ..., D_n} of D, closed under signatures, with
// sigma(D_i) >= theta for every i. Because the partition is closed under
// signatures, it is fully described by a partition of the signature ids of the
// dataset's SignatureIndex — which is how we represent it (entity preservation
// is then automatic: a subject's triples all live with its signature).

#ifndef RDFSR_CORE_REFINEMENT_H_
#define RDFSR_CORE_REFINEMENT_H_

#include <string>
#include <vector>

#include "eval/evaluator.h"
#include "schema/signature_index.h"
#include "util/rational.h"
#include "util/status.h"

namespace rdfsr::core {

/// A sort refinement: each element ("implicit sort") is a non-empty list of
/// signature ids of the underlying index.
struct SortRefinement {
  std::vector<std::vector<int>> sorts;

  std::size_t num_sorts() const { return sorts.size(); }

  /// Subjects in implicit sort i.
  std::int64_t SubjectsIn(const schema::SignatureIndex& index, int i) const;

  /// One-line description: "{3 sorts: 12+7+2 signatures}".
  std::string Summary(const schema::SignatureIndex& index) const;
};

/// Checks that `refinement` is a valid sigma_r-sort refinement of the
/// evaluator's index with threshold theta:
///  * the sorts are non-empty and partition the signature ids exactly,
///  * sigma(sort) >= theta for every sort, compared exactly
///    (theta2 * favorable >= theta1 * total in integer arithmetic).
/// Composed of the three pieces below, which the searches also use
/// separately: a refinement's structure and per-sort counts are
/// theta-independent, so validating one refinement against many thresholds
/// (the theta grid, the k ladder) computes SortCounts once and re-runs only
/// the exact comparisons.
Status ValidateRefinement(const eval::Evaluator& evaluator,
                          const SortRefinement& refinement, Rational theta);

/// The structural half of ValidateRefinement: non-empty sorts partitioning
/// the index's signature ids exactly. Theta-independent.
Status ValidatePartition(const schema::SignatureIndex& index,
                         const SortRefinement& refinement);

/// Exact per-sort counts (Evaluator::Counts: each sort folded into one
/// SortStats, closed forms for builtin rules). Requires a valid partition
/// (ValidatePartition). Theta-independent: reusable across every threshold a
/// refinement is checked against.
std::vector<eval::SigmaCounts> SortCounts(const eval::Evaluator& evaluator,
                                          const SortRefinement& refinement);

/// The threshold half of ValidateRefinement on precomputed per-sort counts:
/// OK iff sigma(counts[i]) >= theta for every i (exact integer comparison).
Status ValidateSortCounts(const std::vector<eval::SigmaCounts>& counts,
                          Rational theta);

/// Exact comparison sigma(counts) >= theta without floating point.
bool SigmaAtLeast(const eval::SigmaCounts& counts, Rational theta);

/// The minimum sigma across sorts (1.0 for an empty refinement).
double MinSigma(const eval::Evaluator& evaluator,
                const SortRefinement& refinement);

}  // namespace rdfsr::core

#endif  // RDFSR_CORE_REFINEMENT_H_
