// Closed-form structuredness computation for the builtin rule families.
//
// For the rules of Section 2.2 the double sum over rough assignments collapses
// to per-property subject counts. With N = Σ_mu n_mu subjects, cnt_p = number
// of subjects having p, and P* = properties used by at least one subject:
//
//   Cov:            total = N * |P*|                favorable = Σ_mu n_mu |supp(mu)|
//   Sim:            total = Σ_p cnt_p (N - 1)       favorable = Σ_p cnt_p (cnt_p - 1)
//   Dep[p1,p2]:     total = cnt_p1                  favorable = cnt_{p1 ∧ p2}
//   SymDep[p1,p2]:  total = cnt_p1 + cnt_p2 - both  favorable = cnt_{p1 ∧ p2}
//   DepDisj[p1,p2]: total = N                       favorable = N - cnt_p1 + both
//
// Dep/SymDep/DepDisj require the p1 and p2 columns to exist in the sort's view
// (Section 7.1.1's "trivially satisfied" sorts rely on this): when either is
// missing, total = 0 and sigma = 1.
//
// Each family has one formula, read off the aggregates of a SortStats
// (eval/sort_stats.h) — the same value the refinement heuristics maintain
// incrementally and Evaluator::Counts folds from signature ids — plus its
// pairwise form over a candidate merge of two sorts. The columns of an
// implicit sort are those its member signatures use; the full dataset is the
// sort of all signatures. The generic enumerator (eval/enumerator.h) is the
// oracle these forms are property-tested against (tests/closed_form_test.cc).

#ifndef RDFSR_EVAL_CLOSED_FORM_H_
#define RDFSR_EVAL_CLOSED_FORM_H_

#include <vector>

#include "eval/counts.h"
#include "eval/sort_stats.h"
#include "schema/signature_index.h"

namespace rdfsr::eval {

// --- Closed forms over a sort's stats ----------------------------------------
// Each *FromStats function reads its family's SigmaCounts off a SortStats
// value in O(1) (O(|ignored|) for CovIgnoring) — no walk over member
// signatures. All arithmetic is exact integer arithmetic.

/// sigma_Cov counts from stats: total = N * |P*|, favorable = Σ n_mu |supp|.
SigmaCounts CovCountsFromStats(const SortStats& stats);

/// sigma_Cov ignoring the properties of `ignored_mask` (word-packed over the
/// same index; typically precomputed once by the evaluator).
SigmaCounts CovIgnoringCountsFromStats(const SortStats& stats,
                                       const schema::PropertySet& ignored_mask);

/// sigma_Sim counts from stats: total = Σ_p cnt_p (N - 1) = support_sum (N-1),
/// favorable = Σ_p cnt_p (cnt_p - 1) = count_sq_sum - support_sum.
SigmaCounts SimCountsFromStats(const SortStats& stats);

/// sigma_Dep counts from the stats' tracked pair; zero counts (sigma = 1)
/// when either column is missing from the sort's view.
SigmaCounts DepCountsFromStats(const SortStats& stats);

/// sigma_SymDep counts from the stats' tracked pair.
SigmaCounts SymDepCountsFromStats(const SortStats& stats);

/// Disjunctive-consequent Dep variant counts from the stats' tracked pair.
SigmaCounts DepDisjCountsFromStats(const SortStats& stats);

// --- Closed forms over a candidate merge of two disjoint sorts ---------------
// The agglomerative heuristic probes O(n) candidate merges per round; these
// derive the union's counts straight from the two operands' aggregates —
// O(|P|/64) word work plus the shared-column cross term for Sim — without
// materializing (or copying) a merged SortStats. Identical integers to
// merging first and extracting after.

SigmaCounts CovCountsFromMergedStats(const SortStats& a, const SortStats& b);
SigmaCounts CovIgnoringCountsFromMergedStats(
    const SortStats& a, const SortStats& b,
    const schema::PropertySet& ignored_mask);
SigmaCounts SimCountsFromMergedStats(const SortStats& a, const SortStats& b);
SigmaCounts DepCountsFromMergedStats(const SortStats& a, const SortStats& b);
SigmaCounts SymDepCountsFromMergedStats(const SortStats& a,
                                        const SortStats& b);
SigmaCounts DepDisjCountsFromMergedStats(const SortStats& a,
                                         const SortStats& b);

/// Convenience: all signature ids of an index (the full dataset subset).
std::vector<int> AllSignatures(const schema::SignatureIndex& index);

}  // namespace rdfsr::eval

#endif  // RDFSR_EVAL_CLOSED_FORM_H_
