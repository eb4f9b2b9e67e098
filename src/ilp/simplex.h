// Bounded-variable revised simplex: primal phase 1 for cold starts, the dual
// simplex for warm ones.
//
// Finds a point satisfying the model's range constraints and variable bounds
// (integrality ignored — this is the LP relaxation used by branch-and-bound).
//
// Formulation: each range row lo <= a.x <= hi becomes the equality
// a.x - s = 0 with a slack s bounded by [lo, hi], so the constraint matrix is
// [A | -I] with right-hand side 0. The solve ends at the first basis with
// every basic inside its bounds (more than feas_tol = max(10 * tol, 1e-6)
// out counts as outside). Two loops get there; which one runs depends only
// on whether a warm basis was adopted (LpResult::warm_started).
//
// Cold starts run the primal simplex from the slack basis: a composite
// phase 1 that minimizes the sum of basic bound violations, costs recomputed
// each iteration. Pricing is partial Dantzig (segment scan with a rotating
// cursor). It answers kInfeasible when no column reduces the violations.
//
// Warm starts run the dual simplex (Koberstein 2005, "The dual simplex
// method, techniques for a fast and stable implementation"). The objective is
// zero, so every basis is dual feasible, and a branch-and-bound child starts
// one bound change away from its parent's feasible basis. Each iteration:
//   * Leaving row: the basic with the largest bound violation.
//   * Pivot row: B^-T e_r by a hyper-sparse Btran, then alpha_j = (B^-T e_r)
//     . a_j row by row over the rows where B^-T e_r is nonzero.
//   * Costs: with zero costs every ratio is 0 and the dual stalls, so the
//     costs are perturbed once, at entry: +eps_j for a nonbasic at its lower
//     bound, -eps_j at its upper one, with eps_j in [1e-6, 2e-6) a fixed hash
//     of j (no RNG state: results are bit-identical at any thread count).
//     Reduced costs are then updated over the pivot row's nonzeros.
//   * Ratio test: the smallest |d_j| / |alpha_j| among the columns that move
//     the leaving basic toward its bound, ties to the larger |alpha_j|, then
//     the smaller j. When that column's box cannot cover the violation, the
//     bound-flipping ratio test flips boxed columns to their other bound (one
//     Ftran for all flips) until the next column covers the rest and enters.
//   * Verdict: kInfeasible when, on freshly recomputed basics, no column can
//     move the leaving basic toward its bound, or flipping every candidate
//     (all boxed) leaves it short by more than feas_tol. That row is a dual
//     ray, and B^-T e_r its Farkas vector. Columns whose |alpha_j| is below
//     the pivot tolerance cannot enter, but their moves still count: if they
//     could cover the rest, the row proves nothing (an entry within roundoff
//     of max|B^-T e_r| * max|a_j| counts as zero). Audit builds re-solve
//     every dual kInfeasible cold with the primal and abort if it finds a
//     point or fails numerically.
// The dual hands its basis to the primal loop when the entering column's
// pivot element disagrees with the pivot row's twice in a row (a
// refactorization in between), when only sub-tolerance columns could cover
// the leaving row (the primal then reports kNumericalFailure if no row blocks
// its column), or when it passes the primal's Bland trigger. Both loops share
// max_iterations and poll `cancel`.
//
// The basis is held behind a BasisRep (see ilp/basis.h): a sparse LU
// factorization with product-form eta updates, refactorized every
// `refactor_interval` pivots or when an update pivot is numerically unsafe.
// A Bland fallback guards the primal against cycling. Basic values are
// refreshed from the factorization every 128 iterations for numerical
// hygiene.
//
// Warm starts: every solve returns its final basis in LpResult::basis, and
// SimplexOptions::warm_start replays such a snapshot — the factorization
// repairs stale bases (bound changes, numerical singularity) by ejecting
// dependent columns, and the dual simplex restores feasibility from there. A
// snapshot whose shape does not match the model is ignored (cold start).

#ifndef RDFSR_ILP_SIMPLEX_H_
#define RDFSR_ILP_SIMPLEX_H_

#include <vector>

#include "ilp/basis.h"
#include "ilp/model.h"
#include "util/deadline.h"

namespace rdfsr::ilp {

/// Outcome of an LP solve.
enum class LpStatus {
  kOptimal,     ///< A feasible basis: every basic lies inside its bounds.
  /// Phase 1 can reduce the bound violations no further, or the dual
  /// simplex found a dual ray.
  kInfeasible,
  /// Phase 1 found an improving column that no row blocks: every pivot
  /// candidate is below the pivot tolerance. The LP decided nothing.
  kNumericalFailure,
  kIterationLimit,  ///< max_iterations pivots without convergence.
  kCancelled,       ///< Cooperative cancellation / deadline tripped mid-solve.
};

const char* LpStatusName(LpStatus status);

/// LP solution.
struct LpResult {
  LpStatus status = LpStatus::kIterationLimit;
  std::vector<double> x;  ///< Structural variable values (model order).
  int iterations = 0;
  SimplexBasis basis;        ///< Final basis: feed back via warm_start.
  LpEngineStats stats;       ///< Pivot / refactorization counters.
  bool warm_started = false; ///< True when a warm basis was actually adopted.
};

/// Solver options.
struct SimplexOptions {
  int max_iterations = 200000;
  double tol = 1e-7;  ///< Phase-1 reduced-cost tolerance.
  /// Refactorize once the eta file reaches this length.
  int refactor_interval = 100;
  /// Optional warm-start basis (not owned; must outlive the solve). Ignored
  /// unless its shape matches the model; repaired if stale.
  const SimplexBasis* warm_start = nullptr;
  /// Polled every ~128 pivots; a trip ends the solve with kCancelled.
  util::CancellationToken cancel;
};

/// Solves the LP relaxation of `model`. When `lower`/`upper` are non-null they
/// override the model's variable bounds (branch-and-bound node bounds).
LpResult SolveLp(const Model& model, const SimplexOptions& options = {},
                 const std::vector<double>* lower = nullptr,
                 const std::vector<double>* upper = nullptr);

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_SIMPLEX_H_
