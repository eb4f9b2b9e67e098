// Bounded-variable revised primal simplex.
//
// Finds a point satisfying the model's range constraints and variable bounds
// (integrality ignored — this is the LP relaxation used by branch-and-bound).
//
// Formulation: each range row lo <= a.x <= hi becomes the equality
// a.x - s = 0 with a slack s bounded by [lo, hi], so the constraint matrix is
// [A | -I] with right-hand side 0 and the slack columns form the initial
// basis. Feasibility is reached with a composite phase 1 (minimize the sum of
// basic bound violations, costs recomputed each iteration); the solve ends at
// the first basis with every basic inside its bounds.
//
// The basis is held behind a BasisRep (see ilp/basis.h): a sparse LU
// factorization with product-form eta updates, refactorized every
// `refactor_interval` pivots or when an update pivot is numerically unsafe.
// Pricing is partial Dantzig (segment scan with a rotating cursor); a Bland
// fallback guards against cycling. Basic values are refreshed from the
// factorization every 128 iterations for numerical hygiene.
//
// Warm starts: every solve returns its final basis in LpResult::basis, and
// SimplexOptions::warm_start replays such a snapshot — the factorization
// repairs stale bases (bound changes, numerical singularity) by ejecting
// dependent columns, and phase-1 restores feasibility from there. A snapshot
// whose shape does not match the model is ignored (cold start).

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
  kInfeasible,  ///< Phase 1 can reduce the bound violations no further.
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
