// Branch-and-bound mixed-integer solver over the LP relaxation.
//
// Depth-first search exploring the nearest-integer side first (an implicit
// diving heuristic that finds feasible partitions quickly — the paper
// observed the same asymmetry with CPLEX: feasible instances solve in
// milliseconds, infeasibility proofs can take hours). Node and wall-clock
// limits turn the result into kUnknown rather than a wrong "infeasible".
//
// The branch variable is chosen by pseudo-costs seeded with fractionality:
// until a variable has branching history the score degenerates to the classic
// most-fractional rule, after which the measured per-unit degradation (LP
// objective for optimization, total-fractionality reduction for
// zero-objective decision instances) takes over. A root-fixing pass
// (ilp/presolve.h PropagateBounds) probes each still-free binary against the
// row implications — in the Section-6 encodings, assigning a subject forces
// its tau-link rows — and permanently fixes variables whose opposite value is
// propagation-infeasible.
//
// Every node LP is warm-started from its parent's optimal basis (the child
// differs by one variable bound, so phase-1 typically needs a handful of
// pivots), and MipOptions::warm_basis lets callers seed the root LP from a
// previous solve of a near-identical instance (the RefinementSolver theta
// grid). The final root basis comes back in MipResult::root_basis.

#ifndef RDFSR_ILP_BRANCH_AND_BOUND_H_
#define RDFSR_ILP_BRANCH_AND_BOUND_H_

#include <vector>

#include "ilp/model.h"
#include "ilp/simplex.h"

namespace rdfsr::ilp {

/// Outcome of a MIP solve.
enum class MipStatus {
  kOptimal,     ///< Incumbent proven optimal (tree exhausted).
  kFeasible,    ///< Incumbent found but search stopped early (limits).
  kInfeasible,  ///< Tree exhausted without incumbent.
  kUnknown,     ///< Limits hit without incumbent.
};

const char* MipStatusName(MipStatus status);

/// Which resource limit (if any) cut the search short. Distinguishes the
/// kFeasible/kUnknown outcomes: a node-limit kUnknown and a deadline kUnknown
/// call for different operator responses, and the LP iteration limit is a
/// numerical-budget problem rather than a tree-size one.
enum class MipStopReason {
  kNone,              ///< Search ran to its natural end.
  kFirstIncumbent,    ///< stop_at_first_incumbent fired (by design).
  kNodeLimit,         ///< max_nodes reached.
  kTimeLimit,         ///< time_limit_seconds reached.
  kLpIterationLimit,  ///< Some LP relaxation hit SimplexOptions::max_iterations.
  kCancelled,         ///< Cancellation token tripped.
  kDeadline,          ///< Deadline token expired.
};

const char* MipStopReasonName(MipStopReason reason);

/// MIP solution.
struct MipResult {
  MipStatus status = MipStatus::kUnknown;
  std::vector<double> x;
  double objective = 0.0;
  long long nodes = 0;
  double seconds = 0.0;
  /// Why the search stopped early (kNone when it completed). When several
  /// limits fire, the one that actually unwound the search wins; an LP
  /// iteration limit is only reported when nothing stronger stopped it.
  MipStopReason stop_reason = MipStopReason::kNone;
  /// Number of node LPs that hit the simplex iteration limit (those subtrees
  /// are undecided, so optimality/infeasibility can no longer be proven).
  long long lp_iteration_limit_hits = 0;
  /// Solve internals aggregated over every node LP (pivots, refactorizations,
  /// basis reuses, eta-file high-water mark).
  LpEngineStats lp_stats;
  /// The root LP's final basis. When presolve ran this lives in the reduced
  /// variable space; feeding it back through MipOptions::warm_basis on a
  /// near-identical instance is safe because mismatched shapes are ignored.
  SimplexBasis root_basis;
};

/// Search limits and behavior.
struct MipOptions {
  double integer_tol = 1e-6;
  long long max_nodes = 2000000;
  double time_limit_seconds = 120.0;
  /// Stop at the first integer-feasible point (decision problems — the sort
  /// refinement encoding has a zero objective, so any incumbent answers
  /// "true"). With false, search continues to prove optimality.
  bool stop_at_first_incumbent = true;
  /// Run the root presolve (ilp/presolve.h) before branch-and-bound.
  bool use_presolve = true;
  /// Optional warm-start basis for the root LP (not owned; must outlive the
  /// solve). Ignored when its shape does not match the model branch-and-bound
  /// actually solves (i.e. after presolve).
  const SimplexBasis* warm_basis = nullptr;
  /// Incumbent cutoff: a node is pruned when its LP bound cannot improve on
  /// the incumbent by more than cutoff_abs + cutoff_rel * |incumbent|.
  double cutoff_abs = 1e-9;
  double cutoff_rel = 1e-9;
  SimplexOptions lp;
  /// Polled at every node (and, via `lp`, inside each simplex solve): a trip
  /// unwinds the search with the incumbent found so far (anytime semantics).
  /// The token is forwarded into lp.cancel automatically by SolveMip.
  util::CancellationToken cancel;
};

/// Solves the model. With a zero objective this decides feasibility.
MipResult SolveMip(const Model& model, const MipOptions& options = {});

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_BRANCH_AND_BOUND_H_
