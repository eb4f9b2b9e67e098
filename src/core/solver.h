// The sort-refinement searches of Section 7.
//
// RefinementSolver answers the EXISTSSORTREFINEMENT(r) decision problem and
// drives the paper's two experimental modes:
//  * "highest theta for fixed k" — sequential search from sigma_r(D) upward in
//    0.01 steps, keeping the last feasible refinement (Section 7: "this
//    sequential search is preferred over a binary search"),
//  * "lowest k for fixed theta" — increasing k until an instance is feasible.
//
// Each decision instance is attacked greedy-first (primal heuristic); the
// exact branch-and-bound over the Section 6 ILP settles instances the
// heuristic cannot, and is the only component that can prove non-existence.
// Node/time limits surface as kUnknown rather than a wrong answer.
//
// Both searches drive many closely-related instances, and everything but the
// threshold is shared between them, so the solver is incremental across
// instances:
//  * one RefinementIlpInstance per k, reweighted per theta instead of
//    rebuilding the O(k * |P| * n) encoding,
//  * the root basis of each exact solve seeds the next same-k instance's
//    root LP (a Reweight step keeps the variable space),
//  * the agglomerative merge sequence (a dendrogram) is built once per
//    solver and serves every theta and k: the threshold rung is its prefix
//    before the first merge below theta, the fixed-k rung its first n - k
//    merges, and each distinct prefix is scored once,
//  * greedy max-min runs once per k,
//  * heuristic refinements keep their per-sort counts, so re-validation
//    against each instance's threshold is O(#sorts) exact comparisons,
//  * the theta grid itself is derived in exact integer arithmetic
//    (ThetaGrid), so no grid point is skipped or re-tested and theta = 1 is
//    always the endpoint.
// What a solver decided before never changes a later answer: decisions,
// theta/k values, instance counts and proof flags match a fresh solver's
// whenever no solver limit fires. Only the witness of an exact solve whose
// root LP was warm-started from an earlier instance may differ (an instance
// usually has several); it is validated exactly like any other.
// tests/solver_reuse_test.cc checks this against a fresh solver per call.

#ifndef RDFSR_CORE_SOLVER_H_
#define RDFSR_CORE_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "eval/cached_evaluator.h"
#include "core/ilp_builder.h"
#include "core/refinement.h"
#include "eval/evaluator.h"
#include "ilp/branch_and_bound.h"
#include "util/rational.h"

namespace rdfsr::core {

/// Three-valued decision outcome.
enum class Decision {
  kExists,
  kNotExists,
  kUnknown,  ///< solver limits hit before an answer
};

const char* DecisionName(Decision decision);

/// Outcome of one EXISTSSORTREFINEMENT instance.
struct DecisionResult {
  Decision decision = Decision::kUnknown;
  std::optional<SortRefinement> refinement;  ///< present when kExists
  bool via_greedy = false;   ///< heuristic answered without the MIP
  long long mip_nodes = 0;
  /// LP engine internals of the exact solve (zero when the heuristic or a
  /// shortcut answered): pivots, refactorizations, warm-basis reuses, eta
  /// high-water mark.
  ilp::LpEngineStats lp_stats;
  double seconds = 0.0;
  /// Why the instance is kUnknown (OK otherwise): kResourceExhausted for
  /// node/LP-iteration/size limits and for LP numerical failures (the message
  /// names the limit or the failure and its count), kDeadlineExceeded /
  /// kCancelled when the deadline token tripped.
  Status limit = Status::OK();
};

/// Solver configuration.
struct SolverOptions {
  IlpBuildOptions build;
  ilp::MipOptions mip;
  GreedyOptions greedy;
  bool greedy_first = true;  ///< try the heuristic before the exact solver
  /// Step of the sequential highest-theta search (paper: 0.01). Validated by
  /// MakeThetaGrid: non-finite / non-positive values fall back to 0.01, and
  /// values below the 1/1000 grid resolution clamp to 0.001 (a smaller step
  /// would otherwise collapse to a zero rational and divide the grid
  /// derivation by zero).
  double theta_step = 0.01;
  /// Skip the exact MIP when the encoding exceeds this many rows; the
  /// instance then resolves to kUnknown unless the heuristic found a witness.
  /// The ceiling is a time guard, not a memory one, and it bounds the ROOT
  /// LP: branch-and-bound churn on a phase-transition instance is capped by
  /// MipOptions::time_limit_seconds at any size, so the gate's job is to
  /// keep the cold root solve itself inside that budget. Measured with the
  /// sparse LU engine (ilp/basis.h, O(m + fill) per pivot vs the old dense
  /// inverse's O(m^2)): a root LP at ~16k rows (a 512-signature, k = 2
  /// encoding) completes in ~10 s, against the old engine's ~4000-row limit
  /// for the same wall clock — hence 20000, a 5x raise that keeps one root
  /// solve well under the default 120 s MIP budget. bench_solver's
  /// exact_frontier config tracks this point. Checked against the exact
  /// worst-case count of rows the simplex will see (RefinementIlpActiveRows —
  /// deactivated link sides presolve away) before any model is built.
  std::size_t max_mip_rows = 20000;
  /// Worker threads for the agglomerative heuristics' best-pair row
  /// recomputation (values < 1 mean one per hardware thread). Purely a
  /// throughput knob: the merge sequence is bit-identical for every value
  /// (see AgglomerativeLowestK), and small instances stay serial regardless.
  int heuristic_threads = 1;
  /// Wall-clock budget / cancellation for every search this solver runs.
  /// Anytime semantics: a tripped deadline makes Exists return kUnknown (with
  /// DecisionResult::limit explaining why), FindHighestTheta return its best
  /// incumbent so far with timed_out set and ceiling_proven false, and
  /// FindLowestK fail with kDeadlineExceeded / kCancelled. The default is
  /// infinite. Re-arm per query with RefinementSolver::set_deadline (which
  /// preserves the incremental caches, unlike rebuilding the solver).
  util::Deadline deadline;
};

/// The exact theta grid of FindHighestTheta: indices first..last over
/// multiples of `step`, with the endpoint clamped so Theta(last) == 1 exactly
/// (e.g. step = 3/100 ends at min(34 * 3/100, 1) = 1, not 99/100). Empty
/// (first > last) only when sigma_all is already 1.
struct ThetaGrid {
  Rational step;
  std::int64_t first = 0;  ///< smallest index with Theta(first) > sigma_all
  std::int64_t last = 0;   ///< Theta(last) == 1

  /// min(g * step, 1).
  Rational Theta(std::int64_t g) const;
};

/// Derives the grid strictly above `sigma_all` with integer arithmetic only
/// (the former double floor could skip or re-test a point when sigma_all sat
/// exactly on the grid). `theta_step` is validated as documented on
/// SolverOptions::theta_step.
ThetaGrid MakeThetaGrid(Rational sigma_all, double theta_step);

/// Result of the highest-theta search.
struct HighestThetaResult {
  Rational theta;  ///< best threshold with a feasible refinement
  SortRefinement refinement;
  int instances = 0;       ///< decision instances solved
  bool ceiling_proven = false;  ///< next step was proven infeasible (vs unknown)
  long long mip_nodes = 0;         ///< summed over the exact solves
  ilp::LpEngineStats lp_stats;     ///< aggregated over the exact solves
  double seconds = 0.0;
  /// The deadline cut the grid scan: `theta`/`refinement` still carry the
  /// best incumbent found before the cut (at worst the sigma_all baseline),
  /// but thresholds above it were never decided (ceiling_proven is false).
  bool timed_out = false;
};

/// Result of the lowest-k search.
struct LowestKResult {
  int k = 0;
  SortRefinement refinement;
  bool proven_minimal = false;  ///< all smaller k proven infeasible
  int instances = 0;
  long long mip_nodes = 0;         ///< summed over the exact solves
  ilp::LpEngineStats lp_stats;     ///< aggregated over the exact solves
  double seconds = 0.0;
  /// Some smaller k went undecided because the deadline tripped (implies
  /// !proven_minimal): the found k is an upper bound reached under time
  /// pressure, not a minimality proof.
  bool timed_out = false;
};

/// Drives refinement searches for one (dataset, rule) pair.
class RefinementSolver {
 public:
  /// `evaluator` must outlive the solver; its rule and index define the
  /// problem.
  explicit RefinementSolver(const eval::Evaluator* evaluator,
                            SolverOptions options = {});

  /// EXISTSSORTREFINEMENT(r) on (D, theta, k). Any returned refinement is
  /// validated exactly before being reported.
  DecisionResult Exists(int k, Rational theta);

  /// Highest theta with a k-sort refinement (sequential search).
  HighestThetaResult FindHighestTheta(int k);

  /// Smallest k admitting a refinement with threshold theta; searches k
  /// upward from 1 to max_k (default: number of signatures). On exhaustion
  /// the failure distinguishes decidedness: NotFound means every k <= max_k
  /// was PROVEN infeasible; ResourceExhausted means at least one instance hit
  /// solver limits (kUnknown), so a refinement may still exist. Both carry
  /// the instance count and elapsed seconds in the message. A deadline trip
  /// mid-sweep fails with kDeadlineExceeded / kCancelled instead.
  Result<LowestKResult> FindLowestK(Rational theta, int max_k = -1);

  /// Re-arms the wall-clock budget for subsequent queries without touching
  /// the incremental caches (instances, heuristic refinements). api::Analysis
  /// calls this per query to implement its Timeout knob.
  void set_deadline(util::Deadline deadline) {
    options_.deadline = std::move(deadline);
  }

 private:
  /// A heuristic refinement scored once: structure checked and per-sort
  /// counts extracted (theta-independent), so checking it against any
  /// threshold afterwards is an exact comparison per sort.
  struct ScoredRefinement {
    SortRefinement refinement;
    std::vector<eval::SigmaCounts> counts;
    bool structure_ok = false;
  };

  /// Every sigma evaluation goes through the memo table.
  const eval::Evaluator& Eval() const { return cached_; }

  /// sigma_r(D)'s counts, the one-sort baseline every instance checks first.
  const eval::SigmaCounts& AllCounts();
  const std::vector<eval::TauCount>& TauCounts();
  /// Theta-independent tau link analysis, shared by every encoding.
  const std::vector<TauShape>& Shapes();
  /// The reusable encoding for k (single slot — the searches drive one k at
  /// a time).
  RefinementIlpInstance& InstanceFor(int k);
  ScoredRefinement Score(SortRefinement refinement) const;
  /// The dendrogram prefix of `cut(merges)` merges, scored. Builds the merge
  /// list on first use.
  const ScoredRefinement& AgglomerativeCut(
      const std::function<std::size_t(const std::vector<AgglomerativeMerge>&)>&
          cut);
  const ScoredRefinement& AgglomerativeForTheta(Rational theta);
  const ScoredRefinement& AgglomerativeFixedKFor(int k);
  const ScoredRefinement& GreedyFor(int k);

  eval::CachedEvaluator cached_;
  SolverOptions options_;
  // The whole dataset's counts, tau counts and shapes depend only on (rule,
  // dataset) — theta enters the encoding via the weights — so all three are
  // cached across instances.
  std::optional<eval::SigmaCounts> all_counts_;
  std::vector<eval::TauCount> tau_counts_;
  bool tau_counts_ready_ = false;
  std::optional<std::vector<TauShape>> shapes_;
  // The reusable exact encoding: rebuilt only when k changes, reweighted per
  // theta.
  std::unique_ptr<RefinementIlpInstance> instance_;
  int instance_k_ = -1;
  // Warm-start chain: the root basis of the last exact solve, keyed by its
  // k. A Reweight(theta) step keeps the variable space, so the basis usually
  // transplants; shape mismatches (different presolve reductions) are
  // rejected inside the MIP and cost nothing.
  ilp::SimplexBasis warm_basis_;
  int warm_basis_k_ = -1;
  // Heuristic-ladder caches. The agglomerative merge list, built once, and
  // its scored cuts keyed by prefix length (many grid thetas and ks cut at
  // the same merge); greedy max-min per k (theta-independent, reused across
  // the theta grid).
  std::optional<std::vector<AgglomerativeMerge>> merges_;
  std::map<std::size_t, ScoredRefinement> cut_cache_;
  std::map<int, ScoredRefinement> greedy_cache_;
  // Single-slot scratch for results that stay out of the caches (computed
  // under a tripped token), so the accessors can still hand out references.
  ScoredRefinement scratch_scored_;
};

}  // namespace rdfsr::core

#endif  // RDFSR_CORE_SOLVER_H_
