// Greedy + local-search heuristic for sort refinement.
//
// Commercial MIP solvers find feasible points fast via primal heuristics and
// spend their time on proofs; the paper's CPLEX runs show the same shape
// (800 ms feasible vs hours for infeasible). This backend plays the primal-
// heuristic role for our homegrown solver: multi-restart randomized greedy
// assignment of signatures to k sorts followed by single-move local search
// maximizing the minimum sigma. It can only certify existence (a validated
// refinement), never non-existence — the exact MIP remains the decision
// procedure.
//
// Both heuristics evaluate candidate sorts through the incremental SortStats
// subsystem (eval/sort_stats.h): per-slot / per-part aggregates are mutated
// in place and sigma extracted in closed form, instead of re-walking member
// signatures per probe. Greedy trial placements drop from O(k * |sort| * |P|)
// to O(|supp| + k log k) each; an agglomerative merge round drops from
// O(n^2 * |sort| * |P|) to O(n log n + n * |P|/64) via a lazy best-pair
// priority queue (bench/bench_refine.cc times both). The aggregates are exact
// integers, so outputs equal those of re-evaluating every candidate sort from
// its member ids, which the seed's heuristics do
// (tests/seed_heuristics_oracle.h); tests/refine_regression_test.cc checks
// both engines against them.

#ifndef RDFSR_CORE_GREEDY_H_
#define RDFSR_CORE_GREEDY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/refinement.h"
#include "eval/evaluator.h"
#include "util/deadline.h"
#include "util/rational.h"

namespace rdfsr::core {

/// Heuristic knobs.
struct GreedyOptions {
  int restarts = 6;
  int max_passes = 40;      ///< Local-search sweeps per restart.
  std::uint64_t seed = 17;  ///< Deterministic PRNG stream.
  /// Cooperative cancellation: polled between restarts / passes and
  /// periodically inside the construction loop. A tripped token still yields
  /// a valid partition (remaining signatures fall into the first slot) — the
  /// result is just a worse heuristic, never an invalid one.
  util::CancellationToken cancel;
};

/// Best-effort partition into at most k sorts maximizing min-sigma. Always
/// returns a valid partition (all signatures covered); the min sigma may be
/// below any particular threshold.
SortRefinement GreedyMaxMinSigma(const eval::Evaluator& evaluator, int k,
                                 const GreedyOptions& options = {});

/// One committed merge of the agglomerative engine. Sort slots start as one
/// signature each (slot i holds signature i); the merge folds slot `b` into
/// slot `a` (a < b), and `counts` are the merged sort's exact sigma counts.
struct AgglomerativeMerge {
  int a = -1;
  int b = -1;
  eval::SigmaCounts counts;
};

/// The agglomerative dendrogram: starting from one sort per signature (for
/// the builtin rule families a single-signature sort has sigma = 1), merge
/// the pair of sorts whose merged sigma is highest (compared exactly; ties go
/// to the lower slot pair) until one sort remains, and return the merges in
/// order. Deterministic.
///
/// The pair order does not depend on any threshold, so every agglomerative
/// clustering this engine produces is a prefix of this one sequence: the
/// theta-stopped run (AgglomerativeLowestK) is the prefix before the first
/// merge below theta, and the k-stopped run (AgglomerativeFixedK) is the
/// first n - k merges. Build it once, then cut it per theta and per k.
///
/// `threads` is the number of lanes for the best-pair row recomputation
/// (values < 1 mean one per hardware thread; at most
/// util::ThreadPool::kMaxThreads). One code path runs at every lane count,
/// and the merge sequence is bit-identical for all of them: candidate pairs
/// are totally ordered, so the per-row best and the popped merge are unique
/// regardless of the order the lanes discover them. More than one lane
/// engages only when the evaluator reports cheap_stats() (pure closed-form
/// extraction, no shared memo) and the instance has at least 256
/// signatures, enough to pay for the fan-out; otherwise the engine runs on
/// one lane, the calling thread.
///
/// `cancel` is polled once per merge round, and during the initial build by
/// every lane before each row it scans, so a trip stops the build within one
/// row per lane: a tripped token stops merging early and returns the merges
/// made so far, a prefix of the uncancelled sequence (none when the trip
/// lands in the initial build).
std::vector<AgglomerativeMerge> AgglomerativeMerges(
    const eval::Evaluator& evaluator, int threads = 1,
    const util::CancellationToken& cancel = {});

/// Length of the theta cut: the number of leading merges before the first
/// one whose merged sigma is below theta (checked exactly).
std::size_t ThetaCut(const std::vector<AgglomerativeMerge>& merges,
                     Rational theta);

/// The partition after the first `length` merges of a dendrogram over
/// `num_signatures` signatures: sorts in ascending surviving-slot order,
/// members sorted. O(num_signatures + length).
SortRefinement ReplayMerges(int num_signatures,
                            const std::vector<AgglomerativeMerge>& merges,
                            std::size_t length);

/// Bottom-up merge heuristic for the lowest-k problem: the dendrogram cut at
/// theta — merge best pairs while the merged sigma still meets theta. The
/// number of remaining sorts is a greedy upper bound on the lowest k. Stops
/// merging at the cut instead of building the whole dendrogram. `threads`
/// and `cancel` as in AgglomerativeMerges (a cancelled run returns a valid
/// partition with more sorts than the uncancelled one).
SortRefinement AgglomerativeLowestK(const eval::Evaluator& evaluator,
                                    Rational theta, int threads = 1,
                                    const util::CancellationToken& cancel = {});

/// Merge variant for fixed k: the dendrogram cut after n - k merges, so at
/// most `k` sorts remain (a hierarchical-clustering seed for
/// Exists/highest-theta; callers validate against their threshold).
/// `threads` and `cancel` as in AgglomerativeMerges (a cancelled run may stop
/// above k sorts).
SortRefinement AgglomerativeFixedK(const eval::Evaluator& evaluator, int k,
                                   int threads = 1,
                                   const util::CancellationToken& cancel = {});

}  // namespace rdfsr::core

#endif  // RDFSR_CORE_GREEDY_H_
