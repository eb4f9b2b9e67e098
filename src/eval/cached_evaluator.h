// Memoizing decorator for Evaluator.
//
// Refinement search evaluates the same implicit sorts over and over: the
// greedy local search re-scores unchanged slots, the agglomerative heuristic
// re-probes pair merges, validation re-computes the final sorts. Counts are
// pure functions of the subset, so a lookup table keyed by the member set
// removes the recomputation — critical for GenericEvaluator, whose counts
// run the full tau enumeration on a restricted index.
//
// The key is the subset packed as a PropertySet over signature ids, which is
// how SortStats carries its member set: hashing and equality run
// word-at-a-time. Counts(ids) folds into stats and asks CountsFromStats, so
// the one memo below serves both entry points.

#ifndef RDFSR_EVAL_CACHED_EVALUATOR_H_
#define RDFSR_EVAL_CACHED_EVALUATOR_H_

#include <cstddef>
#include <unordered_map>

#include "eval/evaluator.h"
#include "schema/property_set.h"

namespace rdfsr::eval {

/// Wraps another evaluator with a subset -> counts memo table. The inner
/// evaluator must outlive the wrapper. Not thread-safe.
class CachedEvaluator : public Evaluator {
 public:
  explicit CachedEvaluator(const Evaluator* inner);

  const rules::Rule& rule() const override { return inner_->rule(); }
  const schema::SignatureIndex& index() const override {
    return inner_->index();
  }

  /// Memoized on the member set. When the inner evaluator's stats
  /// extractions are cheap closed forms (cheap_stats()), these delegate
  /// without memoizing: building and hashing the member key would cost more
  /// than the extraction, and the refinement heuristics issue millions of
  /// such probes.
  SortStats MakeStats() const override { return inner_->MakeStats(); }
  SigmaCounts CountsFromStats(const SortStats& stats) const override;
  SigmaCounts CountsFromMergedStats(const SortStats& a,
                                    const SortStats& b) const override;
  bool cheap_stats() const override { return inner_->cheap_stats(); }

  /// Cache statistics (diagnostics / tests).
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  const Evaluator* inner_;
  // Key: the subset as a word-packed set of signature ids.
  mutable std::unordered_map<schema::PropertySet, SigmaCounts,
                             schema::PropertySetHash>
      cache_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

}  // namespace rdfsr::eval

#endif  // RDFSR_EVAL_CACHED_EVALUATOR_H_
