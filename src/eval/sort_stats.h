// Mergeable per-sort statistics: the one aggregate sigma is computed from.
//
// Every count of an implicit sort goes through a SortStats: Evaluator::Counts
// folds signature ids into fresh stats, and the refinement heuristics
// (core/greedy.cc), which mutate candidate sorts one signature (greedy trial
// placements) or one whole part (agglomerative merges) at a time, keep stats
// incrementally instead of re-walking every member signature per probe
// (O(|sort| * |P|) per probe, O(n^3) and worse over a full agglomerative
// run). It carries exactly the aggregates the closed forms of every builtin
// family (eval/closed_form.h) consume —
//
//   subjects       N = Σ_mu n_mu
//   support_sum    Σ_mu n_mu |supp(mu)|  ( = Σ_p cnt_p )
//   count_sq_sum   Σ_p cnt_p^2           (Sim's favorable term)
//   used           word-packed union of used properties (cnt_p > 0), with its
//                  popcount maintained as used_properties
//   property_count cnt_p per global property id
//   pair_both      cnt over subjects having BOTH tracked properties
//                  (Dep/SymDep/DepDisj; configured at construction)
//   members        member signature ids (the generic evaluator's restriction
//                  and memo keys)
//
// and keeps all of them exact under Add / Remove / MergeWith, so a candidate
// sort's SigmaCounts never requires re-walking its member signatures.
// All aggregates are integers, so the extracted counts — and therefore the
// sigma doubles derived from them — do not depend on the order of mutations
// that built them: CheckInvariants() recomputes every aggregate from the
// member set, and tests/sort_stats_test.cc runs it after every step of
// random Add / Remove / MergeWith sequences.
//
// Memory diet (the ~100k-signature agglomerative regime holds one SortStats
// per part):
//  * members is a schema::MemberSet — sorted id vector while small, flipping
//    to the word-packed bitset at its density threshold — instead of an
//    unconditional n-bit bitset per part (O(n^2) bits across n parts).
//  * cnt_p lives in sorted (property, count) parallel arrays while the sort
//    uses fewer than half the global properties, flipping to the dense
//    per-property vector at 2 * |P*| >= |P| and back below |P| / 8
//    (hysteresis; see StoreCount). Lookups are O(log |P*|) sparse, O(1)
//    dense; both representations hold identical exact integers, so every
//    extracted count is independent of the representation.
//   `used` stays a dense |P|-bit set in both modes — the closed forms
//    intersect it word-at-a-time and |P| bits per sort is not the wall.

#ifndef RDFSR_EVAL_SORT_STATS_H_
#define RDFSR_EVAL_SORT_STATS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "eval/counts.h"
#include "schema/member_set.h"
#include "schema/property_set.h"
#include "schema/signature_index.h"

namespace rdfsr::eval {

/// Aggregate statistics of an implicit sort, maintained incrementally.
/// Created empty (usually via Evaluator::MakeStats, which configures the
/// tracked dep pair for the rule); value-semantic, so heuristics can snapshot
/// and restore candidate states by plain copies.
class SortStats {
 public:
  /// Capacity-0 placeholder; usable only as an assignment target.
  SortStats() = default;

  /// Empty stats over `index`'s signatures. When both `pair_p1` and `pair_p2`
  /// are valid property ids, the conjunction count cnt_{p1 ∧ p2} is tracked
  /// through every mutation (the Dep-family favorable term).
  explicit SortStats(const schema::SignatureIndex* index, int pair_p1 = -1,
                     int pair_p2 = -1);

  /// Adds signature set `sig_id` (must not be a member).
  void Add(int sig_id);

  /// Removes signature set `sig_id` (must be a member).
  void Remove(int sig_id);

  /// Folds `other` in. Requires the same index and pair configuration and
  /// disjoint member sets.
  void MergeWith(const SortStats& other);

  bool empty() const { return num_members_ == 0; }
  std::size_t num_members() const { return num_members_; }

  /// Member signature ids (capacity = num_signatures; sparse/dense hybrid).
  const schema::MemberSet& members() const { return members_; }

  BigCount subjects() const { return subjects_; }
  BigCount support_sum() const { return support_sum_; }
  BigCount count_sq_sum() const { return count_sq_sum_; }

  /// |P*|: number of properties with cnt_p > 0, and their word-packed set.
  int used_properties() const { return used_properties_; }
  const schema::PropertySet& used() const { return used_; }

  /// cnt_p for a global property id.
  std::int64_t property_count(std::size_t p) const {
    if (counts_dense_) {
      RDFSR_CHECK_LT(p, property_count_.size());
      return property_count_[p];
    }
    const auto pos = std::lower_bound(sparse_props_.begin(),
                                      sparse_props_.end(),
                                      static_cast<std::uint32_t>(p));
    if (pos == sparse_props_.end() || *pos != p) return 0;
    return sparse_counts_[static_cast<std::size_t>(pos - sparse_props_.begin())];
  }

  /// Calls fn(std::size_t p, std::int64_t cnt_p) over used properties in
  /// ascending order — O(|P*|), independent of the count representation.
  template <typename Fn>
  void ForEachCount(Fn&& fn) const {
    if (counts_dense_) {
      used_.ForEach([&](int p) {
        fn(static_cast<std::size_t>(p),
           property_count_[static_cast<std::size_t>(p)]);
      });
    } else {
      for (std::size_t i = 0; i < sparse_props_.size(); ++i) {
        fn(static_cast<std::size_t>(sparse_props_[i]), sparse_counts_[i]);
      }
    }
  }

  /// Whether cnt_p currently uses the dense per-property vector. Tests lock
  /// the transition thresholds through this; nothing else may depend on it.
  bool counts_dense() const { return counts_dense_; }

  /// The tracked pair (-1 when untracked / unresolved) and its conjunction
  /// count.
  int pair_p1() const { return pair_p1_; }
  int pair_p2() const { return pair_p2_; }
  BigCount pair_both() const { return pair_both_; }

  /// Full oracle validation (fatal on violation): recomputes every aggregate
  /// from scratch over the member signatures and compares, then checks the
  /// representation invariants (exactly one count storage active, sparse
  /// arrays strictly ascending and zero-free, `used` == nonzero-count set).
  /// O(|members| * |P|) — the scratch cost the incremental path avoids —
  /// always compiled; audit builds run it at heuristic commit points.
  void CheckInvariants() const;

 private:
  friend struct AuditTestPeer;  // invariant-oracle tests corrupt state
  /// Sets cnt_p, keeping the sparse arrays sorted and zero-free; a zero
  /// `value` erases the sparse entry. Representation flips happen only in
  /// MaybeDensify/MaybeSparsify (called once per mutation, not per column).
  void StoreCount(std::size_t p, std::int64_t value);
  void MaybeDensifyCounts();
  void MaybeSparsifyCounts();

  const schema::SignatureIndex* index_ = nullptr;
  std::size_t num_members_ = 0;
  schema::MemberSet members_;
  BigCount subjects_ = 0;
  BigCount support_sum_ = 0;
  BigCount count_sq_sum_ = 0;
  int used_properties_ = 0;
  schema::PropertySet used_;
  // cnt_p storage: exactly one of the two representations is active.
  bool counts_dense_ = false;
  std::vector<std::int64_t> property_count_;   // dense: |P| entries
  std::vector<std::uint32_t> sparse_props_;    // sparse: used ids, ascending
  std::vector<std::int64_t> sparse_counts_;    // sparse: parallel counts
  int pair_p1_ = -1;
  int pair_p2_ = -1;
  schema::PropertySet pair_mask_;  // non-empty iff the pair is tracked
  BigCount pair_both_ = 0;
};

}  // namespace rdfsr::eval

#endif  // RDFSR_EVAL_SORT_STATS_H_
