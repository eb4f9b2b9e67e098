// Capacity-aware set of signature ids: sorted id vector below a density
// threshold, word-packed PropertySet above it.
//
// SortStats keeps one member set per candidate sort. The agglomerative
// heuristics hold one SortStats per part, so a dense n-bit bitset per part is
// O(n^2) bits total — the memory wall at ~100k signatures (100k parts x
// 12.5 KB = 1.25 GB of member bits alone, almost all of them zero: parts
// start as singletons and stay small until late in the run). MemberSet keeps
// small sets as sorted 32-bit ids (32 bits per member instead of `capacity`
// bits per set) and flips to the word-packed representation exactly when the
// bitset becomes the smaller encoding.
//
// Representation thresholds (see Densify/Sparsify):
//  * sparse -> dense when 32 * size >= capacity (the id vector would be at
//    least as large as the bitset),
//  * dense -> sparse when 64 * size <= capacity (hysteresis at half the
//    densify bound, so a set oscillating around the boundary does not thrash
//    between representations).
//
// Every operation is representation-independent in behavior: iteration is
// ascending, equality is set equality, and ToPropertySet() materializes the
// word-packed view on demand (memo keys in eval/cached_evaluator.cc). The
// representation is observable only through dense(), which exists for tests.

#ifndef RDFSR_SCHEMA_MEMBER_SET_H_
#define RDFSR_SCHEMA_MEMBER_SET_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "schema/property_set.h"
#include "util/check.h"

namespace rdfsr::schema {

/// Fixed-capacity set over [0, capacity) with an automatic sparse/dense
/// representation switch. Value-semantic, like PropertySet.
class MemberSet {
 public:
  /// Empty set of capacity 0; usable only as an assignment target.
  MemberSet() = default;

  /// Empty (sparse) set over [0, capacity). Allocates nothing until members
  /// are inserted.
  explicit MemberSet(std::size_t capacity) : capacity_(capacity) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Whether the current representation is the word-packed bitset. Tests
  /// lock the transition thresholds through this; nothing else may depend on
  /// it.
  bool dense() const { return dense_rep_; }

  bool Contains(std::size_t i) const {
    RDFSR_CHECK_LT(i, capacity_);
    if (dense_rep_) return bits_.Contains(i);
    return std::binary_search(ids_.begin(), ids_.end(),
                              static_cast<std::uint32_t>(i));
  }

  /// Inserts `i`, which must not be present.
  void Insert(std::size_t i) {
    RDFSR_CHECK_LT(i, capacity_);
    if (dense_rep_) {
      RDFSR_CHECK(!bits_.Contains(i));
      bits_.Insert(i);
    } else {
      const auto pos = std::lower_bound(ids_.begin(), ids_.end(),
                                        static_cast<std::uint32_t>(i));
      RDFSR_CHECK(pos == ids_.end() || *pos != i);
      ids_.insert(pos, static_cast<std::uint32_t>(i));
    }
    ++size_;
    if (!dense_rep_ && 32 * size_ >= capacity_) Densify();
  }

  /// Inserts every id of `ids` (distinct, in range, any order) into this
  /// empty set at once; the representation is the one Insert() per id
  /// would end in.
  void InsertAll(const std::vector<int>& ids) {
    RDFSR_CHECK_EQ(size_, 0u) << "InsertAll fills an empty set";
    if (ids.empty()) return;
    ids_.reserve(ids.size());
    for (const int id : ids) {
      RDFSR_CHECK_GE(id, 0);
      RDFSR_CHECK_LT(static_cast<std::size_t>(id), capacity_);
      ids_.push_back(static_cast<std::uint32_t>(id));
    }
    std::sort(ids_.begin(), ids_.end());
    RDFSR_CHECK(std::adjacent_find(ids_.begin(), ids_.end()) == ids_.end())
        << "repeated member id";
    size_ = ids_.size();
    if (32 * size_ >= capacity_) Densify();
  }

  /// Erases `i`, which must be present.
  void Erase(std::size_t i) {
    RDFSR_CHECK_LT(i, capacity_);
    if (dense_rep_) {
      RDFSR_CHECK(bits_.Contains(i));
      bits_.Erase(i);
    } else {
      const auto pos = std::lower_bound(ids_.begin(), ids_.end(),
                                        static_cast<std::uint32_t>(i));
      RDFSR_CHECK(pos != ids_.end() && *pos == i);
      ids_.erase(pos);
    }
    --size_;
    if (dense_rep_ && 64 * size_ <= capacity_) Sparsify();
  }

  /// Whether the two sets share any element.
  bool Intersects(const MemberSet& o) const {
    RDFSR_CHECK_EQ(capacity_, o.capacity_);
    if (dense_rep_ && o.dense_rep_) return bits_.Intersects(o.bits_);
    if (!dense_rep_ && !o.dense_rep_) {
      auto a = ids_.begin();
      auto b = o.ids_.begin();
      while (a != ids_.end() && b != o.ids_.end()) {
        if (*a == *b) return true;
        if (*a < *b) {
          ++a;
        } else {
          ++b;
        }
      }
      return false;
    }
    const MemberSet& sparse = dense_rep_ ? o : *this;
    const MemberSet& dense = dense_rep_ ? *this : o;
    for (std::uint32_t id : sparse.ids_) {
      if (dense.bits_.Contains(id)) return true;
    }
    return false;
  }

  /// Folds `o` in; the sets must be disjoint.
  void UnionWith(const MemberSet& o) {
    RDFSR_CHECK_EQ(capacity_, o.capacity_);
    RDFSR_CHECK(!Intersects(o)) << "union of overlapping member sets";
    size_ += o.size_;
    if (!dense_rep_ && 32 * size_ >= capacity_) Densify();
    if (dense_rep_) {
      if (o.dense_rep_) {
        bits_.UnionWith(o.bits_);
      } else {
        for (std::uint32_t id : o.ids_) bits_.Insert(id);
      }
      return;
    }
    // Both sparse (o smaller than the densify bound): merge the sorted runs.
    std::vector<std::uint32_t> merged;
    merged.reserve(size_);
    std::merge(ids_.begin(), ids_.end(), o.ids_.begin(), o.ids_.end(),
               std::back_inserter(merged));
    ids_ = std::move(merged);
  }

  /// Calls fn(int id) for each element in ascending order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (dense_rep_) {
      bits_.ForEach(fn);
    } else {
      for (std::uint32_t id : ids_) fn(static_cast<int>(id));
    }
  }

  /// Elements as a sorted ascending vector.
  std::vector<int> ToVector() const {
    std::vector<int> out;
    out.reserve(size_);
    ForEach([&](int id) { out.push_back(id); });
    return out;
  }

  /// The word-packed view (memo keys); O(capacity/64) even when sparse.
  PropertySet ToPropertySet() const {
    if (dense_rep_) return bits_;
    PropertySet out(capacity_);
    for (std::uint32_t id : ids_) out.Insert(id);
    return out;
  }

  /// Set equality, independent of representation.
  bool operator==(const MemberSet& o) const {
    if (capacity_ != o.capacity_ || size_ != o.size_) return false;
    if (dense_rep_ == o.dense_rep_) {
      return dense_rep_ ? bits_ == o.bits_ : ids_ == o.ids_;
    }
    const MemberSet& sparse = dense_rep_ ? o : *this;
    const MemberSet& dense = dense_rep_ ? *this : o;
    for (std::uint32_t id : sparse.ids_) {
      if (!dense.bits_.Contains(id)) return false;
    }
    return true;
  }
  bool operator!=(const MemberSet& o) const { return !(*this == o); }

  /// Structural validation (fatal on violation): size_ matches the active
  /// representation, sparse ids are strictly ascending and in range, and the
  /// inactive representation is empty.
  void CheckInvariants() const {
    if (dense_rep_) {
      RDFSR_CHECK_EQ(bits_.capacity(), capacity_);
      RDFSR_CHECK_EQ(bits_.Popcount(), size_) << "dense size out of sync";
      RDFSR_CHECK(ids_.empty()) << "dense member set still holds ids";
    } else {
      RDFSR_CHECK_EQ(bits_.capacity(), 0u)
          << "sparse member set still holds the bitset";
      RDFSR_CHECK_EQ(ids_.size(), size_) << "sparse size out of sync";
      for (std::size_t i = 0; i < ids_.size(); ++i) {
        RDFSR_CHECK_LT(ids_[i], capacity_);
        if (i > 0) {
          RDFSR_CHECK_LT(ids_[i - 1], ids_[i])
              << "member ids not strictly ascending";
        }
      }
    }
  }

 private:
  void Densify() {
    bits_ = PropertySet(capacity_);
    for (std::uint32_t id : ids_) bits_.Insert(id);
    ids_.clear();
    ids_.shrink_to_fit();
    dense_rep_ = true;
  }

  void Sparsify() {
    ids_.clear();
    ids_.reserve(size_);
    bits_.ForEach([&](int id) { ids_.push_back(static_cast<std::uint32_t>(id)); });
    bits_ = PropertySet();
    dense_rep_ = false;
  }

  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  bool dense_rep_ = false;
  std::vector<std::uint32_t> ids_;  // sparse: sorted ascending
  PropertySet bits_;                // dense: capacity_-bit bitset
};

}  // namespace rdfsr::schema

#endif  // RDFSR_SCHEMA_MEMBER_SET_H_
