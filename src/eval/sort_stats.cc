#include "eval/sort_stats.h"

#include "util/check.h"

namespace rdfsr::eval {

SortStats::SortStats(const schema::SignatureIndex* index, int pair_p1,
                     int pair_p2)
    : index_(index),
      members_(index->num_signatures()),
      used_(index->num_properties()),
      pair_p1_(pair_p1),
      pair_p2_(pair_p2) {
  RDFSR_CHECK(index_ != nullptr);
  if (pair_p1_ >= 0 && pair_p2_ >= 0) {
    pair_mask_ = schema::PropertySet(index->num_properties());
    pair_mask_.Insert(static_cast<std::size_t>(pair_p1_));
    pair_mask_.Insert(static_cast<std::size_t>(pair_p2_));
  }
}

void SortStats::StoreCount(std::size_t p, std::int64_t value) {
  if (counts_dense_) {
    property_count_[p] = value;
    return;
  }
  const auto pos = std::lower_bound(sparse_props_.begin(), sparse_props_.end(),
                                    static_cast<std::uint32_t>(p));
  const std::size_t i = static_cast<std::size_t>(pos - sparse_props_.begin());
  if (pos != sparse_props_.end() && *pos == p) {
    if (value == 0) {
      sparse_props_.erase(pos);
      sparse_counts_.erase(sparse_counts_.begin() +
                           static_cast<std::ptrdiff_t>(i));
    } else {
      sparse_counts_[i] = value;
    }
    return;
  }
  RDFSR_CHECK_NE(value, 0);
  sparse_props_.insert(pos, static_cast<std::uint32_t>(p));
  sparse_counts_.insert(sparse_counts_.begin() + static_cast<std::ptrdiff_t>(i),
                        value);
}

void SortStats::MaybeDensifyCounts() {
  const std::size_t num_props = index_->num_properties();
  if (counts_dense_ || 2 * static_cast<std::size_t>(used_properties_) < num_props) {
    return;
  }
  property_count_.assign(num_props, 0);
  for (std::size_t i = 0; i < sparse_props_.size(); ++i) {
    property_count_[sparse_props_[i]] = sparse_counts_[i];
  }
  sparse_props_.clear();
  sparse_props_.shrink_to_fit();
  sparse_counts_.clear();
  sparse_counts_.shrink_to_fit();
  counts_dense_ = true;
}

void SortStats::MaybeSparsifyCounts() {
  const std::size_t num_props = index_->num_properties();
  // Hysteresis: re-sparsify only well below the densify bound (|P| / 8 vs
  // |P| / 2), so sorts hovering at the boundary do not thrash.
  if (!counts_dense_ ||
      8 * static_cast<std::size_t>(used_properties_) > num_props) {
    return;
  }
  sparse_props_.reserve(static_cast<std::size_t>(used_properties_));
  sparse_counts_.reserve(static_cast<std::size_t>(used_properties_));
  used_.ForEach([&](int p) {
    sparse_props_.push_back(static_cast<std::uint32_t>(p));
    sparse_counts_.push_back(property_count_[static_cast<std::size_t>(p)]);
  });
  property_count_.clear();
  property_count_.shrink_to_fit();
  counts_dense_ = false;
}

void SortStats::Add(int sig_id) {
  RDFSR_CHECK(index_ != nullptr);
  RDFSR_CHECK_GE(sig_id, 0);
  RDFSR_CHECK_LT(static_cast<std::size_t>(sig_id), index_->num_signatures());
  RDFSR_CHECK(!members_.Contains(static_cast<std::size_t>(sig_id)))
      << "signature " << sig_id << " already a member";
  const schema::Signature& sig = index_->signature(sig_id);
  const std::int64_t n = sig.count;
  members_.Insert(static_cast<std::size_t>(sig_id));
  ++num_members_;
  subjects_ += n;
  support_sum_ +=
      static_cast<BigCount>(n) * static_cast<BigCount>(sig.props().Popcount());
  sig.props().ForEach([&](int p) {
    const std::size_t prop = static_cast<std::size_t>(p);
    const std::int64_t c = property_count(prop);
    // (c + n)^2 - c^2 = n * (2c + n), kept exact in 128-bit.
    count_sq_sum_ += static_cast<BigCount>(n) * (2 * c + n);
    if (c == 0) {
      used_.Insert(prop);
      ++used_properties_;
    }
    StoreCount(prop, c + n);
  });
  MaybeDensifyCounts();
  if (pair_mask_.capacity() != 0 && pair_mask_.IsSubsetOf(sig.props())) {
    pair_both_ += n;
  }
}

void SortStats::AddAll(const std::vector<int>& sig_ids) {
  RDFSR_CHECK(index_ != nullptr);
  RDFSR_CHECK(empty()) << "AddAll folds into empty stats";
  if (sig_ids.empty()) return;
  members_.InsertAll(sig_ids);
  num_members_ = sig_ids.size();
  std::vector<std::int64_t> counts(index_->num_properties(), 0);
  for (const int sig_id : sig_ids) {
    const schema::Signature& sig = index_->signature(sig_id);
    const std::int64_t n = sig.count;
    subjects_ += n;
    support_sum_ +=
        static_cast<BigCount>(n) * static_cast<BigCount>(sig.props().Popcount());
    sig.props().ForEach([&](int p) { counts[static_cast<std::size_t>(p)] += n; });
    if (pair_mask_.capacity() != 0 && pair_mask_.IsSubsetOf(sig.props())) {
      pair_both_ += n;
    }
  }
  for (std::size_t p = 0; p < counts.size(); ++p) {
    if (counts[p] == 0) continue;
    used_.Insert(p);
    ++used_properties_;
    count_sq_sum_ +=
        static_cast<BigCount>(counts[p]) * static_cast<BigCount>(counts[p]);
  }
  // Add() densifies once 2 * |P*| reaches |P|, and |P*| only grows under
  // Add, so the final |P*| decides the representation Add() per id ends in.
  if (2 * static_cast<std::size_t>(used_properties_) >= counts.size()) {
    property_count_ = std::move(counts);
    counts_dense_ = true;
    return;
  }
  sparse_props_.reserve(static_cast<std::size_t>(used_properties_));
  sparse_counts_.reserve(static_cast<std::size_t>(used_properties_));
  used_.ForEach([&](int p) {
    sparse_props_.push_back(static_cast<std::uint32_t>(p));
    sparse_counts_.push_back(counts[static_cast<std::size_t>(p)]);
  });
}

void SortStats::Remove(int sig_id) {
  RDFSR_CHECK(index_ != nullptr);
  RDFSR_CHECK_GE(sig_id, 0);
  RDFSR_CHECK(members_.Contains(static_cast<std::size_t>(sig_id)))
      << "signature " << sig_id << " not a member";
  const schema::Signature& sig = index_->signature(sig_id);
  const std::int64_t n = sig.count;
  members_.Erase(static_cast<std::size_t>(sig_id));
  --num_members_;
  subjects_ -= n;
  support_sum_ -=
      static_cast<BigCount>(n) * static_cast<BigCount>(sig.props().Popcount());
  sig.props().ForEach([&](int p) {
    const std::size_t prop = static_cast<std::size_t>(p);
    const std::int64_t c = property_count(prop);
    // c^2 - (c - n)^2 = n * (2c - n).
    count_sq_sum_ -= static_cast<BigCount>(n) * (2 * c - n);
    if (c == n) {
      used_.Erase(prop);
      --used_properties_;
    }
    StoreCount(prop, c - n);
  });
  MaybeSparsifyCounts();
  if (pair_mask_.capacity() != 0 && pair_mask_.IsSubsetOf(sig.props())) {
    pair_both_ -= n;
  }
}

void SortStats::MergeWith(const SortStats& other) {
  RDFSR_CHECK(index_ != nullptr);
  RDFSR_CHECK(index_ == other.index_) << "stats over different indices";
  RDFSR_CHECK(pair_p1_ == other.pair_p1_ && pair_p2_ == other.pair_p2_)
      << "stats track different property pairs";
  RDFSR_CHECK(!members_.Intersects(other.members_))
      << "merging overlapping sorts";
  // Cross term of Σ (a_p + b_p)^2 over shared columns, read before the
  // per-column counts are folded in.
  BigCount cross = 0;
  used_.ForEachIntersect(other.used_, [&](int p) {
    const std::size_t prop = static_cast<std::size_t>(p);
    cross += static_cast<BigCount>(property_count(prop)) *
             static_cast<BigCount>(other.property_count(prop));
  });
  count_sq_sum_ += other.count_sq_sum_ + 2 * cross;
  other.ForEachCount([&](std::size_t prop, std::int64_t oc) {
    const std::int64_t c = property_count(prop);
    if (c == 0) {
      used_.Insert(prop);
      ++used_properties_;
    }
    StoreCount(prop, c + oc);
  });
  MaybeDensifyCounts();
  subjects_ += other.subjects_;
  support_sum_ += other.support_sum_;
  pair_both_ += other.pair_both_;
  members_.UnionWith(other.members_);
  num_members_ += other.num_members_;
}

void SortStats::CheckInvariants() const {
  RDFSR_CHECK(index_ != nullptr) << "placeholder SortStats";
  members_.CheckInvariants();
  RDFSR_CHECK_EQ(members_.size(), num_members_) << "member count out of sync";

  // Scratch recompute of every aggregate over the member signatures.
  const std::size_t num_props = index_->num_properties();
  std::vector<std::int64_t> counts(num_props, 0);
  BigCount subjects = 0, support_sum = 0, pair_both = 0;
  members_.ForEach([&](int sig_id) {
    const schema::Signature& sig = index_->signature(sig_id);
    const std::int64_t n = sig.count;
    subjects += n;
    support_sum += static_cast<BigCount>(n) *
                   static_cast<BigCount>(sig.props().Popcount());
    sig.props().ForEach([&](int p) { counts[static_cast<std::size_t>(p)] += n; });
    if (pair_mask_.capacity() != 0 && pair_mask_.IsSubsetOf(sig.props())) {
      pair_both += n;
    }
  });
  RDFSR_CHECK(subjects == subjects_) << "subjects aggregate out of sync";
  RDFSR_CHECK(support_sum == support_sum_) << "support_sum out of sync";
  RDFSR_CHECK(pair_both == pair_both_) << "pair_both out of sync";

  BigCount count_sq_sum = 0;
  int used_count = 0;
  RDFSR_CHECK_EQ(used_.capacity(), num_props) << "used set capacity mismatch";
  for (std::size_t p = 0; p < num_props; ++p) {
    count_sq_sum +=
        static_cast<BigCount>(counts[p]) * static_cast<BigCount>(counts[p]);
    RDFSR_CHECK_EQ(property_count(p), counts[p])
        << "cnt_" << p << " out of sync";
    RDFSR_CHECK_EQ(used_.Contains(p), counts[p] > 0)
        << "used bit " << p << " disagrees with cnt_" << p;
    if (counts[p] > 0) ++used_count;
  }
  RDFSR_CHECK(count_sq_sum == count_sq_sum_) << "count_sq_sum out of sync";
  RDFSR_CHECK_EQ(used_count, used_properties_) << "|P*| out of sync";

  // Representation invariants: exactly one count storage is active.
  if (counts_dense_) {
    RDFSR_CHECK_EQ(property_count_.size(), num_props);
    RDFSR_CHECK(sparse_props_.empty() && sparse_counts_.empty())
        << "dense stats still hold sparse arrays";
  } else {
    RDFSR_CHECK(property_count_.empty())
        << "sparse stats still hold the dense vector";
    RDFSR_CHECK_EQ(sparse_props_.size(), sparse_counts_.size());
    RDFSR_CHECK_EQ(sparse_props_.size(),
                   static_cast<std::size_t>(used_properties_));
    for (std::size_t i = 0; i < sparse_props_.size(); ++i) {
      RDFSR_CHECK_NE(sparse_counts_[i], 0) << "sparse entry with zero count";
      if (i > 0) {
        RDFSR_CHECK_LT(sparse_props_[i - 1], sparse_props_[i])
            << "sparse property ids not strictly ascending";
      }
    }
  }
}

}  // namespace rdfsr::eval
