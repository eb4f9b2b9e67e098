// Property tests for the word-packed PropertySet and for the word-based
// SignatureIndex operations, each checked against a scalar reference
// implementation (sorted vectors / byte rows — the representation the index
// used before the refactor).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <unordered_set>
#include <vector>

#include "schema/property_set.h"
#include "schema/signature_index.h"
#include "util/rng.h"

namespace rdfsr::schema {
namespace {

/// Scalar oracle: a sorted ascending index vector.
std::vector<int> RandomSortedSupport(Rng* rng, int capacity, int density_pct) {
  std::vector<int> out;
  for (int i = 0; i < capacity; ++i) {
    if (static_cast<int>(rng->Below(100)) < density_pct) out.push_back(i);
  }
  return out;
}

std::vector<int> VecIntersect(const std::vector<int>& a,
                              const std::vector<int>& b) {
  std::vector<int> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<int> VecUnion(const std::vector<int>& a,
                          const std::vector<int>& b) {
  std::vector<int> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<int> VecDifference(const std::vector<int>& a,
                               const std::vector<int>& b) {
  std::vector<int> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

TEST(PropertySetTest, BasicMembership) {
  PropertySet set(130);  // spans three words
  EXPECT_TRUE(set.Empty());
  set.Insert(0);
  set.Insert(63);
  set.Insert(64);
  set.Insert(129);
  EXPECT_EQ(set.Popcount(), 4u);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(63));
  EXPECT_TRUE(set.Contains(64));
  EXPECT_TRUE(set.Contains(129));
  EXPECT_FALSE(set.Contains(1));
  EXPECT_FALSE(set.Contains(128));
  set.Erase(64);
  EXPECT_FALSE(set.Contains(64));
  EXPECT_EQ(set.Popcount(), 3u);
  EXPECT_EQ(set.ToVector(), (std::vector<int>{0, 63, 129}));
}

TEST(PropertySetTest, IterationMatchesToVector) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.Below(200));
    const std::vector<int> ref = RandomSortedSupport(&rng, capacity, 30);
    const PropertySet set = PropertySet::FromIndices(capacity, ref);
    EXPECT_EQ(set.ToVector(), ref);
    std::vector<int> via_range;
    for (int p : set) via_range.push_back(p);
    EXPECT_EQ(via_range, ref);
    std::vector<int> via_foreach;
    set.ForEach([&](int p) { via_foreach.push_back(p); });
    EXPECT_EQ(via_foreach, ref);
    EXPECT_EQ(set.Popcount(), ref.size());
  }
}

TEST(PropertySetTest, SetAlgebraAgainstScalarOracle) {
  Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.Below(300));
    const std::vector<int> va = RandomSortedSupport(&rng, capacity, 40);
    const std::vector<int> vb = RandomSortedSupport(&rng, capacity, 40);
    const PropertySet a = PropertySet::FromIndices(capacity, va);
    const PropertySet b = PropertySet::FromIndices(capacity, vb);

    EXPECT_EQ(Union(a, b).ToVector(), VecUnion(va, vb));
    EXPECT_EQ(Intersect(a, b).ToVector(), VecIntersect(va, vb));
    EXPECT_EQ(Difference(a, b).ToVector(), VecDifference(va, vb));
    EXPECT_EQ(a.IntersectCount(b), VecIntersect(va, vb).size());
    EXPECT_EQ(a.Intersects(b), !VecIntersect(va, vb).empty());
    EXPECT_EQ(a.IsSubsetOf(b),
              std::includes(vb.begin(), vb.end(), va.begin(), va.end()));
    EXPECT_EQ(a == b, va == vb);
  }
}

TEST(PropertySetTest, CompareLexMatchesVectorOrder) {
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.Below(150));
    const std::vector<int> va = RandomSortedSupport(&rng, capacity, 25);
    const std::vector<int> vb = RandomSortedSupport(&rng, capacity, 25);
    const PropertySet a = PropertySet::FromIndices(capacity, va);
    const PropertySet b = PropertySet::FromIndices(capacity, vb);
    const int cmp = PropertySet::CompareLex(a, b);
    if (va < vb) {
      EXPECT_LT(cmp, 0) << "trial " << trial;
    } else if (va == vb) {
      EXPECT_EQ(cmp, 0) << "trial " << trial;
    } else {
      EXPECT_GT(cmp, 0) << "trial " << trial;
    }
    EXPECT_EQ(PropertySet::CompareLex(b, a), -cmp);
  }
  // Prefix cases that word comparison gets wrong if implemented naively.
  const PropertySet p0 = PropertySet::FromIndices(70, {0});
  const PropertySet p01 = PropertySet::FromIndices(70, {0, 1});
  const PropertySet p02 = PropertySet::FromIndices(70, {0, 2});
  const PropertySet p013 = PropertySet::FromIndices(70, {0, 1, 3});
  const PropertySet p069 = PropertySet::FromIndices(70, {0, 69});
  EXPECT_LT(PropertySet::CompareLex(p0, p01), 0);
  EXPECT_GT(PropertySet::CompareLex(p02, p013), 0);
  EXPECT_LT(PropertySet::CompareLex(p0, p069), 0);
  EXPECT_LT(PropertySet::CompareLex(p01, p069), 0);
}

TEST(PropertySetTest, HashConsistentWithEquality) {
  Rng rng(17);
  std::unordered_set<PropertySet, PropertySetHash> seen;
  std::set<std::vector<int>> ref;
  for (int trial = 0; trial < 100; ++trial) {
    const std::vector<int> v = RandomSortedSupport(&rng, 90, 20);
    seen.insert(PropertySet::FromIndices(90, v));
    ref.insert(v);
  }
  EXPECT_EQ(seen.size(), ref.size());
}

TEST(PropertySetTest, NextSetBit) {
  const PropertySet set = PropertySet::FromIndices(200, {3, 64, 128, 199});
  EXPECT_EQ(set.NextSetBit(0), 3);
  EXPECT_EQ(set.NextSetBit(3), 3);
  EXPECT_EQ(set.NextSetBit(4), 64);
  EXPECT_EQ(set.NextSetBit(65), 128);
  EXPECT_EQ(set.NextSetBit(129), 199);
  EXPECT_EQ(set.NextSetBit(200), -1);
  EXPECT_EQ(PropertySet(64).NextSetBit(0), -1);
}

TEST(PropertySetTest, WordBoundaryEdges) {
  // Bit 63 in a one-word set: every mask is built with `1 << (i & 63)`, so
  // the top bit is the shift-by-width-of-type edge (UB if the masking ever
  // regresses; the asan-ubsan CI job runs this under -fsanitize=undefined).
  PropertySet one_word(64);
  one_word.Insert(63);
  EXPECT_TRUE(one_word.Contains(63));
  EXPECT_EQ(one_word.Popcount(), 1u);
  EXPECT_EQ(one_word.NextSetBit(0), 63);
  EXPECT_EQ(one_word.NextSetBit(63), 63);
  EXPECT_EQ(one_word.NextSetBit(64), -1);
  EXPECT_EQ(one_word.ToVector(), std::vector<int>{63});
  one_word.Erase(63);
  EXPECT_TRUE(one_word.Empty());

  // First bit of the second word, reached across the word boundary.
  PropertySet spill(65);
  spill.Insert(64);
  EXPECT_TRUE(spill.Contains(64));
  EXPECT_EQ(spill.NextSetBit(63), 64);
  EXPECT_EQ(spill.NextSetBit(64), 64);
  EXPECT_EQ(*spill.begin(), 64);

  // Capacity 0: every query is well-defined and empty.
  PropertySet empty;
  EXPECT_TRUE(empty.Empty());
  EXPECT_EQ(empty.Popcount(), 0u);
  EXPECT_EQ(empty.NextSetBit(0), -1);
  EXPECT_TRUE(empty.begin() == empty.end());
  EXPECT_EQ(empty, PropertySet());
}

TEST(PropertySetTest, CompareLexBit63Edge) {
  // The first differing index d == 63 makes CompareLex's "elements above d"
  // mask `~0 << (d + 1)` a shift by 64 unless specifically guarded; these
  // pin the guard's behavior on both outcomes.
  const PropertySet a = PropertySet::FromIndices(128, {63});
  const PropertySet b = PropertySet::FromIndices(128, {70});
  // Sequences [63] vs [70]: a precedes b.
  EXPECT_LT(PropertySet::CompareLex(a, b), 0);
  EXPECT_GT(PropertySet::CompareLex(b, a), 0);

  // Strict-prefix case with the difference exactly at bit 63: [ ] vs [63].
  const PropertySet none(128);
  EXPECT_LT(PropertySet::CompareLex(none, a), 0);
  EXPECT_GT(PropertySet::CompareLex(a, none), 0);

  // Prefix vs extension across the word boundary: [63] vs [63, 64].
  const PropertySet ext = PropertySet::FromIndices(128, {63, 64});
  EXPECT_LT(PropertySet::CompareLex(a, ext), 0);
  EXPECT_GT(PropertySet::CompareLex(ext, a), 0);
  EXPECT_EQ(PropertySet::CompareLex(a, a), 0);
}

// --- SignatureIndex on words vs the scalar reference ------------------------

SignatureIndex RandomIndex(Rng* rng, int num_sigs, int num_props) {
  // Distinct non-empty supports; every property used (pad with a full row).
  std::set<std::vector<int>> supports;
  while (static_cast<int>(supports.size()) < num_sigs - 1) {
    std::vector<int> s = RandomSortedSupport(rng, num_props, 40);
    if (!s.empty()) supports.insert(std::move(s));
  }
  std::vector<int> full(num_props);
  for (int p = 0; p < num_props; ++p) full[p] = p;
  supports.insert(full);
  std::vector<Signature> sigs;
  for (const auto& s : supports) {
    sigs.emplace_back(s, 1 + static_cast<std::int64_t>(rng->Below(50)));
  }
  std::vector<std::string> names;
  for (int p = 0; p < num_props; ++p) {
    names.emplace_back("p") += std::to_string(p);
  }
  return SignatureIndex::FromSignatures(std::move(names), std::move(sigs));
}

/// Scalar reference for Restrict: the pre-refactor implementation working on
/// sorted support vectors and byte flags. Kept as the oracle for the
/// word-packed production path.
struct ScalarRestrictResult {
  std::vector<std::string> property_names;
  // (support, count) pairs sorted by (count desc, support lex asc).
  std::vector<std::pair<std::vector<int>, std::int64_t>> rows;
  std::vector<int> kept_props;
};

ScalarRestrictResult ScalarRestrict(const SignatureIndex& index,
                                    const std::vector<int>& sig_ids) {
  ScalarRestrictResult out;
  std::vector<std::uint8_t> used(index.num_properties(), 0);
  for (int id : sig_ids) {
    for (int p : index.signature(id).support()) used[p] = 1;
  }
  std::vector<int> prop_map(index.num_properties(), -1);
  for (std::size_t p = 0; p < index.num_properties(); ++p) {
    if (used[p]) {
      prop_map[p] = static_cast<int>(out.property_names.size());
      out.property_names.push_back(index.property_name(p));
      out.kept_props.push_back(static_cast<int>(p));
    }
  }
  for (int id : sig_ids) {
    std::vector<int> support;
    for (int p : index.signature(id).support()) {
      support.push_back(prop_map[p]);
    }
    std::sort(support.begin(), support.end());
    out.rows.emplace_back(std::move(support), index.signature(id).count);
  }
  std::sort(out.rows.begin(), out.rows.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

TEST(SignatureIndexWordsTest, RestrictMatchesScalarOracleOnRandomIndexes) {
  Rng rng(23);
  for (int trial = 0; trial < 30; ++trial) {
    const int num_props = 2 + static_cast<int>(rng.Below(120));
    const int num_sigs = 2 + static_cast<int>(rng.Below(12));
    const SignatureIndex index = RandomIndex(&rng, num_sigs, num_props);

    // Random non-empty subset of signatures.
    std::vector<int> sig_ids;
    for (std::size_t i = 0; i < index.num_signatures(); ++i) {
      if (rng.Below(2) == 0) sig_ids.push_back(static_cast<int>(i));
    }
    if (sig_ids.empty()) sig_ids.push_back(0);

    std::vector<int> kept;
    const SignatureIndex sub = index.Restrict(sig_ids, &kept);
    const ScalarRestrictResult ref = ScalarRestrict(index, sig_ids);

    ASSERT_EQ(sub.num_properties(), ref.property_names.size());
    for (std::size_t p = 0; p < sub.num_properties(); ++p) {
      EXPECT_EQ(sub.property_name(p), ref.property_names[p]);
    }
    EXPECT_EQ(kept, ref.kept_props);
    ASSERT_EQ(sub.num_signatures(), ref.rows.size());
    for (std::size_t i = 0; i < sub.num_signatures(); ++i) {
      EXPECT_EQ(sub.signature(i).support(), ref.rows[i].first)
          << "trial " << trial << " row " << i;
      EXPECT_EQ(sub.signature(i).count, ref.rows[i].second);
    }
  }
}

TEST(SignatureIndexWordsTest, RestrictRoundTripsThroughFullSubset) {
  Rng rng(29);
  for (int trial = 0; trial < 10; ++trial) {
    const SignatureIndex index = RandomIndex(&rng, 6, 40);
    std::vector<int> all(index.num_signatures());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    const SignatureIndex sub = index.Restrict(all);
    // Restricting to every signature keeps every property and row.
    ASSERT_EQ(sub.num_signatures(), index.num_signatures());
    ASSERT_EQ(sub.num_properties(), index.num_properties());
    for (std::size_t i = 0; i < index.num_signatures(); ++i) {
      EXPECT_EQ(sub.signature(i).support(), index.signature(i).support());
      EXPECT_EQ(sub.signature(i).count, index.signature(i).count);
    }
  }
}

TEST(SignatureIndexWordsTest, HasAndPropertyCountMatchScalarScan) {
  Rng rng(31);
  const SignatureIndex index = RandomIndex(&rng, 10, 100);
  for (std::size_t p = 0; p < index.num_properties(); ++p) {
    std::int64_t scalar_count = 0;
    for (std::size_t i = 0; i < index.num_signatures(); ++i) {
      const std::vector<int>& support = index.signature(i).support();
      const bool has =
          std::binary_search(support.begin(), support.end(),
                             static_cast<int>(p));
      EXPECT_EQ(index.Has(i, p), has);
      if (has) scalar_count += index.signature(i).count;
    }
    EXPECT_EQ(index.PropertyCount(p), scalar_count);
  }
}

TEST(SignatureIndexWordsTest, SupportViewIsLazilyDerivedFromWords) {
  std::vector<Signature> sigs = {{{0, 2}, 4}, {{1}, 2}};
  const SignatureIndex index =
      SignatureIndex::FromSignatures({"a", "b", "c"}, sigs);
  // Canonical order: count-4 row first.
  EXPECT_EQ(index.signature(0).support(), (std::vector<int>{0, 2}));
  EXPECT_EQ(index.signature(0).props().Popcount(), 2u);
  EXPECT_EQ(index.signature(1).support(), (std::vector<int>{1}));
  // The view agrees with the words on repeated calls (cached path).
  EXPECT_EQ(index.signature(0).support(), index.signature(0).props().ToVector());
}

TEST(SignatureIndexWordsTest, SupportUnionIsUnionOfMemberSupports) {
  std::vector<Signature> sigs = {{{0, 2}, 4}, {{1}, 2}, {{3}, 1}};
  const SignatureIndex index =
      SignatureIndex::FromSignatures({"a", "b", "c", "d"}, sigs);
  // Canonical order: {0,2} x4, {1} x2, {3} x1.
  EXPECT_EQ(index.SupportUnion({0, 1}).ToVector(),
            (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(index.SupportUnion({2}).ToVector(), (std::vector<int>{3}));
  EXPECT_EQ(index.SupportUnion({0, 1, 2}).Popcount(), 4u);
}

}  // namespace
}  // namespace rdfsr::schema
