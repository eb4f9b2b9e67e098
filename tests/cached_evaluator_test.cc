// Tests for the memoizing evaluator wrapper (it must be behaviorally
// transparent).

#include <gtest/gtest.h>

#include "eval/cached_evaluator.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"

namespace rdfsr::eval {
namespace {

TEST(CachedEvaluatorTest, ReturnsIdenticalCounts) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 6;
  spec.seed = 9;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto inner = MakeEvaluator(rules::SimRule(), &index);
  CachedEvaluator cached(inner.get());

  const std::vector<std::vector<int>> subsets = {
      {0}, {1, 2}, {0, 1, 2, 3, 4, 5}, {5, 3, 1}};
  for (const auto& subset : subsets) {
    const SigmaCounts a = inner->Counts(subset);
    const SigmaCounts b = cached.Counts(subset);
    EXPECT_EQ(static_cast<long long>(a.total), static_cast<long long>(b.total));
    EXPECT_EQ(static_cast<long long>(a.favorable),
              static_cast<long long>(b.favorable));
  }
}

TEST(CachedEvaluatorTest, HitsOnRepeatsAndPermutations) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 5;
  spec.seed = 3;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  // The memo serves the generic enumerator; closed forms bypass it.
  GenericEvaluator inner(rules::CovRule(), &index);
  CachedEvaluator cached(&inner);

  (void)cached.Counts({0, 1, 2});
  EXPECT_EQ(cached.misses(), 1u);
  (void)cached.Counts({0, 1, 2});
  EXPECT_EQ(cached.hits(), 1u);
  // Permutations of the same subset hit the same entry.
  (void)cached.Counts({2, 0, 1});
  EXPECT_EQ(cached.hits(), 2u);
  EXPECT_EQ(cached.misses(), 1u);
  // A different subset misses.
  (void)cached.Counts({2, 1});
  EXPECT_EQ(cached.misses(), 2u);
}

TEST(CachedEvaluatorTest, ExposesRuleAndIndex) {
  gen::RandomIndexSpec spec;
  spec.seed = 2;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto inner = MakeEvaluator(rules::CovRule(), &index);
  CachedEvaluator cached(inner.get());
  EXPECT_EQ(cached.rule().name(), "Cov");
  EXPECT_EQ(&cached.index(), &index);
}

}  // namespace
}  // namespace rdfsr::eval
