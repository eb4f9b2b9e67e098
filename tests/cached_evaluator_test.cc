// Tests for the memoizing evaluator wrapper and the binary-theta-search
// solver option (both must be behaviorally transparent).

#include <gtest/gtest.h>

#include "core/solver.h"
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
  auto inner = MakeEvaluator(rules::CovRule(), &index);
  CachedEvaluator cached(inner.get());

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

namespace rdfsr::core {
namespace {

TEST(BinaryThetaSearchTest, AgreesWithSequentialSearch) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 5;
    spec.num_properties = 4;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto cov = eval::MakeEvaluator(rules::CovRule(), &index);

    SolverOptions sequential;
    sequential.binary_theta_search = false;
    SolverOptions binary;
    binary.binary_theta_search = true;

    RefinementSolver a(cov.get(), sequential);
    RefinementSolver b(cov.get(), binary);
    const HighestThetaResult ra = a.FindHighestTheta(2);
    const HighestThetaResult rb = b.FindHighestTheta(2);
    // Both searches settle every instance exactly on these small datasets,
    // so the discovered thresholds must coincide.
    ASSERT_TRUE(ra.ceiling_proven || ra.theta == Rational(1));
    ASSERT_TRUE(rb.ceiling_proven || rb.theta == Rational(1));
    EXPECT_EQ(ra.theta, rb.theta) << "seed " << seed;
    EXPECT_TRUE(ValidateRefinement(*cov, rb.refinement, rb.theta).ok());
  }
}

}  // namespace
}  // namespace rdfsr::core
