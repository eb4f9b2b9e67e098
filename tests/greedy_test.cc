// Greedy/local-search backend tests: validity of produced partitions,
// agreement with exhaustive search on small instances, determinism.

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "eval/evaluator.h"
#include "eval/partitions.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"

namespace rdfsr::core {
namespace {

/// Best achievable min-sigma over all partitions into <= k parts.
double BruteForceMaxMin(const eval::Evaluator& evaluator, int k) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  double best = -1.0;
  eval::ForEachSetPartition(n, [&](const std::vector<int>& class_of) {
    const int classes =
        *std::max_element(class_of.begin(), class_of.end()) + 1;
    if (classes > k) return true;
    std::vector<std::vector<int>> parts(classes);
    for (int i = 0; i < n; ++i) parts[class_of[i]].push_back(i);
    double min_sigma = 1.0;
    for (const auto& part : parts) {
      min_sigma = std::min(min_sigma, evaluator.Sigma(part));
    }
    best = std::max(best, min_sigma);
    return true;
  });
  return best;
}

TEST(GreedyTest, ProducesValidPartitions) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 7;
    spec.num_properties = 4;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
    const SortRefinement ref = GreedyMaxMinSigma(*evaluator, 3);
    // Partition validity at threshold 0 (structure only).
    EXPECT_TRUE(ValidateRefinement(*evaluator, ref, Rational(0)).ok());
    EXPECT_LE(ref.num_sorts(), 3u);
  }
}

TEST(GreedyTest, NearOptimalOnSmallInstances) {
  // Greedy is a heuristic; on 5-signature instances with k=2 it should land
  // close to the exhaustive optimum most of the time. We require it to be
  // within 0.1 of optimal on every instance (empirically it is optimal).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 5;
    spec.num_properties = 3;
    spec.max_count = 5;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
    const double best = BruteForceMaxMin(*evaluator, 2);
    const SortRefinement ref = GreedyMaxMinSigma(*evaluator, 2);
    EXPECT_GE(MinSigma(*evaluator, ref), best - 0.1) << "seed " << seed;
  }
}

TEST(GreedyTest, SingleSlotReturnsWholeDataset) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 4;
  spec.seed = 3;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::SimRule(), &index);
  const SortRefinement ref = GreedyMaxMinSigma(*evaluator, 1);
  ASSERT_EQ(ref.num_sorts(), 1u);
  EXPECT_EQ(ref.sorts[0].size(), 4u);
}

TEST(GreedyTest, DeterministicForFixedSeed) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 8;
  spec.seed = 5;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  GreedyOptions options;
  options.seed = 99;
  const SortRefinement a = GreedyMaxMinSigma(*evaluator, 3, options);
  const SortRefinement b = GreedyMaxMinSigma(*evaluator, 3, options);
  ASSERT_EQ(a.num_sorts(), b.num_sorts());
  for (std::size_t i = 0; i < a.num_sorts(); ++i) {
    EXPECT_EQ(a.sorts[i], b.sorts[i]);
  }
}

TEST(GreedyTest, FindRefinementValidatesThreshold) {
  // Perfect split exists: {a}-sigs and {a,b}-sigs (Cov = 1 apart).
  std::vector<schema::Signature> sigs = {{{0}, 3}, {{0, 1}, 2}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  const SortRefinement found = GreedyMaxMinSigma(*evaluator, 2);
  EXPECT_TRUE(ValidateRefinement(*evaluator, found, Rational(1)).ok());
  // An impossible threshold: the whole dataset has Cov < 1 with k = 1.
  const SortRefinement impossible = GreedyMaxMinSigma(*evaluator, 1);
  EXPECT_FALSE(ValidateRefinement(*evaluator, impossible, Rational(1)).ok());
}

TEST(RefinementTest, SummaryAndSubjects) {
  std::vector<schema::Signature> sigs = {{{0}, 5}, {{1}, 3}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  SortRefinement ref;
  ref.sorts = {{0}, {1}};
  EXPECT_EQ(ref.SubjectsIn(index, 0), 5);
  EXPECT_EQ(ref.SubjectsIn(index, 1), 3);
  const std::string summary = ref.Summary(index);
  EXPECT_NE(summary.find("2 sorts"), std::string::npos);
}

TEST(RefinementTest, ValidationRejectsBadPartitions) {
  std::vector<schema::Signature> sigs = {{{0}, 5}, {{1}, 3}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);

  SortRefinement missing;
  missing.sorts = {{0}};
  EXPECT_FALSE(ValidateRefinement(*evaluator, missing, Rational(0)).ok());

  SortRefinement duplicated;
  duplicated.sorts = {{0, 1}, {1}};
  EXPECT_FALSE(ValidateRefinement(*evaluator, duplicated, Rational(0)).ok());

  SortRefinement empty_sort;
  empty_sort.sorts = {{0, 1}, {}};
  EXPECT_FALSE(ValidateRefinement(*evaluator, empty_sort, Rational(0)).ok());

  SortRefinement unknown_sig;
  unknown_sig.sorts = {{0, 1, 7}};
  EXPECT_FALSE(ValidateRefinement(*evaluator, unknown_sig, Rational(0)).ok());

  SortRefinement ok;
  ok.sorts = {{0}, {1}};
  EXPECT_TRUE(ValidateRefinement(*evaluator, ok, Rational(0)).ok());
}

TEST(RefinementTest, SigmaAtLeastIsExact) {
  eval::SigmaCounts counts;
  counts.favorable = 9;
  counts.total = 10;
  EXPECT_TRUE(SigmaAtLeast(counts, Rational(9, 10)));
  EXPECT_FALSE(SigmaAtLeast(counts, Rational(91, 100)));
  counts.total = 0;
  EXPECT_TRUE(SigmaAtLeast(counts, Rational(1)));  // vacuous sigma = 1
}

}  // namespace
}  // namespace rdfsr::core
