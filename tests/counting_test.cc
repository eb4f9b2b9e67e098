// Tests for eval/partitions.h and eval/counting.h: set-partition enumeration
// and the signature-level count(phi, tau, M) against brute-force enumeration
// over the expanded matrix.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "dense_matrix_oracle.h"
#include "eval/counting.h"
#include "eval/partitions.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "schema/signature_index.h"

namespace rdfsr::eval {
namespace {

TEST(PartitionsTest, CountsMatchBellNumbers) {
  for (int n = 0; n <= 7; ++n) {
    std::int64_t visits = 0;
    ForEachSetPartition(n, [&](const std::vector<int>&) {
      ++visits;
      return true;
    });
    EXPECT_EQ(visits, BellNumber(n)) << "n=" << n;
  }
}

TEST(PartitionsTest, BellNumbersKnownValues) {
  EXPECT_EQ(BellNumber(0), 1);
  EXPECT_EQ(BellNumber(1), 1);
  EXPECT_EQ(BellNumber(2), 2);
  EXPECT_EQ(BellNumber(3), 5);
  EXPECT_EQ(BellNumber(4), 15);
  EXPECT_EQ(BellNumber(5), 52);
  EXPECT_EQ(BellNumber(10), 115975);
}

TEST(PartitionsTest, PartitionsAreRestrictedGrowthAndDistinct) {
  std::set<std::vector<int>> seen;
  ForEachSetPartition(4, [&](const std::vector<int>& p) {
    EXPECT_EQ(p[0], 0);
    int max_so_far = 0;
    for (std::size_t i = 1; i < p.size(); ++i) {
      EXPECT_LE(p[i], max_so_far + 1);
      max_so_far = std::max(max_so_far, p[i]);
    }
    EXPECT_TRUE(seen.insert(p).second) << "duplicate partition";
    return true;
  });
  EXPECT_EQ(seen.size(), 15u);
}

TEST(PartitionsTest, EarlyAbort) {
  int visits = 0;
  ForEachSetPartition(5, [&](const std::vector<int>&) {
    return ++visits < 3;
  });
  EXPECT_EQ(visits, 3);
}

/// Brute-force count(phi, tau, M): enumerate concrete assignments on the
/// expanded matrix, keeping those whose (signature, property) pattern matches
/// tau.
BigCount BruteForceCount(const rules::FormulaPtr& phi,
                         const std::vector<std::string>& variables,
                         const RoughAssignment& tau,
                         const schema::SignatureIndex& index) {
  const oracle::Expansion expansion = oracle::ExpandIndex(index);
  const oracle::DenseMatrix& matrix = expansion.matrix;

  const int n = static_cast<int>(variables.size());
  const std::int64_t subjects = matrix.num_subjects();
  const std::int64_t props = matrix.num_properties();
  const std::int64_t cells = subjects * props;
  BigCount count = 0;
  std::vector<std::int64_t> odo(n, 0);
  std::vector<oracle::Cell> assign(n);
  while (true) {
    bool compatible = true;
    for (int v = 0; v < n && compatible; ++v) {
      const int s = static_cast<int>(odo[v] / props);
      const int p = static_cast<int>(odo[v] % props);
      assign[v] = {s, p};
      if (expansion.row_signature[s] != tau.cells[v].first ||
          p != tau.cells[v].second) {
        compatible = false;
      }
    }
    if (compatible && oracle::Satisfies(phi, matrix, variables, assign)) {
      ++count;
    }
    int pos = 0;
    while (pos < n && ++odo[pos] == cells) odo[pos++] = 0;
    if (pos == n) break;
  }
  return count;
}

TEST(CountingTest, MatchesBruteForceOnRandomIndexes) {
  const char* formulas[] = {
      "val(c1) = 1",
      "val(c1) = 1 && subj(c1) = subj(c2)",
      "!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1",
      "subj(c1) = subj(c2) && val(c1) = val(c2)",
      "val(c1) = 1 || val(c2) = 0",
      "c1 = c2",
      "!(subj(c1) = subj(c2))",
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 3;
    spec.num_properties = 3;
    spec.max_count = 3;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    for (const char* text : formulas) {
      auto phi = rules::ParseFormula(text);
      ASSERT_TRUE(phi.ok()) << text;
      std::vector<std::string> vars;
      rules::CollectVariables(*phi, &vars);
      // Sweep a sample of rough assignments.
      for (int s1 = 0; s1 < 3; ++s1) {
        for (int p1 = 0; p1 < 3; ++p1) {
          RoughAssignment tau;
          tau.cells.push_back({s1, p1});
          if (vars.size() == 2) tau.cells.push_back({(s1 + 1) % 3, p1});
          const BigCount fast = CountCompatible(*phi, vars, tau, index);
          const BigCount slow = BruteForceCount(*phi, vars, tau, index);
          EXPECT_EQ(static_cast<long long>(fast),
                    static_cast<long long>(slow))
              << "seed=" << seed << " formula=" << text << " tau=(" << s1
              << "," << p1 << ")";
        }
      }
    }
  }
}

TEST(CountingTest, SubjectConstantsCounted) {
  // Two signatures: {p0} x2 (s0,s1), {p0,p1} x1 (s2).
  const schema::SignatureIndex index =
      oracle::IndexOf(oracle::DenseMatrix::FromRows(
          {{1, 0}, {1, 0}, {1, 1}}, {"s0", "s1", "s2"}, {"p0", "p1"}));
  // Signature 0 = {p0} (count 2), signature 1 = {p0,p1} (count 1).
  auto phi = rules::ParseFormula("subj(c) = s0");
  ASSERT_TRUE(phi.ok());
  RoughAssignment tau;
  tau.cells.push_back({0, 0});
  // Exactly one assignment: c -> (s0, p0).
  EXPECT_EQ(static_cast<long long>(
                CountCompatible(*phi, {"c"}, tau, index)),
            1);
  // The complement: the other subject of signature 0.
  auto neg = rules::ParseFormula("!(subj(c) = s0)");
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(static_cast<long long>(CountCompatible(*neg, {"c"}, tau, index)),
            1);
  // Unknown subject constant: nothing satisfies equality.
  auto ghost = rules::ParseFormula("subj(c) = ghost");
  ASSERT_TRUE(ghost.ok());
  EXPECT_EQ(static_cast<long long>(CountCompatible(*ghost, {"c"}, tau, index)),
            0);
}

TEST(CountingTest, SubjectEqualityRestrictsToSameSignature) {
  std::vector<schema::Signature> sigs = {{{0}, 3}, {{0, 1}, 2}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"p0", "p1"}, sigs);
  auto phi = rules::ParseFormula("subj(c1) = subj(c2)");
  ASSERT_TRUE(phi.ok());
  // Same signature (id 0, count 3): 3 subject choices.
  RoughAssignment same;
  same.cells = {{0, 0}, {0, 1}};
  EXPECT_EQ(static_cast<long long>(
                CountCompatible(*phi, {"c1", "c2"}, same, index)),
            3);
  // Different signatures: impossible.
  RoughAssignment diff;
  diff.cells = {{0, 0}, {1, 0}};
  EXPECT_EQ(static_cast<long long>(
                CountCompatible(*phi, {"c1", "c2"}, diff, index)),
            0);
}

TEST(CountingTest, DistinctSubjectsUseFallingFactorial) {
  std::vector<schema::Signature> sigs = {{{0}, 4}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"p0"}, sigs);
  auto phi = rules::ParseFormula("!(subj(c1) = subj(c2))");
  ASSERT_TRUE(phi.ok());
  RoughAssignment tau;
  tau.cells = {{0, 0}, {0, 0}};
  // 4 * 3 ordered pairs of distinct subjects.
  EXPECT_EQ(static_cast<long long>(
                CountCompatible(*phi, {"c1", "c2"}, tau, index)),
            12);
}

TEST(CountingTest, CountRuleCasesConsistentWithTwoCalls) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 4;
  spec.num_properties = 3;
  spec.max_count = 5;
  spec.seed = 99;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const rules::Rule rule = rules::SimRule();
  RoughAssignment tau;
  tau.cells = {{0, 1}, {1, 1}};
  const SigmaCounts both = CountRuleCases(
      rule.antecedent(), rule.consequent(), rule.variables(), tau, index);
  const BigCount total =
      CountCompatible(rule.antecedent(), rule.variables(), tau, index);
  const BigCount favorable = CountCompatible(
      rules::And(rule.antecedent(), rule.consequent()), rule.variables(), tau,
      index);
  EXPECT_EQ(static_cast<long long>(both.total), static_cast<long long>(total));
  EXPECT_EQ(static_cast<long long>(both.favorable),
            static_cast<long long>(favorable));
}

TEST(BigCountTest, ToStringHandlesLargeAndNegative) {
  EXPECT_EQ(BigCountToString(0), "0");
  EXPECT_EQ(BigCountToString(-42), "-42");
  BigCount big = 1;
  for (int i = 0; i < 20; ++i) big *= 10;
  EXPECT_EQ(BigCountToString(big), "100000000000000000000");
}

}  // namespace
}  // namespace rdfsr::eval
