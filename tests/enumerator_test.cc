// Property tests: the pruned rough-assignment enumerator (signature-level
// sigma_r) must agree exactly with the brute-force semantics on the expanded
// matrix, for builtin and ad-hoc rules, across random datasets.

#include <gtest/gtest.h>

#include "dense_matrix_oracle.h"
#include "eval/enumerator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "schema/signature_index.h"

namespace rdfsr::eval {
namespace {

struct RuleCase {
  const char* name;
  const char* text;
};

const RuleCase kRuleCases[] = {
    {"Cov", "c = c -> val(c) = 1"},
    {"Sim", "!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 -> val(c2) = 1"},
    {"Dep", "subj(c1) = subj(c2) && prop(c1) = p0 && prop(c2) = p1 && "
            "val(c1) = 1 -> val(c2) = 1"},
    {"SymDep",
     "subj(c1) = subj(c2) && prop(c1) = p0 && prop(c2) = p1 && "
     "(val(c1) = 1 || val(c2) = 1) -> val(c1) = 1 && val(c2) = 1"},
    {"DepDisj", "subj(c1) = subj(c2) && prop(c1) = p0 && prop(c2) = p1 "
                "-> val(c1) = 0 || val(c2) = 1"},
    {"OrAnte", "val(c1) = 1 || prop(c1) = p1 -> val(c1) = 1"},
    {"ValEqVal", "subj(c1) = subj(c2) && !(c1 = c2) -> val(c1) = val(c2)"},
    {"NegProp", "!(prop(c) = p0) -> val(c) = 1"},
};

class EnumeratorPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EnumeratorPropertyTest, AgreesWithBruteForce) {
  const int rule_id = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());

  gen::RandomIndexSpec spec;
  spec.num_signatures = 3 + static_cast<int>(seed % 3);
  spec.num_properties = 3;
  spec.max_count = 4;
  spec.density = 0.45;
  spec.seed = seed;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const oracle::DenseMatrix matrix = oracle::ExpandIndex(index).matrix;

  auto rule = rules::ParseRule(kRuleCases[rule_id].text);
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();

  const SigmaCounts fast = EvaluateRuleOnIndex(*rule, index);
  const oracle::SigmaValue slow = oracle::EvaluateBruteForce(*rule, matrix);
  EXPECT_EQ(static_cast<long long>(fast.total), slow.total)
      << kRuleCases[rule_id].name << " totals diverge (seed " << seed << ")";
  EXPECT_EQ(static_cast<long long>(fast.favorable), slow.favorable)
      << kRuleCases[rule_id].name << " favorables diverge (seed " << seed
      << ")";
}

INSTANTIATE_TEST_SUITE_P(
    RuleBySeed, EnumeratorPropertyTest,
    ::testing::Combine(::testing::Range(0, 8),
                       ::testing::Values(1, 2, 3, 4, 5, 6)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
      return std::string(kRuleCases[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(EnumeratorTest, TauCountsSumToEvaluate) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 5;
  spec.num_properties = 4;
  spec.max_count = 9;
  spec.seed = 77;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const rules::Rule rule = rules::SimRule();
  const std::vector<TauCount> taus = EnumerateTauCounts(rule, index);
  SigmaCounts sum;
  for (const TauCount& tc : taus) {
    EXPECT_GT(tc.total, 0) << "zero-total tau materialized";
    sum.total += tc.total;
    sum.favorable += tc.favorable;
  }
  const SigmaCounts direct = EvaluateRuleOnIndex(rule, index);
  EXPECT_EQ(static_cast<long long>(sum.total),
            static_cast<long long>(direct.total));
  EXPECT_EQ(static_cast<long long>(sum.favorable),
            static_cast<long long>(direct.favorable));
}

TEST(EnumeratorTest, TauCountsDeterministicOrder) {
  gen::RandomIndexSpec spec;
  spec.seed = 3;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const rules::Rule rule = rules::CovRule();
  const auto a = EnumerateTauCounts(rule, index);
  const auto b = EnumerateTauCounts(rule, index);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].tau == b[i].tau);
    EXPECT_EQ(a[i].total, b[i].total);
  }
}

TEST(EnumeratorTest, CovTauCountsAreSubjectCounts) {
  std::vector<schema::Signature> sigs = {{{0, 1}, 7}, {{0}, 3}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  const auto taus = EnumerateTauCounts(rules::CovRule(), index);
  // Every (signature, property) pair is a tau with total = |S_mu|.
  ASSERT_EQ(taus.size(), 4u);
  std::int64_t total = 0, favorable = 0;
  for (const auto& tc : taus) {
    total += tc.total;
    favorable += tc.favorable;
  }
  EXPECT_EQ(total, 20);      // 10 subjects x 2 columns
  EXPECT_EQ(favorable, 17);  // ones: 7*2 + 3*1
}

TEST(EnumeratorTest, PartialEvaluationPrunesSim) {
  // For Sim, tau candidates must have prop(c1) == prop(c2) and val(c1)=1;
  // the enumerator must not materialize anything else.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 6;
  spec.num_properties = 5;
  spec.seed = 11;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const auto taus = EnumerateTauCounts(rules::SimRule(), index);
  for (const auto& tc : taus) {
    EXPECT_EQ(tc.tau.cells[0].second, tc.tau.cells[1].second);
    EXPECT_TRUE(index.Has(tc.tau.cells[0].first, tc.tau.cells[0].second));
  }
}

TEST(EnumeratorTest, EmptyIndexYieldsSigmaOne) {
  const schema::SignatureIndex index;
  const SigmaCounts counts = EvaluateRuleOnIndex(rules::CovRule(), index);
  EXPECT_EQ(static_cast<long long>(counts.total), 0);
  EXPECT_DOUBLE_EQ(counts.Value(), 1.0);
}

TEST(PartialEvaluateTest, DecidesWhatItCan) {
  std::vector<schema::Signature> sigs = {{{0}, 2}, {{1}, 2}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"p0", "p1"}, sigs);
  const std::vector<std::string> vars = {"c1", "c2"};

  RoughAssignment partial;
  partial.cells = {{0, 0}, {-1, -1}};  // c1 on (sig0, p0); c2 unassigned

  auto eval = [&](const char* text) {
    auto f = rules::ParseFormula(text);
    EXPECT_TRUE(f.ok());
    return PartialEvaluate(*f, vars, partial, index);
  };
  EXPECT_EQ(eval("val(c1) = 1"), Tri::kTrue);       // sig0 has p0
  EXPECT_EQ(eval("val(c1) = 0"), Tri::kFalse);
  EXPECT_EQ(eval("prop(c1) = p0"), Tri::kTrue);
  EXPECT_EQ(eval("prop(c1) = p1"), Tri::kFalse);
  EXPECT_EQ(eval("val(c2) = 1"), Tri::kUnknown);    // unassigned
  EXPECT_EQ(eval("subj(c1) = subj(c2)"), Tri::kUnknown);
  EXPECT_EQ(eval("val(c1) = 1 && val(c2) = 1"), Tri::kUnknown);
  EXPECT_EQ(eval("val(c1) = 0 && val(c2) = 1"), Tri::kFalse);
  EXPECT_EQ(eval("val(c1) = 1 || val(c2) = 1"), Tri::kTrue);
  EXPECT_EQ(eval("!(val(c1) = 1)"), Tri::kFalse);
  EXPECT_EQ(eval("c1 = c1"), Tri::kTrue);

  // Both assigned, different signatures: subject equality decided false.
  partial.cells[1] = {1, 1};
  EXPECT_EQ(eval("subj(c1) = subj(c2)"), Tri::kFalse);
  EXPECT_EQ(eval("c1 = c2"), Tri::kFalse);
  // Same signature set: may or may not be the same subject.
  partial.cells[1] = {0, 0};
  EXPECT_EQ(eval("subj(c1) = subj(c2)"), Tri::kUnknown);
  EXPECT_EQ(eval("c1 = c2"), Tri::kUnknown);
}

}  // namespace
}  // namespace rdfsr::eval
