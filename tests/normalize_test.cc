// Normalizer tests: NNF shape, constant folding, and exact semantic
// preservation (property-tested against the brute-force evaluator).

#include <gtest/gtest.h>

#include "dense_matrix_oracle.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "rules/normalize.h"
#include "rules/parser.h"
#include "rules/printer.h"
#include "eval/enumerator.h"

namespace rdfsr::rules {
namespace {

FormulaPtr Parse(const char* text) {
  auto f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << text << ": " << f.status().ToString();
  return *f;
}

/// All kNot nodes sit directly above atoms.
bool IsNnf(const FormulaPtr& f) {
  switch (f->kind) {
    case FormulaKind::kNot:
      return f->left->kind != FormulaKind::kNot &&
             f->left->kind != FormulaKind::kAnd &&
             f->left->kind != FormulaKind::kOr;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
      return IsNnf(f->left) && IsNnf(f->right);
    default:
      return true;
  }
}

TEST(NormalizeTest, RemovesDoubleNegation) {
  const FormulaPtr f = Normalize(Parse("!!(val(c) = 1)"));
  EXPECT_EQ(ToString(f), "val(c) = 1");
}

TEST(NormalizeTest, DeMorgan) {
  const FormulaPtr f = Normalize(Parse("!(val(a) = 1 && val(b) = 1)"));
  EXPECT_EQ(f->kind, FormulaKind::kOr);
  EXPECT_TRUE(IsNnf(f));
  const FormulaPtr g = Normalize(Parse("!(val(a) = 1 || val(b) = 0)"));
  EXPECT_EQ(g->kind, FormulaKind::kAnd);
  EXPECT_TRUE(IsNnf(g));
}

TEST(NormalizeTest, FoldsReflexiveEqualities) {
  EXPECT_EQ(DecideConstant(Parse("c = c")), ConstantTruth::kTrue);
  EXPECT_EQ(DecideConstant(Parse("!(c = c)")), ConstantTruth::kFalse);
  EXPECT_EQ(DecideConstant(Parse("subj(c) = subj(c)")), ConstantTruth::kTrue);
  EXPECT_EQ(DecideConstant(Parse("val(c) = val(c)")), ConstantTruth::kTrue);
  EXPECT_EQ(DecideConstant(Parse("prop(c) = prop(c)")), ConstantTruth::kTrue);
  EXPECT_EQ(DecideConstant(Parse("val(c) = 1")), ConstantTruth::kUnknown);
}

TEST(NormalizeTest, FoldsNeutralAndAbsorbingOperands) {
  // c = c is true: conjunction with it is the other side.
  EXPECT_EQ(ToString(Normalize(Parse("c = c && val(c) = 1"))), "val(c) = 1");
  // Disjunction with a tautology is a tautology.
  EXPECT_EQ(DecideConstant(Parse("c = c || val(c) = 1")),
            ConstantTruth::kTrue);
  // Conjunction with a contradiction is a contradiction.
  EXPECT_EQ(DecideConstant(Parse("!(c = c) && val(c) = 1")),
            ConstantTruth::kFalse);
  // Disjunction with a contradiction is the other side.
  EXPECT_EQ(ToString(Normalize(Parse("!(c = c) || val(c) = 1"))),
            "val(c) = 1");
}

TEST(NormalizeTest, FoldsIdempotence) {
  EXPECT_EQ(ToString(Normalize(Parse("val(c) = 1 && val(c) = 1"))),
            "val(c) = 1");
  EXPECT_EQ(ToString(Normalize(Parse("val(c) = 1 || val(c) = 1"))),
            "val(c) = 1");
}

TEST(NormalizeTest, ConstantFormulasGetCanonicalShape) {
  const FormulaPtr t = Normalize(Parse("c = c"));
  EXPECT_EQ(ToString(t), "c = c");
  const FormulaPtr f = Normalize(Parse("!(c = c) && val(c) = 0"));
  EXPECT_EQ(ToString(f), "!(c = c)");
}

TEST(NormalizeTest, StructuralEquality) {
  EXPECT_TRUE(StructurallyEqual(Parse("val(c) = 1 && prop(c) = p"),
                                Parse("val(c) = 1 && prop(c) = p")));
  EXPECT_FALSE(StructurallyEqual(Parse("val(c) = 1"), Parse("val(c) = 0")));
  EXPECT_FALSE(StructurallyEqual(Parse("val(c) = 1"), Parse("val(d) = 1")));
}

class NormalizePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(NormalizePropertyTest, PreservesSemanticsExactly) {
  const char* formulas[] = {
      "!!(val(c1) = 1)",
      "!(val(c1) = 1 && !(val(c2) = 0))",
      "!(!(subj(c1) = subj(c2)) || prop(c1) = prop(c2))",
      "c1 = c1 && val(c1) = 1 || !(c2 = c2) && val(c2) = 0",
      "!(prop(c1) = p0) && (val(c1) = 1 || val(c1) = 1)",
      "!((val(c1) = 1 || val(c2) = 1) && !(c1 = c2))",
  };
  const char* text = formulas[GetParam() % 6];
  const FormulaPtr original = Parse(text);
  const FormulaPtr normalized = Normalize(original);
  EXPECT_TRUE(IsNnf(normalized)) << ToString(normalized);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    oracle::RandomMatrixSpec spec;
    spec.num_subjects = 4;
    spec.num_properties = 3;
    spec.seed = seed + GetParam() * 17;
    const oracle::DenseMatrix matrix = oracle::GenerateRandomMatrix(spec);
    // Same satisfying-assignment count == same semantics for counting.
    // Brute-force both with the ORIGINAL variable set (normalization may
    // collapse variables syntactically; counting is over var(original)).
    std::vector<std::string> vars;
    CollectVariables(original, &vars);
    std::vector<std::string> norm_vars;
    CollectVariables(normalized, &norm_vars);
    // Build a conjunction anchor so both range over identical variables:
    // anchor == true for every assignment.
    FormulaPtr anchor = nullptr;
    for (const std::string& v : vars) {
      FormulaPtr self = VarEq(v, v);
      anchor = anchor == nullptr ? self : And(anchor, self);
    }
    const std::int64_t a =
        oracle::CountSatisfying(And(anchor, original), matrix);
    const std::int64_t b =
        oracle::CountSatisfying(And(anchor, normalized), matrix);
    EXPECT_EQ(a, b) << text << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, NormalizePropertyTest, ::testing::Range(0, 6));

TEST(NormalizeRuleTest, PreservesVariableSet) {
  // Folding would drop c from "c = c": the rule normalizer must keep the
  // antecedent ranging over c.
  const Rule cov = CovRule();
  const Rule normalized = NormalizeRule(cov);
  EXPECT_EQ(normalized.variables(), cov.variables());
  // And the sigma value is unchanged on a sample matrix.
  const oracle::DenseMatrix m =
      oracle::DenseMatrix::FromRows({{1, 0}, {1, 1}}, {}, {"p", "q"});
  EXPECT_EQ(oracle::EvaluateBruteForce(cov, m).Value(),
            oracle::EvaluateBruteForce(normalized, m).Value());
}

TEST(NormalizeRuleTest, SimplifiesRedundantRuleBodies) {
  auto rule = ParseRule(
      "!!(val(c1) = 1) && prop(c1) = prop(c2) && prop(c1) = prop(c2) -> "
      "!!(val(c2) = 1)");
  ASSERT_TRUE(rule.ok());
  const Rule normalized = NormalizeRule(*rule);
  EXPECT_EQ(ToString(normalized),
            "val(c1) = 1 && prop(c1) = prop(c2) -> val(c2) = 1");

  const oracle::DenseMatrix m = oracle::DenseMatrix::FromRows(
      {{1, 0}, {1, 1}, {0, 1}}, {}, {"p", "q"});
  const oracle::SigmaValue a = oracle::EvaluateBruteForce(*rule, m);
  const oracle::SigmaValue b = oracle::EvaluateBruteForce(normalized, m);
  EXPECT_EQ(a.favorable, b.favorable);
  EXPECT_EQ(a.total, b.total);
}


TEST(NormalizeRuleTest, PreservesSigmaOnSignatureIndexes) {
  // End-to-end: normalized rules must give identical counts through the
  // production (signature-level) evaluator across random datasets.
  const char* rule_texts[] = {
      "!!(c = c) -> val(c) = 1",
      "!(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 && val(c1) = 1 "
      "-> !!(val(c2) = 1)",
      "subj(c1) = subj(c2) && !(!(prop(c1) = p0)) -> val(c1) = 0 || "
      "val(c1) = 0 || val(c2) = 1",
  };
  for (const char* text : rule_texts) {
    auto rule = ParseRule(text);
    ASSERT_TRUE(rule.ok()) << text;
    const Rule normalized = NormalizeRule(*rule);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      gen::RandomIndexSpec spec;
      spec.num_signatures = 5;
      spec.num_properties = 3;
      spec.seed = seed;
      const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
      const eval::SigmaCounts a = eval::EvaluateRuleOnIndex(*rule, index);
      const eval::SigmaCounts b = eval::EvaluateRuleOnIndex(normalized, index);
      EXPECT_EQ(static_cast<long long>(a.total),
                static_cast<long long>(b.total))
          << text << " seed " << seed;
      EXPECT_EQ(static_cast<long long>(a.favorable),
                static_cast<long long>(b.favorable))
          << text << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace rdfsr::rules
