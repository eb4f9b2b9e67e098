// Tests of the reference (brute-force) rule semantics of the dense-matrix
// oracle against the paper's worked examples: the D1/D2/D3 matrices of
// Figure 1 and the Section 2.2 behaviour of Cov, Sim, Dep and SymDep.

#include <gtest/gtest.h>

#include "dense_matrix_oracle.h"
#include "rules/builtins.h"
#include "rules/parser.h"

namespace rdfsr::rules {
namespace {

using oracle::Cell;
using oracle::CountSatisfying;
using oracle::EvaluateBruteForce;
using oracle::Satisfies;
using oracle::SigmaValue;
using oracle::DenseMatrix;

/// D1 of Figure 1a: N subjects, all with only property p.
DenseMatrix MakeD1(int n) {
  std::vector<std::vector<int>> rows(n, {1});
  return DenseMatrix::FromRows(rows, {}, {"p"});
}

/// D2 of Figure 1b: D1 plus property q on the first subject only.
DenseMatrix MakeD2(int n) {
  std::vector<std::vector<int>> rows(n, {1, 0});
  rows[0][1] = 1;
  return DenseMatrix::FromRows(rows, {}, {"p", "q"});
}

/// D3 of Figure 1c: diagonal — subject i has only property i.
DenseMatrix MakeD3(int n) {
  std::vector<std::vector<int>> rows(n, std::vector<int>(n, 0));
  for (int i = 0; i < n; ++i) rows[i][i] = 1;
  return DenseMatrix::FromRows(rows);
}

TEST(SemanticsTest, CovOnD1IsOne) {
  const SigmaValue sigma = EvaluateBruteForce(CovRule(), MakeD1(8));
  EXPECT_DOUBLE_EQ(sigma.Value(), 1.0);
  EXPECT_EQ(sigma.total, 8);  // 8 cells
  EXPECT_EQ(sigma.favorable, 8);
}

TEST(SemanticsTest, CovOnD2ApproachesHalf) {
  // (N+1) ones over 2N cells.
  const SigmaValue sigma = EvaluateBruteForce(CovRule(), MakeD2(10));
  EXPECT_EQ(sigma.total, 20);
  EXPECT_EQ(sigma.favorable, 11);
  EXPECT_NEAR(sigma.Value(), 0.55, 1e-12);
}

TEST(SemanticsTest, SimOnD1IsOne) {
  const SigmaValue sigma = EvaluateBruteForce(SimRule(), MakeD1(6));
  EXPECT_DOUBLE_EQ(sigma.Value(), 1.0);
}

TEST(SemanticsTest, SimOnD2StaysNearOne) {
  const SigmaValue sigma = EvaluateBruteForce(SimRule(), MakeD2(12));
  // total: p-column 12*11 pairs; q-column 1*11. favorable: p 12*11, q 0.
  EXPECT_EQ(sigma.total, 12 * 11 + 11);
  EXPECT_EQ(sigma.favorable, 12 * 11);
  EXPECT_GT(sigma.Value(), 0.9);
}

TEST(SemanticsTest, SimOnD3IsZero) {
  const SigmaValue sigma = EvaluateBruteForce(SimRule(), MakeD3(5));
  EXPECT_EQ(sigma.favorable, 0);
  EXPECT_GT(sigma.total, 0);
  EXPECT_DOUBLE_EQ(sigma.Value(), 0.0);
}

TEST(SemanticsTest, CovOnD3IsOneOverN) {
  const SigmaValue sigma = EvaluateBruteForce(CovRule(), MakeD3(5));
  EXPECT_NEAR(sigma.Value(), 0.2, 1e-12);
}

TEST(SemanticsTest, DepCountsPairsThroughSharedSubject) {
  // s0: p1,p2; s1: p1; s2: p2.
  const DenseMatrix m = DenseMatrix::FromRows(
      {{1, 1}, {1, 0}, {0, 1}}, {}, {"p1", "p2"});
  const SigmaValue dep = EvaluateBruteForce(DepRule("p1", "p2"), m);
  EXPECT_EQ(dep.total, 2);      // s0 and s1 have p1
  EXPECT_EQ(dep.favorable, 1);  // only s0 has both
  EXPECT_DOUBLE_EQ(dep.Value(), 0.5);
}

TEST(SemanticsTest, SymDepIsSymmetric) {
  const DenseMatrix m = DenseMatrix::FromRows(
      {{1, 1}, {1, 0}, {0, 1}, {0, 1}}, {}, {"a", "b"});
  const SigmaValue ab = EvaluateBruteForce(SymDepRule("a", "b"), m);
  const SigmaValue ba = EvaluateBruteForce(SymDepRule("b", "a"), m);
  EXPECT_EQ(ab.total, ba.total);
  EXPECT_EQ(ab.favorable, ba.favorable);
  EXPECT_EQ(ab.total, 4);      // subjects with a or b: all 4
  EXPECT_EQ(ab.favorable, 1);  // both: s0
}

TEST(SemanticsTest, DepWithMissingColumnHasNoTotalCases) {
  const DenseMatrix m = DenseMatrix::FromRows({{1}}, {}, {"p1"});
  const SigmaValue dep = EvaluateBruteForce(DepRule("p1", "nope"), m);
  EXPECT_EQ(dep.total, 0);
  EXPECT_DOUBLE_EQ(dep.Value(), 1.0);  // trivially satisfied
}

TEST(SemanticsTest, DepDisjunctiveCountsImplication) {
  // has-p1-implies-has-p2 per subject: s0 yes (both), s1 no (p1 only),
  // s2 yes (neither... has p2 only -> implication holds).
  const DenseMatrix m = DenseMatrix::FromRows(
      {{1, 1}, {1, 0}, {0, 1}}, {}, {"p1", "p2"});
  const SigmaValue v = EvaluateBruteForce(DepDisjunctiveRule("p1", "p2"), m);
  EXPECT_EQ(v.total, 3);
  EXPECT_EQ(v.favorable, 2);
}

TEST(SemanticsTest, CovIgnoringSkipsColumn) {
  const DenseMatrix m = MakeD2(10);  // q nearly empty
  const SigmaValue full = EvaluateBruteForce(CovRule(), m);
  const SigmaValue ignoring = EvaluateBruteForce(CovRuleIgnoring({"q"}), m);
  EXPECT_LT(full.Value(), 1.0);
  EXPECT_DOUBLE_EQ(ignoring.Value(), 1.0);  // p column is complete
  EXPECT_EQ(ignoring.total, 10);
}

TEST(SemanticsTest, SatisfiesAtomByAtom) {
  const DenseMatrix m = DenseMatrix::FromRows(
      {{1, 0}, {1, 1}}, {"s0", "s1"}, {"p", "q"});
  const std::vector<std::string> vars = {"c1", "c2"};

  auto sat = [&](const char* text, Cell a, Cell b) {
    auto f = ParseFormula(text);
    EXPECT_TRUE(f.ok()) << f.status().ToString();
    return Satisfies(*f, m, vars, {a, b});
  };
  EXPECT_TRUE(sat("val(c1) = 1", {0, 0}, {0, 0}));
  EXPECT_FALSE(sat("val(c1) = 1", {0, 1}, {0, 0}));
  EXPECT_TRUE(sat("val(c1) = val(c2)", {0, 0}, {1, 1}));
  EXPECT_FALSE(sat("val(c1) = val(c2)", {0, 1}, {1, 1}));
  EXPECT_TRUE(sat("subj(c1) = subj(c2)", {0, 0}, {0, 1}));
  EXPECT_FALSE(sat("subj(c1) = subj(c2)", {0, 0}, {1, 0}));
  EXPECT_TRUE(sat("prop(c1) = prop(c2)", {0, 1}, {1, 1}));
  EXPECT_TRUE(sat("c1 = c2", {1, 1}, {1, 1}));
  EXPECT_FALSE(sat("c1 = c2", {1, 1}, {1, 0}));
  EXPECT_TRUE(sat("subj(c1) = s0", {0, 0}, {0, 0}));
  EXPECT_FALSE(sat("subj(c1) = s1", {0, 0}, {0, 0}));
  EXPECT_TRUE(sat("prop(c1) = q", {0, 1}, {0, 0}));
  EXPECT_TRUE(sat("!(c1 = c2) || val(c1) = 1", {0, 0}, {0, 0}));
}

TEST(SemanticsTest, EmptyMatrixHasSigmaOne) {
  const DenseMatrix m;
  const SigmaValue sigma = EvaluateBruteForce(CovRule(), m);
  EXPECT_EQ(sigma.total, 0);
  EXPECT_DOUBLE_EQ(sigma.Value(), 1.0);
}

TEST(SemanticsTest, CountSatisfyingMatchesManualEnumeration) {
  const DenseMatrix m = DenseMatrix::FromRows({{1, 0}}, {}, {"p", "q"});
  auto f = ParseFormula("val(c) = 1");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(CountSatisfying(*f, m), 1);
  auto g = ParseFormula("c = c");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(CountSatisfying(*g, m), 2);
  auto two = ParseFormula("val(c1) = 1 && val(c2) = 0");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(CountSatisfying(*two, m), 1);  // (p-cell, q-cell)
}

}  // namespace
}  // namespace rdfsr::rules
