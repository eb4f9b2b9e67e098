// LP solver tests: textbook optima (asked as feasibility questions),
// infeasibility, numerical failure, bounds, degenerate cases, and bound
// overrides.

#include <gtest/gtest.h>

#include <vector>

#include "ilp/simplex.h"
#include "objective_bound.h"

namespace rdfsr::ilp {
namespace {

using testutil::WithObjectiveBound;

/// Below a continuous optimum by far more than the solver tolerances.
constexpr double kEps = 1e-3;

/// min c.x over `m` (with optional bound overrides) is `opt`: c.x <= opt is
/// feasible and c.x <= opt - kEps is not. Returns the solve at c.x <= opt.
LpResult ExpectMinimum(const Model& m, const std::vector<LinTerm>& c,
                       double opt, const std::vector<double>* lower = nullptr,
                       const std::vector<double>* upper = nullptr) {
  const LpResult below = SolveLp(WithObjectiveBound(m, c, opt - kEps), {},
                                 lower, upper);
  EXPECT_EQ(below.status, LpStatus::kInfeasible) << LpStatusName(below.status);
  const LpResult at = SolveLp(WithObjectiveBound(m, c, opt), {}, lower, upper);
  EXPECT_EQ(at.status, LpStatus::kOptimal) << LpStatusName(at.status);
  return at;
}

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (min -3x -5y)
  // Optimum: x = 2, y = 6, objective 36, the only point with 3x + 5y >= 36.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  m.AddConstraint("c1", {{x, 1.0}}, -kInfinity, 4);
  m.AddConstraint("c2", {{y, 2.0}}, -kInfinity, 12);
  m.AddConstraint("c3", {{x, 3.0}, {y, 2.0}}, -kInfinity, 18);
  const LpResult r = ExpectMinimum(m, {{x, -3.0}, {y, -5.0}}, -36.0);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-5);
  EXPECT_NEAR(r.x[y], 6.0, 1e-5);
}

TEST(SimplexTest, HandlesEqualityConstraints) {
  // x + y = 3, x - y = 1  ->  x = 2, y = 1.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, 3, 3);
  m.AddConstraint("diff", {{x, 1.0}, {y, -1.0}}, 1, 1);
  const LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2.0, 1e-6);
  EXPECT_NEAR(r.x[y], 1.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasibility) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  m.AddConstraint("impossible", {{x, 1.0}}, 2, 3);
  const LpResult r = SolveLp(m);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsConflictingRows) {
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  m.AddConstraint("a", {{x, 1.0}, {y, 1.0}}, 4, 4);
  m.AddConstraint("b", {{x, 1.0}, {y, 1.0}}, -kInfinity, 2);
  const LpResult r = SolveLp(m);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnblockedPhaseOneColumnIsANumericalFailure) {
  // x, y >= 0 and 300 rows 5e-10 x + 5e-10 y >= 1: feasible (x = 2e9 meets
  // every row), but each row's pivot candidate |w_r| = 5e-10 is below the
  // pivot tolerance, so phase 1's improving column meets no blocking row. The
  // LP must say it failed, not decide.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  for (int r = 0; r < 300; ++r) {
    m.AddConstraint("r", {{x, 5e-10}, {y, 5e-10}}, 1, kInfinity);
  }
  ASSERT_TRUE(m.IsFeasible({2e9, 0.0}));
  const LpResult r = SolveLp(m);
  EXPECT_EQ(r.status, LpStatus::kNumericalFailure) << LpStatusName(r.status);
  EXPECT_STREQ(LpStatusName(r.status), "NumericalFailure");
}

TEST(SimplexTest, RespectsVariableBounds) {
  // min -x with 1 <= x <= 2.5: optimum at upper bound.
  Model m;
  const int x = m.AddVariable("x", 1, 2.5, false);
  const LpResult r = ExpectMinimum(m, {{x, -1.0}}, -2.5);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 2.5, 1e-5);
}

TEST(SimplexTest, FeasibilityOnlyProblems) {
  // Need x + y >= 1 with binaries relaxed.
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  const int y = m.AddVariable("y", 0, 1, false);
  m.AddConstraint("cover", {{x, 1.0}, {y, 1.0}}, 1, kInfinity);
  const LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_GE(r.x[x] + r.x[y], 1.0 - 1e-6);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x with -5 <= x <= 5 and x >= -3  ->  x = -3.
  Model m;
  const int x = m.AddVariable("x", -5, 5, false);
  m.AddConstraint("floor", {{x, 1.0}}, -3, kInfinity);
  const LpResult r = ExpectMinimum(m, {{x, 1.0}}, -3.0);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], -3.0, 1e-5);
}

TEST(SimplexTest, FreeVariables) {
  // min x + y, x free, x + y >= 2, x - y = 0 -> x = y = 1.
  Model m;
  const int x = m.AddVariable("x", -kInfinity, kInfinity, false);
  const int y = m.AddVariable("y", -kInfinity, kInfinity, false);
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, 2, kInfinity);
  m.AddConstraint("eq", {{x, 1.0}, {y, -1.0}}, 0, 0);
  const LpResult r = ExpectMinimum(m, {{x, 1.0}, {y, 1.0}}, 2.0);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 1.0, 1e-5);
  EXPECT_NEAR(r.x[y], 1.0, 1e-5);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  m.AddConstraint("a", {{x, 1.0}, {y, 1.0}}, -kInfinity, 1);
  m.AddConstraint("b", {{x, 2.0}, {y, 2.0}}, -kInfinity, 2);
  m.AddConstraint("c", {{x, 1.0}}, -kInfinity, 1);
  m.AddConstraint("d", {{y, 1.0}}, -kInfinity, 1);
  // max x + y = 1, where all four rows meet.
  ExpectMinimum(m, {{x, -1.0}, {y, -1.0}}, -1.0);
}

TEST(SimplexTest, BoundOverridesShrinkTheFeasibleSet) {
  Model m;
  const int x = m.AddVariable("x", 0, 10, false);
  std::vector<double> lb = {0.0}, ub = {3.0};
  const LpResult r = ExpectMinimum(m, {{x, -1.0}}, -3.0, &lb, &ub);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 3.0, 1e-5);
  // Without the override the model's own box allows x = 10.
  EXPECT_EQ(SolveLp(WithObjectiveBound(m, {{x, -1.0}}, -10.0)).status,
            LpStatus::kOptimal);
}

TEST(SimplexTest, CrossedOverrideBoundsAreInfeasible) {
  Model m;
  (void)m.AddVariable("x", 0, 10, false);
  std::vector<double> lb = {5.0}, ub = {4.0};
  const LpResult r = SolveLp(m, {}, &lb, &ub);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, LargerAssignmentLikeProblem) {
  // 4x4 assignment relaxation: min sum c_ij x_ij, doubly stochastic.
  // LP optimum of assignment is integral: r0c1 + r1c0 + r2c2 + r3c3 =
  // 2 + 6 + 1 + 4 = 13.
  const double cost[4][4] = {{9, 2, 7, 8}, {6, 4, 3, 7}, {5, 8, 1, 8},
                             {7, 6, 9, 4}};
  Model m;
  int var[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      var[i][j] = m.AddVariable("x", 0, 1, false);
    }
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<LinTerm> row, col;
    for (int j = 0; j < 4; ++j) {
      row.push_back({var[i][j], 1.0});
      col.push_back({var[j][i], 1.0});
    }
    m.AddConstraint("row", std::move(row), 1, 1);
    m.AddConstraint("col", std::move(col), 1, 1);
  }
  std::vector<LinTerm> obj;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) obj.push_back({var[i][j], cost[i][j]});
  }
  ExpectMinimum(m, obj, 13.0);
}

TEST(SimplexTest, IterationLimitIsADistinctOutcomeWithTheCount) {
  // Row/col equality constraints make the initial slack basis infeasible, so
  // phase-1 alone needs several pivots — 2 cannot finish. The cap must come
  // back as kIterationLimit with the pivot count, never masquerade as
  // kInfeasible/kOptimal.
  Model m;
  int var[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) var[i][j] = m.AddVariable("x", 0, 1, false);
  }
  for (int i = 0; i < 3; ++i) {
    std::vector<LinTerm> row, col;
    for (int j = 0; j < 3; ++j) {
      row.push_back({var[i][j], 1.0});
      col.push_back({var[j][i], 1.0});
    }
    m.AddConstraint("row", std::move(row), 1, 1);
    m.AddConstraint("col", std::move(col), 1, 1);
  }
  SimplexOptions options;
  options.max_iterations = 2;
  const LpResult r = SolveLp(m, options);
  EXPECT_EQ(r.status, LpStatus::kIterationLimit);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_STREQ(LpStatusName(r.status), "IterationLimit");

  // The same model converges once the cap is lifted.
  const LpResult full = SolveLp(m);
  EXPECT_EQ(full.status, LpStatus::kOptimal);
}

}  // namespace
}  // namespace rdfsr::ilp
