// Branch-and-bound MIP tests: knapsacks (their optima asked as feasibility
// questions), covers, infeasibility proofs, limits, numerical failures.

#include <gtest/gtest.h>

#include <vector>

#include "ilp/branch_and_bound.h"
#include "objective_bound.h"

namespace rdfsr::ilp {
namespace {

using testutil::WithObjectiveBound;

/// min c.x over `m` is `opt`: c.x <= opt has an integral point and
/// c.x <= opt - eps has none (eps below the gap to the next-best value).
/// Returns the solve at c.x <= opt.
MipResult ExpectMinimum(const Model& m, const std::vector<LinTerm>& c,
                        double opt, double eps) {
  const MipResult below = SolveMip(WithObjectiveBound(m, c, opt - eps));
  EXPECT_EQ(below.status, MipStatus::kInfeasible)
      << MipStatusName(below.status);
  const Model at_model = WithObjectiveBound(m, c, opt);
  const MipResult at = SolveMip(at_model);
  EXPECT_EQ(at.status, MipStatus::kFeasible) << MipStatusName(at.status);
  if (at.status == MipStatus::kFeasible) {
    EXPECT_TRUE(at_model.IsFeasible(at.x, 1e-5));
  }
  return at;
}

TEST(BnbTest, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binaries.
  // Best: a + c = 17 (weight 5); b + c = 20 (weight 6) <- optimum.
  Model m;
  const int a = m.AddBinary("a");
  const int b = m.AddBinary("b");
  const int c = m.AddBinary("c");
  m.AddConstraint("w", {{a, 3.0}, {b, 4.0}, {c, 2.0}}, -kInfinity, 6);
  const MipResult r =
      ExpectMinimum(m, {{a, -10.0}, {b, -13.0}, {c, -7.0}}, -20.0, 1.0);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(BnbTest, IntegralityChangesTheAnswer) {
  // LP relaxation of knapsack takes fractions; MIP may not.
  // max 5x + 4y, 6x + 5y <= 8, binaries: LP opt ~ 6.67, MIP opt = 5 (next
  // best 4).
  Model m;
  const int x = m.AddBinary("x");
  const int y = m.AddBinary("y");
  m.AddConstraint("w", {{x, 6.0}, {y, 5.0}}, -kInfinity, 8);
  const std::vector<LinTerm> c = {{x, -5.0}, {y, -4.0}};
  ExpectMinimum(m, c, -5.0, 0.5);
  // The relaxation still reaches 5.5: only integrality rules it out.
  EXPECT_EQ(SolveLp(WithObjectiveBound(m, c, -5.5)).status,
            LpStatus::kOptimal);
}

TEST(BnbTest, ProvesInfeasibility) {
  // x + y = 1 with x = y (binaries) has no integer solution.
  Model m;
  const int x = m.AddBinary("x");
  const int y = m.AddBinary("y");
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, 1, 1);
  m.AddConstraint("eq", {{x, 1.0}, {y, -1.0}}, 0, 0);
  const MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(BnbTest, BacktracksWhenTheFirstDiveFails) {
  // 2a + 2b + 2c + x = 3 over binaries: every integral point has x = 1 and
  // one of a, b, c at 1. The root relaxation sets x = 0, so the
  // nearest-side dive runs into integer-infeasible leaves first, and neither
  // presolve nor root probing can fix a variable. Only backtracking to the
  // far sides finds the point.
  Model m;
  const int a = m.AddBinary("a");
  const int b = m.AddBinary("b");
  const int c = m.AddBinary("c");
  const int x = m.AddBinary("x");
  m.AddConstraint("odd", {{a, 2.0}, {b, 2.0}, {c, 2.0}, {x, 1.0}}, 3, 3);
  const MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kFeasible) << MipStatusName(r.status);
  EXPECT_TRUE(m.IsFeasible(r.x));
  EXPECT_NEAR(r.x[x], 1.0, 1e-6);
  EXPECT_GT(r.nodes, 1);
}

TEST(BnbTest, LpInfeasibleImmediately) {
  Model m;
  const int x = m.AddBinary("x");
  m.AddConstraint("no", {{x, 1.0}}, 2, 3);
  const MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_LE(r.nodes, 1);
}

TEST(BnbTest, ToleratedViolationsDoNotProveInfeasibility) {
  // Three rows x_r + y_r in [5e-7, 1] over continuous x_r, y_r in [0, 1]:
  // each row's slack start is within the LP tolerance of feasible, so the
  // root LP must not report infeasible and the search must answer "yes".
  Model m;
  for (int r = 0; r < 3; ++r) {
    const int x = m.AddVariable("x", 0, 1, false);
    const int y = m.AddVariable("y", 0, 1, false);
    m.AddConstraint("r", {{x, 1.0}, {y, 1.0}}, 5e-7, 1);
  }
  const MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kFeasible) << MipStatusName(r.status);
  EXPECT_TRUE(m.IsFeasible(r.x, 1e-5));
}

TEST(BnbTest, FeasibilityModeStopsAtFirstIncumbent) {
  // Set cover: pick at least one of each pair; many solutions exist.
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(m.AddBinary("v"));
  for (int i = 0; i < 5; ++i) {
    m.AddConstraint("cover", {{vars[i], 1.0}, {vars[i + 1], 1.0}}, 1,
                    kInfinity);
  }
  const MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_EQ(r.stop_reason, MipStopReason::kNone);
  EXPECT_TRUE(m.IsFeasible(r.x));
}

TEST(BnbTest, MixedIntegerContinuous) {
  // min y s.t. y >= x - 0.5, y >= 0.5 - x, x binary, y continuous:
  // at x in {0,1}, y = 0.5 (the relaxation reaches y = 0 at x = 0.5).
  Model m;
  const int x = m.AddBinary("x");
  const int y = m.AddVariable("y", 0, kInfinity, false);
  m.AddConstraint("a", {{y, 1.0}, {x, -1.0}}, -0.5, kInfinity);
  m.AddConstraint("b", {{y, 1.0}, {x, 1.0}}, 0.5, kInfinity);
  const MipResult r = ExpectMinimum(m, {{y, 1.0}}, 0.5, 0.25);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.x[y], 0.5, 1e-6);
}

TEST(BnbTest, NodeLimitYieldsUnknown) {
  // An infeasibility proof needing more than 1 node, capped at 1 node.
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(m.AddBinary("v"));
  // Sum must be 5.5-ish: LP feasible (fractional), IP infeasible.
  std::vector<LinTerm> sum;
  for (int v : vars) sum.push_back({v, 2.0});
  m.AddConstraint("half", std::move(sum), 11, 11);  // sum of evens = 11
  MipOptions options;
  options.max_nodes = 1;
  const MipResult r = SolveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::kUnknown);
}

TEST(BnbTest, InfeasibleParityProblemFullProof) {
  // 2 * sum(binaries) = 11 is infeasible; the full tree proves it.
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(m.AddBinary("v"));
  std::vector<LinTerm> sum;
  for (int v : vars) sum.push_back({v, 2.0});
  m.AddConstraint("parity", std::move(sum), 7, 7);
  const MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(BnbTest, EqualityAssignmentProblem) {
  // Three items into two groups, each group at most 2 items, groups
  // balanced by weight: weights 3, 3, 4; |w(A) - w(B)| <= 2 is feasible
  // (A = {4, 3}? diff 3-... A={3,3}=6, B={4}: diff 2 -> feasible).
  Model m;
  int assign[3];  // 1 = group A
  for (int i = 0; i < 3; ++i) assign[i] = m.AddBinary("a");
  const double w[3] = {3, 3, 4};
  // diff = sum w_i (2 a_i - 1) in [-2, 2]  <=>  sum 2 w_i a_i in [w-2, w+2].
  std::vector<LinTerm> terms;
  for (int i = 0; i < 3; ++i) terms.push_back({assign[i], 2 * w[i]});
  m.AddConstraint("balance", std::move(terms), 10 - 2, 10 + 2);
  const MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  const double sum = 2 * (3 * r.x[assign[0]] + 3 * r.x[assign[1]] +
                          4 * r.x[assign[2]]);
  EXPECT_GE(sum, 8 - 1e-6);
  EXPECT_LE(sum, 12 + 1e-6);
}

TEST(BnbTest, TimeLimitRespected) {
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 24; ++i) vars.push_back(m.AddBinary("v"));
  std::vector<LinTerm> sum;
  for (int v : vars) sum.push_back({v, 2.0});
  m.AddConstraint("odd", std::move(sum), 23, 23);  // infeasible parity
  MipOptions options;
  options.time_limit_seconds = 0.05;
  const MipResult r = SolveMip(m, options);
  // Either it proves infeasibility very fast or it hits the limit.
  EXPECT_TRUE(r.status == MipStatus::kInfeasible ||
              r.status == MipStatus::kUnknown);
  EXPECT_LT(r.seconds, 5.0);
  if (r.status == MipStatus::kUnknown) {
    EXPECT_EQ(r.stop_reason, MipStopReason::kTimeLimit);
  }
}

TEST(BnbTest, NodeLimitRecordsItsStopReason) {
  // Same parity model as NodeLimitYieldsUnknown: kUnknown alone does not say
  // WHICH resource ran out — the stop reason must.
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(m.AddBinary("v"));
  std::vector<LinTerm> sum;
  for (int v : vars) sum.push_back({v, 2.0});
  m.AddConstraint("half", std::move(sum), 11, 11);
  MipOptions options;
  options.max_nodes = 1;
  const MipResult r = SolveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::kUnknown);
  EXPECT_EQ(r.stop_reason, MipStopReason::kNodeLimit);
  EXPECT_STREQ(MipStopReasonName(r.stop_reason), "NodeLimit");
}

TEST(BnbTest, LpIterationLimitSurfacesAsItsOwnStopReason) {
  // With a 1-pivot LP budget no node relaxation can converge; every node is
  // distrusted, the tree ends undecided, and the result must say the LP
  // iteration limit (with a hit count) was the cause.
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(m.AddBinary("v"));
  std::vector<LinTerm> sum;
  for (int v : vars) sum.push_back({v, 2.0});
  m.AddConstraint("half", std::move(sum), 11, 11);
  MipOptions options;
  options.lp.max_iterations = 1;
  const MipResult r = SolveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::kUnknown);
  EXPECT_EQ(r.stop_reason, MipStopReason::kLpIterationLimit);
  EXPECT_GE(r.lp_iteration_limit_hits, 1);
}

TEST(BnbTest, CompletedSolveLeavesStopReasonNone) {
  // A found point and an exhausted tree are both natural ends.
  Model m;
  const int x = m.AddBinary("x");
  const MipResult found = SolveMip(m);
  ASSERT_EQ(found.status, MipStatus::kFeasible);
  EXPECT_EQ(found.stop_reason, MipStopReason::kNone);
  EXPECT_EQ(found.lp_iteration_limit_hits, 0);
  EXPECT_EQ(found.lp_numerical_failures, 0);

  m.AddConstraint("half", {{x, 2.0}}, 1, 1);
  const MipResult none = SolveMip(m);
  ASSERT_EQ(none.status, MipStatus::kInfeasible);
  EXPECT_EQ(none.stop_reason, MipStopReason::kNone);
}

TEST(BnbTest, ScaledKnapsackBoundRowDecides) {
  // The knapsack of SolvesSmallKnapsack with its value row scaled by 1e6:
  // the bound row's coefficients dwarf the weight row's, and the search must
  // still find the optimum and prove nothing lies above it.
  const double kScale = 1e6;
  Model m;
  const int a = m.AddBinary("a");
  const int b = m.AddBinary("b");
  const int c = m.AddBinary("c");
  m.AddConstraint("w", {{a, 3.0}, {b, 4.0}, {c, 2.0}}, -kInfinity, 6);
  const MipResult r = ExpectMinimum(
      m, {{a, -10.0 * kScale}, {b, -13.0 * kScale}, {c, -7.0 * kScale}},
      -20.0 * kScale, 1.0 * kScale);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(BnbTest, LpNumericalFailureLeavesTheSearchUndecided) {
  // The simplex_test fixture: x, y >= 0 and 300 rows 5e-10 x + 5e-10 y >= 1.
  // x = 2e9 is feasible, but the root LP fails numerically. The search must
  // end undecided and name the failure, with or without presolve.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  for (int r = 0; r < 300; ++r) {
    m.AddConstraint("r", {{x, 5e-10}, {y, 5e-10}}, 1, kInfinity);
  }
  for (const bool presolve : {true, false}) {
    MipOptions options;
    options.use_presolve = presolve;
    const MipResult r = SolveMip(m, options);
    EXPECT_EQ(r.status, MipStatus::kUnknown)
        << MipStatusName(r.status) << ", presolve " << presolve;
    EXPECT_EQ(r.stop_reason, MipStopReason::kLpNumericalFailure)
        << MipStopReasonName(r.stop_reason) << ", presolve " << presolve;
    EXPECT_GE(r.lp_numerical_failures, 1);
  }
  EXPECT_STREQ(MipStopReasonName(MipStopReason::kLpNumericalFailure),
               "LpNumericalFailure");
}

TEST(BnbTest, RootProbingFixesForcedBinaries) {
  // x + y + z = 3 over binaries forces all three to 1: bound propagation
  // proves it at the root, so the dive needs at most the root node.
  Model m;
  const int x = m.AddBinary("x");
  const int y = m.AddBinary("y");
  const int z = m.AddBinary("z");
  m.AddConstraint("all", {{x, 1.0}, {y, 1.0}, {z, 1.0}}, 3, 3);
  MipOptions options;
  options.use_presolve = false;  // leave the fixing to the probe
  const MipResult r = SolveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.x[x], 1.0, 1e-6);
  EXPECT_NEAR(r.x[y], 1.0, 1e-6);
  EXPECT_NEAR(r.x[z], 1.0, 1e-6);
  EXPECT_LE(r.nodes, 1);
}

TEST(BnbTest, RootProbingProvesInfeasibilityWithoutSearch) {
  // Both values of x propagate to a contradiction: x = 1 violates the first
  // row, x = 0 the second. The probe alone must prove infeasibility.
  Model m;
  const int x = m.AddBinary("x");
  const int y = m.AddBinary("y");
  m.AddConstraint("no_up", {{x, 2.0}, {y, 1.0}}, -kInfinity, 1.5);
  m.AddConstraint("no_down", {{x, 2.0}, {y, -1.0}}, 1.5, kInfinity);
  MipOptions options;
  options.use_presolve = false;
  const MipResult r = SolveMip(m, options);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_EQ(r.nodes, 0);
}

TEST(BnbTest, ResultCarriesEngineStatsAndRootBasis) {
  Model m;
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(m.AddBinary("v"));
  std::vector<LinTerm> sum;
  for (int v : vars) sum.push_back({v, 2.0});
  m.AddConstraint("parity", std::move(sum), 7, 7);  // infeasible: forces work
  const MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
  EXPECT_GT(r.lp_stats.pivots + r.lp_stats.refactorizations, 0);
  if (r.nodes > 0) {
    // One basic variable per row; statuses cover structurals plus slacks.
    EXPECT_FALSE(r.root_basis.empty());
    EXPECT_GT(r.root_basis.status.size(), r.root_basis.basic.size());
  }
}

}  // namespace
}  // namespace rdfsr::ilp
