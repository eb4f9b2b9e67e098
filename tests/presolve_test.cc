// Presolve tests: each reduction in isolation, solution restoration, and a
// randomized equivalence sweep (presolve on vs off must agree through the
// full MIP stack).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "ilp/branch_and_bound.h"
#include "ilp/presolve.h"
#include "objective_bound.h"
#include "util/rng.h"

namespace rdfsr::ilp {
namespace {

using testutil::WithObjectiveBound;

TEST(PresolveTest, DropsEmptyAndRedundantRows) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  m.AddConstraint("redundant", {{x, 1.0}}, -5, 5);  // activity [0,1] inside
  const PresolveResult pre = Presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.reduced.num_constraints(), 0u);
  EXPECT_EQ(pre.reduced.num_variables(), 1u);
}

TEST(PresolveTest, SingletonRowTightensBounds) {
  Model m;
  const int x = m.AddVariable("x", 0, 10, false);
  m.AddConstraint("cap", {{x, 2.0}}, 1, 6);  // => x in [0.5, 3]
  const PresolveResult pre = Presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  ASSERT_EQ(pre.reduced.num_variables(), 1u);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lower, 0.5);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 3.0);
  EXPECT_EQ(pre.reduced.num_constraints(), 0u);
}

TEST(PresolveTest, NegativeCoefficientSingleton) {
  Model m;
  (void)m.AddVariable("x", -10, 10, false);
  m.AddConstraint("neg", {{0, -1.0}}, -4, 2);  // -x in [-4,2] => x in [-2,4]
  const PresolveResult pre = Presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lower, -2.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 4.0);
}

TEST(PresolveTest, IntegerBoundRounding) {
  Model m;
  (void)m.AddVariable("n", 0.4, 3.7, true);
  const PresolveResult pre = Presolve(m);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lower, 1.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 3.0);
}

TEST(PresolveTest, IntegerDomainCanEmptyOut) {
  Model m;
  (void)m.AddVariable("n", 0.2, 0.8, true);  // no integer inside
  const PresolveResult pre = Presolve(m);
  EXPECT_TRUE(pre.proven_infeasible);
}

TEST(PresolveTest, FixedVariablesSubstituted) {
  Model m;
  const int x = m.AddVariable("x", 3, 3, false);  // fixed at 3
  const int y = m.AddVariable("y", 0, 10, false);
  m.AddConstraint("sum", {{x, 2.0}, {y, 1.0}}, 8, 12);  // => y in [2, 6]
  const PresolveResult pre = Presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.reduced.num_variables(), 1u);  // only y survives
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lower, 2.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).upper, 6.0);
  // Restoration puts the fixed value back.
  const std::vector<double> x_full = pre.RestoreSolution({4.0});
  ASSERT_EQ(x_full.size(), 2u);
  EXPECT_DOUBLE_EQ(x_full[0], 3.0);
  EXPECT_DOUBLE_EQ(x_full[1], 4.0);
}

TEST(PresolveTest, DetectsActivityInfeasibility) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  const int y = m.AddVariable("y", 0, 1, false);
  m.AddConstraint("impossible", {{x, 1.0}, {y, 1.0}}, 3, 5);  // max act = 2
  const PresolveResult pre = Presolve(m);
  EXPECT_TRUE(pre.proven_infeasible);
}

TEST(PresolveTest, CascadingFixpoint) {
  // Singleton fixes x; substitution turns the pair row into a singleton for
  // y; that fixes y too.
  Model m;
  const int x = m.AddVariable("x", 0, 10, true);
  const int y = m.AddVariable("y", 0, 10, true);
  m.AddConstraint("fix_x", {{x, 1.0}}, 7, 7);
  m.AddConstraint("pair", {{x, 1.0}, {y, 1.0}}, 9, 9);
  const PresolveResult pre = Presolve(m);
  ASSERT_FALSE(pre.proven_infeasible);
  EXPECT_EQ(pre.reduced.num_variables(), 0u);
  EXPECT_DOUBLE_EQ(pre.fixed_values[x], 7.0);
  EXPECT_DOUBLE_EQ(pre.fixed_values[y], 2.0);
}

TEST(PresolveTest, SolveMipWithFullyPresolvedModel) {
  // min 2x with x fixed at 4 is 8: 2x <= 8 leaves a model presolve removes
  // entirely, and SolveMip must lift the empty point back to x = 4; 2x <= 7
  // is infeasible.
  Model m;
  const int x = m.AddVariable("x", 0, 10, true);
  m.AddConstraint("fix", {{x, 1.0}}, 4, 4);
  const Model at = WithObjectiveBound(m, {{x, 2.0}}, 8.0);
  ASSERT_EQ(Presolve(at).reduced.num_variables(), 0u);
  const MipResult r = SolveMip(at);
  ASSERT_EQ(r.status, MipStatus::kFeasible);
  ASSERT_EQ(r.x.size(), 1u);
  EXPECT_DOUBLE_EQ(r.x[0], 4.0);
  EXPECT_EQ(SolveMip(WithObjectiveBound(m, {{x, 2.0}}, 7.0)).status,
            MipStatus::kInfeasible);
}

class PresolveEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PresolveEquivalenceTest, OnOffAgreeThroughMip) {
  Rng rng(GetParam());
  Model m;
  const int n = 4 + static_cast<int>(rng.Below(5));
  for (int j = 0; j < n; ++j) m.AddBinary("b");
  const int rows = 2 + static_cast<int>(rng.Below(4));
  for (int r = 0; r < rows; ++r) {
    std::vector<LinTerm> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.Chance(0.5)) {
        terms.push_back({j, static_cast<double>(rng.Range(-2, 3))});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double lo = static_cast<double>(rng.Range(-2, 2));
    m.AddConstraint("r", std::move(terms), lo,
                    lo + static_cast<double>(rng.Below(4)));
  }
  std::vector<LinTerm> obj;
  for (int j = 0; j < n; ++j) {
    obj.push_back({j, static_cast<double>(rng.Range(-4, 4))});
  }

  // The brute-force minimum of the (integer-valued) objective; NaN when no
  // binary point is feasible.
  double opt = std::numeric_limits<double>::quiet_NaN();
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = (mask >> j) & 1;
    if (!m.IsFeasible(x, 1e-9)) continue;
    const double value = testutil::Dot(obj, x);
    if (std::isnan(opt) || value < opt) opt = value;
  }

  // Presolve on and off agree with the brute force on the model itself, at
  // the optimum, and just below it.
  const auto expect = [&](const Model& model, MipStatus want,
                          const char* what) {
    for (const bool presolve : {true, false}) {
      MipOptions options;
      options.use_presolve = presolve;
      const MipResult r = SolveMip(model, options);
      EXPECT_EQ(r.status, want) << "seed " << GetParam() << ", " << what
                                << ", presolve " << presolve << ": "
                                << MipStatusName(r.status);
      if (r.status == MipStatus::kFeasible) {
        EXPECT_TRUE(model.IsFeasible(r.x, 1e-6)) << "seed " << GetParam();
      }
    }
  };
  if (std::isnan(opt)) {
    expect(m, MipStatus::kInfeasible, "model");
    return;
  }
  expect(m, MipStatus::kFeasible, "model");
  expect(WithObjectiveBound(m, obj, opt), MipStatus::kFeasible, "at optimum");
  expect(WithObjectiveBound(m, obj, opt - 0.5), MipStatus::kInfeasible,
         "below optimum");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace rdfsr::ilp
