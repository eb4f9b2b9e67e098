// Randomized property tests for the MIP stack: brute-force enumeration over
// all binary assignments must agree with branch-and-bound on feasibility AND
// on the optimum of a random objective (asked as two feasibility questions at
// the brute-force optimum), across random constraint systems.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ilp/branch_and_bound.h"
#include "objective_bound.h"
#include "util/rng.h"

namespace rdfsr::ilp {
namespace {

using testutil::Dot;
using testutil::WithObjectiveBound;

struct RandomMip {
  Model model;
  int num_vars = 0;
  std::vector<LinTerm> objective;  ///< c of min c.x (empty: none drawn)
};

/// Random binary program: n in [3,10] binaries, m in [2,6] range rows with
/// small integer coefficients, optionally a random integer objective.
RandomMip MakeRandomBinaryProgram(std::uint64_t seed, bool with_objective) {
  Rng rng(seed);
  RandomMip out;
  out.num_vars = 3 + static_cast<int>(rng.Below(8));
  for (int j = 0; j < out.num_vars; ++j) {
    out.model.AddBinary("b" + std::to_string(j));
  }
  const int rows = 2 + static_cast<int>(rng.Below(5));
  for (int r = 0; r < rows; ++r) {
    std::vector<LinTerm> terms;
    for (int j = 0; j < out.num_vars; ++j) {
      if (rng.Chance(0.6)) {
        terms.push_back({j, static_cast<double>(rng.Range(-3, 3))});
      }
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    // Range rows of varying tightness.
    const double lo = static_cast<double>(rng.Range(-4, 2));
    const double hi = lo + static_cast<double>(rng.Below(5));
    out.model.AddConstraint("r" + std::to_string(r), std::move(terms), lo, hi);
  }
  if (with_objective) {
    std::vector<LinTerm> obj;
    for (int j = 0; j < out.num_vars; ++j) {
      obj.push_back({j, static_cast<double>(rng.Range(-5, 5))});
    }
    out.objective = std::move(obj);
  }
  return out;
}

/// Exhaustive minimum of c.x over the feasible points of the 2^n binary
/// grid; NaN when none is feasible.
double BruteForceOptimum(const RandomMip& mip) {
  double best = std::numeric_limits<double>::quiet_NaN();
  for (int mask = 0; mask < (1 << mip.num_vars); ++mask) {
    std::vector<double> x(mip.num_vars);
    for (int j = 0; j < mip.num_vars; ++j) x[j] = (mask >> j) & 1;
    if (!mip.model.IsFeasible(x, 1e-9)) continue;
    const double obj = Dot(mip.objective, x);
    if (std::isnan(best) || obj < best) best = obj;
  }
  return best;
}

class MipAgreementTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MipAgreementTest, FeasibilityMatchesBruteForce) {
  const RandomMip mip = MakeRandomBinaryProgram(GetParam(), false);
  const double brute = BruteForceOptimum(mip);
  MipOptions options;
  options.max_nodes = 100000;
  const MipResult r = SolveMip(mip.model, options);
  if (std::isnan(brute)) {
    EXPECT_EQ(r.status, MipStatus::kInfeasible) << "seed " << GetParam();
  } else {
    ASSERT_EQ(r.status, MipStatus::kFeasible)
        << "seed " << GetParam() << ": " << MipStatusName(r.status);
    EXPECT_TRUE(mip.model.IsFeasible(r.x, 1e-6));
  }
}

TEST_P(MipAgreementTest, OptimumMatchesBruteForce) {
  // Objective values are integers, so c.x <= opt - 0.5 excludes exactly the
  // optimum's level and everything below it.
  const RandomMip mip = MakeRandomBinaryProgram(GetParam() * 7919 + 13, true);
  const double brute = BruteForceOptimum(mip);
  MipOptions options;
  options.max_nodes = 200000;
  if (std::isnan(brute)) {
    const MipResult r = SolveMip(mip.model, options);
    EXPECT_EQ(r.status, MipStatus::kInfeasible) << "seed " << GetParam();
    return;
  }
  const Model at = WithObjectiveBound(mip.model, mip.objective, brute);
  const MipResult r = SolveMip(at, options);
  ASSERT_EQ(r.status, MipStatus::kFeasible)
      << "seed " << GetParam() << ": " << MipStatusName(r.status);
  EXPECT_TRUE(at.IsFeasible(r.x, 1e-6)) << "seed " << GetParam();
  EXPECT_NEAR(Dot(mip.objective, r.x), brute, 1e-6) << "seed " << GetParam();
  const MipResult below = SolveMip(
      WithObjectiveBound(mip.model, mip.objective, brute - 0.5), options);
  EXPECT_EQ(below.status, MipStatus::kInfeasible)
      << "seed " << GetParam() << ": " << MipStatusName(below.status);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipAgreementTest,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MipMixedTest, ContinuousRelaxationInsideBinaryProgram) {
  // Binary y selects between two continuous regimes for x in [0, 10]:
  //   x <= 2 + 8y, x >= 5y; minimize -x + 3y.
  // y=0: x <= 2 -> obj >= -2; y=1: x <= 10, x >= 5 -> obj >= -10 + 3 = -7.
  Model m;
  const int x = m.AddVariable("x", 0, 10, false);
  const int y = m.AddBinary("y");
  m.AddConstraint("cap", {{x, 1.0}, {y, -8.0}}, -kInfinity, 2);
  m.AddConstraint("floor", {{x, 1.0}, {y, -5.0}}, 0, kInfinity);
  const std::vector<LinTerm> c = {{x, -1.0}, {y, 3.0}};
  const MipResult r = SolveMip(WithObjectiveBound(m, c, -7.0));
  ASSERT_EQ(r.status, MipStatus::kFeasible) << MipStatusName(r.status);
  EXPECT_NEAR(r.x[y], 1.0, 1e-6);
  EXPECT_NEAR(r.x[x], 10.0, 1e-6);
  EXPECT_EQ(SolveMip(WithObjectiveBound(m, c, -7.5)).status,
            MipStatus::kInfeasible);
}

TEST(MipMixedTest, GeneralIntegerVariables) {
  // max 4a + 5b st a + 2b <= 7, 3a + b <= 9, a,b in {0..4} integer.
  // Optimum: enumerate... a=2,b=2: obj 18, feas (6<=7, 8<=9) ✓;
  // a=1,b=3: 19, (7<=7, 6<=9) ✓; a=0,b=3: 15; a=2,b=2:18; a=1,b=3 => 19.
  Model m;
  const int a = m.AddVariable("a", 0, 4, true);
  const int b = m.AddVariable("b", 0, 4, true);
  m.AddConstraint("c1", {{a, 1.0}, {b, 2.0}}, -kInfinity, 7);
  m.AddConstraint("c2", {{a, 3.0}, {b, 1.0}}, -kInfinity, 9);
  const std::vector<LinTerm> c = {{a, -4.0}, {b, -5.0}};
  const MipResult r = SolveMip(WithObjectiveBound(m, c, -19.0));
  ASSERT_EQ(r.status, MipStatus::kFeasible) << MipStatusName(r.status);
  EXPECT_NEAR(r.x[a], 1.0, 1e-6);
  EXPECT_NEAR(r.x[b], 3.0, 1e-6);
  EXPECT_EQ(SolveMip(WithObjectiveBound(m, c, -19.5)).status,
            MipStatus::kInfeasible);
}

}  // namespace
}  // namespace rdfsr::ilp
