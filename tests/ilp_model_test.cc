// Unit tests for the MIP model container.

#include <gtest/gtest.h>

#include "ilp/model.h"

namespace rdfsr::ilp {
namespace {

TEST(ModelTest, AddVariablesAndConstraints) {
  Model m;
  const int x = m.AddVariable("x", 0, 10, false);
  const int y = m.AddBinary("y");
  EXPECT_EQ(x, 0);
  EXPECT_EQ(y, 1);
  EXPECT_EQ(m.num_variables(), 2u);
  EXPECT_TRUE(m.variable(y).is_integer);
  EXPECT_DOUBLE_EQ(m.variable(y).upper, 1.0);

  m.AddConstraint("c0", {{x, 1.0}, {y, 2.0}}, 0, 5);
  EXPECT_EQ(m.num_constraints(), 1u);
}

TEST(ModelTest, MergesDuplicateTerms) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  const int r = m.AddConstraint("c", {{x, 1.0}, {x, 2.0}}, 0, 1);
  ASSERT_EQ(m.constraint(r).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.constraint(r).terms[0].coef, 3.0);
}

TEST(ModelTest, DropsZeroCoefficients) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  const int y = m.AddVariable("y", 0, 1, false);
  const int r = m.AddConstraint("c", {{x, 1.0}, {y, 1.0}, {y, -1.0}}, 0, 1);
  ASSERT_EQ(m.constraint(r).terms.size(), 1u);
  EXPECT_EQ(m.constraint(r).terms[0].var, x);
}

TEST(ModelTest, IsFeasibleChecksEverything) {
  Model m;
  const int x = m.AddVariable("x", 0, 2, true);
  const int y = m.AddVariable("y", 0, 1, false);
  m.AddConstraint("c", {{x, 1.0}, {y, 1.0}}, 1, 2);

  EXPECT_TRUE(m.IsFeasible({1.0, 0.5}));
  EXPECT_FALSE(m.IsFeasible({1.5, 0.0}));  // integrality
  EXPECT_FALSE(m.IsFeasible({3.0, 0.0}));  // bound
  EXPECT_FALSE(m.IsFeasible({0.0, 0.5}));  // constraint lower
  EXPECT_FALSE(m.IsFeasible({2.0, 1.0}));  // constraint upper
  EXPECT_FALSE(m.IsFeasible({1.0}));       // arity
}

TEST(ModelTest, SetConstraintTermsReplacesRowInPlace) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  const int y = m.AddVariable("y", 0, 1, false);
  const int r = m.AddConstraint("row", {{x, 1.0}}, 0, 1);

  m.SetConstraintTerms(r, {{y, 2.0}, {y, 1.0}, {x, 0.0}}, -1, 3);
  EXPECT_EQ(m.num_constraints(), 1u);
  EXPECT_EQ(m.constraint(r).name, "row");  // name kept
  ASSERT_EQ(m.constraint(r).terms.size(), 1u);  // merged, zero dropped
  EXPECT_EQ(m.constraint(r).terms[0].var, y);
  EXPECT_DOUBLE_EQ(m.constraint(r).terms[0].coef, 3.0);
  EXPECT_DOUBLE_EQ(m.constraint(r).lower, -1.0);
  EXPECT_DOUBLE_EQ(m.constraint(r).upper, 3.0);

  // Rewriting to an empty row is allowed (a threshold row with no active
  // taus); feasibility then depends only on the bounds including zero.
  m.SetConstraintTerms(r, {}, 0, kInfinity);
  EXPECT_TRUE(m.constraint(r).terms.empty());
  EXPECT_TRUE(m.IsFeasible({0.0, 0.0}));
}

TEST(ModelTest, SetConstraintBoundsTogglesRowActivity) {
  Model m;
  const int x = m.AddVariable("x", 0, 1, false);
  const int r = m.AddConstraint("link", {{x, 1.0}}, -kInfinity, 0);
  EXPECT_FALSE(m.IsFeasible({1.0}));

  // Deactivate: both sides infinite makes the row vacuous.
  m.SetConstraintBounds(r, -kInfinity, kInfinity);
  EXPECT_TRUE(m.IsFeasible({1.0}));

  // Reactivate with the opposite sense.
  m.SetConstraintBounds(r, 1, kInfinity);
  EXPECT_TRUE(m.IsFeasible({1.0}));
  EXPECT_FALSE(m.IsFeasible({0.0}));
}

TEST(ModelTest, ToStringMentionsNamesAndBounds) {
  Model m;
  const int x = m.AddVariable("price", 0, 1, false);
  m.AddConstraint("limit", {{x, 2.0}}, -kInfinity, 1);
  const std::string s = m.ToString();
  EXPECT_NE(s.find("price"), std::string::npos);
  EXPECT_NE(s.find("limit"), std::string::npos);
}

}  // namespace
}  // namespace rdfsr::ilp
