// Test helper: optimization questions asked of a feasibility engine.
//
// The ILP layer only decides whether a model has a point. A test that knows
// the minimum `opt` of c.x over a model checks it with two solves instead of
// an objective: the model plus c.x <= opt must be feasible, and the model
// plus c.x <= opt - eps infeasible, for an eps below the gap to the next-best
// value (any eps above the solver tolerances for a continuous optimum).

#ifndef RDFSR_TESTS_OBJECTIVE_BOUND_H_
#define RDFSR_TESTS_OBJECTIVE_BOUND_H_

#include <utility>
#include <vector>

#include "ilp/model.h"

namespace rdfsr::ilp::testutil {

/// `model` plus the row c.x <= bound.
inline Model WithObjectiveBound(Model model, std::vector<LinTerm> c,
                                double bound) {
  model.AddConstraint("objective_bound", std::move(c), -kInfinity, bound);
  return model;
}

/// c.x.
inline double Dot(const std::vector<LinTerm>& c, const std::vector<double>& x) {
  double value = 0.0;
  for (const LinTerm& t : c) value += t.coef * x[t.var];
  return value;
}

}  // namespace rdfsr::ilp::testutil

#endif  // RDFSR_TESTS_OBJECTIVE_BOUND_H_
