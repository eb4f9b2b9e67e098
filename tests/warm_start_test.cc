// The cross-instance warm-start chain at search level: the root basis of
// each exact solve seeds the next same-k instance's root LP, so a solver's
// later searches start from whatever its earlier ones left behind. A search
// on a long-lived solver must still report exactly what a fresh solver
// reports — theta/k, instance count and proof flag — with an exactly valid
// witness (not necessarily the same one: a warm-rooted exact solve may land
// on another vertex of a degenerate optimum). Heuristics are off in the
// first pass so every instance is settled by the exact solver.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"

namespace rdfsr::core {
namespace {

SolverOptions PureExact() {
  SolverOptions options;
  options.greedy_first = false;
  return options;
}

/// Runs every search on one long-lived solver and on a fresh solver per
/// search, and compares them.
void ExpectSearchesMatchFreshSolver(const eval::Evaluator& evaluator,
                                    const SolverOptions& options,
                                    const std::string& context) {
  RefinementSolver chained(&evaluator, options);
  for (int k : {1, 2, 3}) {
    RefinementSolver fresh(&evaluator, options);
    const HighestThetaResult a = chained.FindHighestTheta(k);
    const HighestThetaResult b = fresh.FindHighestTheta(k);
    EXPECT_EQ(a.theta, b.theta) << context << " k=" << k;
    EXPECT_EQ(a.instances, b.instances) << context << " k=" << k;
    EXPECT_EQ(a.ceiling_proven, b.ceiling_proven) << context << " k=" << k;
    EXPECT_TRUE(ValidateRefinement(evaluator, a.refinement, a.theta).ok())
        << context << " k=" << k;
  }
  for (const Rational& theta : {Rational(3, 4), Rational(1)}) {
    RefinementSolver fresh(&evaluator, options);
    auto a = chained.FindLowestK(theta);
    auto b = fresh.FindLowestK(theta);
    ASSERT_EQ(a.ok(), b.ok()) << context << " theta=" << theta.ToString();
    if (!a.ok()) {
      EXPECT_EQ(a.status().code(), b.status().code())
          << context << " theta=" << theta.ToString();
      continue;
    }
    EXPECT_EQ(a->k, b->k) << context << " theta=" << theta.ToString();
    EXPECT_EQ(a->instances, b->instances)
        << context << " theta=" << theta.ToString();
    EXPECT_EQ(a->proven_minimal, b->proven_minimal)
        << context << " theta=" << theta.ToString();
    EXPECT_TRUE(ValidateRefinement(evaluator, a->refinement, theta).ok())
        << context << " theta=" << theta.ToString();
  }
}

TEST(WarmStartTest, ChainedSearchesMatchFreshSolver) {
  for (std::uint64_t seed : {3, 11, 29}) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 5;
    spec.num_properties = 3;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
      auto evaluator = eval::MakeEvaluator(rule, &index);
      const std::string context =
          "seed " + std::to_string(seed) + "/" + rule.name();
      ExpectSearchesMatchFreshSolver(*evaluator, PureExact(),
                                     context + " exact");
      ExpectSearchesMatchFreshSolver(*evaluator, SolverOptions{},
                                     context + " greedy-first");
    }
  }
}

TEST(WarmStartTest, DecisionResultCarriesLpStats) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 4;
  spec.num_properties = 3;
  spec.seed = 9;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  RefinementSolver solver(evaluator.get(), PureExact());
  // A single instance can be settled without any LP (root probing proves
  // far-infeasible thetas at zero nodes), so accumulate across a small sweep:
  // at least one theta is feasible, and a feasible exact answer needs an
  // incumbent from a solved relaxation.
  long long lp_work = 0;
  for (const Rational& theta :
       {Rational(1, 10), Rational(1, 2), Rational(3, 4), Rational(9, 10)}) {
    const DecisionResult r = solver.Exists(2, theta);
    ASSERT_NE(r.decision, Decision::kUnknown) << theta.ToString();
    lp_work += r.lp_stats.pivots + r.lp_stats.refactorizations;
  }
  EXPECT_GT(lp_work, 0);
}

}  // namespace
}  // namespace rdfsr::core
