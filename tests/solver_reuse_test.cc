// History independence of a long-lived RefinementSolver. One solver answers
// Exists(k, theta) for every k in 1..3 and every theta on the paper's 1/100
// grid, in that order, so each call runs on top of everything the solver
// cached before: the reweighted encoding per k, the warm-start chain of root
// bases, the agglomerative dendrogram, greedy per k and the memoized sigma
// counts. Each call must decide exactly like a fresh solver asked only that
// question.
//
// Witnesses: a heuristic answer (via_greedy) comes from deterministic,
// theta-independent caches, so it must equal the fresh solver's; so must the
// first exact solve at each k, whose root LP starts cold in both. A later
// exact solve starts from the previous instance's root basis, and a
// degenerate optimum admits several vertices, so its witness may differ —
// but it must pass exact validation like any other.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "../bench/bench_util.h"
#include "api/rdfsr.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"

namespace rdfsr::core {
namespace {

using bench::RenderSorts;

/// Walks the (k, theta) grid on one chained solver against a fresh solver per
/// call. Returns sum(chained - fresh) of the root-and-node basis reuses, so a
/// caller can check that the cross-instance warm-start chain fired.
long long ExpectChainedMatchesFresh(const eval::Evaluator& evaluator,
                                    bool greedy_first,
                                    const std::string& context) {
  SolverOptions options;
  options.greedy_first = greedy_first;
  RefinementSolver chained(&evaluator, options);

  long long extra_reuses = 0;
  for (int k : {1, 2, 3}) {
    bool first_exact = true;
    for (int g = 1; g <= 100; ++g) {
      const Rational theta(g, 100);
      const std::string where = context + " k=" + std::to_string(k) +
                                " theta=" + theta.ToString();
      const DecisionResult a = chained.Exists(k, theta);
      RefinementSolver fresh_solver(&evaluator, options);
      const DecisionResult b = fresh_solver.Exists(k, theta);

      EXPECT_EQ(a.decision, b.decision) << where;
      EXPECT_EQ(a.via_greedy, b.via_greedy) << where;
      EXPECT_TRUE(a.limit.ok()) << where << ": " << a.limit.ToString();
      EXPECT_EQ(a.refinement.has_value(), b.refinement.has_value()) << where;
      if (a.refinement.has_value() && b.refinement.has_value()) {
        EXPECT_TRUE(ValidateRefinement(evaluator, *a.refinement, theta).ok())
            << where;
        if (a.via_greedy || (a.mip_nodes > 0 && first_exact)) {
          EXPECT_EQ(RenderSorts(*a.refinement), RenderSorts(*b.refinement))
              << where;
        }
      }
      if (a.mip_nodes > 0) first_exact = false;
      extra_reuses += a.lp_stats.basis_reuses - b.lp_stats.basis_reuses;
    }
  }
  return extra_reuses;
}

TEST(SolverReuseTest, QuickstartChainedExistsMatchesFreshSolver) {
  // The absolute path comes from CMake, so any working directory works.
  auto dataset = api::Dataset::FromNTriplesFile(RDFSR_QUICKSTART_NT,
                                                {.sort = "http://x/Person"});
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const schema::SignatureIndex& index = dataset->index();
  for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
    auto evaluator = eval::MakeEvaluator(rule, &index);
    for (bool greedy_first : {true, false}) {
      ExpectChainedMatchesFresh(
          *evaluator, greedy_first,
          "quickstart/" + rule.name() +
              (greedy_first ? " greedy-first" : " exact"));
    }
  }
}

TEST(SolverReuseTest, RandomIndexChainedExistsMatchesFreshSolver) {
  long long extra_reuses = 0;
  for (std::uint64_t seed : {1, 7, 21}) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 6;
    spec.num_properties = 4;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
      auto evaluator = eval::MakeEvaluator(rule, &index);
      for (bool greedy_first : {true, false}) {
        extra_reuses += ExpectChainedMatchesFresh(
            *evaluator, greedy_first,
            "seed " + std::to_string(seed) + "/" + rule.name() +
                (greedy_first ? " greedy-first" : " exact"));
      }
    }
  }
  // The chain must do something: some root LPs adopt the previous
  // instance's basis, which a fresh solver never has.
  EXPECT_GT(extra_reuses, 0);
}

}  // namespace
}  // namespace rdfsr::core
