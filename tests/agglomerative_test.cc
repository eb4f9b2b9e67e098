// Tests for the agglomerative merge heuristics (core/greedy.h): lowest-k
// upper bounds, fixed-k clustering, determinism, and interaction with the
// solver's heuristic ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "agglomerate_oracle.h"
#include "core/greedy.h"
#include "core/solver.h"
#include "eval/counts.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "util/rng.h"

namespace rdfsr::core {
namespace {

TEST(AgglomerativeTest, SingletonSortsHaveSigmaOneUnderBuiltins) {
  // The lowest-k heuristic's starting point: one sort per signature. For the
  // builtin families each singleton sort is perfectly structured.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 6;
  spec.num_properties = 4;
  spec.seed = 21;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  auto sim = eval::MakeEvaluator(rules::SimRule(), &index);
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    EXPECT_DOUBLE_EQ(cov->Sigma({static_cast<int>(i)}), 1.0);
    EXPECT_DOUBLE_EQ(sim->Sigma({static_cast<int>(i)}), 1.0);
  }
}

TEST(AgglomerativeTest, LowestKRespectsThresholdExactly) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 8;
    spec.num_properties = 5;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
    const Rational theta(9, 10);
    const SortRefinement ref = AgglomerativeLowestK(*cov, theta);
    EXPECT_TRUE(ValidateRefinement(*cov, ref, theta).ok()) << "seed " << seed;
  }
}

TEST(AgglomerativeTest, ThresholdZeroMergesEverything) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 7;
  spec.seed = 4;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  const SortRefinement ref = AgglomerativeLowestK(*cov, Rational(0));
  EXPECT_EQ(ref.num_sorts(), 1u);
  EXPECT_EQ(ref.sorts[0].size(), 7u);
}

TEST(AgglomerativeTest, ThresholdOneMergesOnlyCompatibleSignatures) {
  // Three mutually incompatible supports: under Cov, theta = 1 forbids every
  // merge (each pair's union view has empty cells), so the heuristic must
  // stop at three singleton sorts.
  std::vector<schema::Signature> sigs = {{{0, 1}, 8}, {{2}, 4}, {{0}, 2}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b", "c"}, sigs);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  const SortRefinement ref = AgglomerativeLowestK(*cov, Rational(1));
  // No pair of distinct supports can share a sort at Cov = 1.
  EXPECT_EQ(ref.num_sorts(), 3u);
  EXPECT_TRUE(ValidateRefinement(*cov, ref, Rational(1)).ok());
}

TEST(AgglomerativeTest, FixedKReachesExactlyK) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 9;
  spec.seed = 13;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  for (int k = 1; k <= 4; ++k) {
    const SortRefinement ref = AgglomerativeFixedK(*cov, k);
    EXPECT_EQ(ref.num_sorts(), static_cast<std::size_t>(k));
    EXPECT_TRUE(ValidateRefinement(*cov, ref, Rational(0)).ok());
  }
}

TEST(AgglomerativeTest, FixedKBeyondSignatureCountKeepsSingletons) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 4;
  spec.seed = 2;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  const SortRefinement ref = AgglomerativeFixedK(*cov, 10);
  EXPECT_EQ(ref.num_sorts(), 4u);
}

TEST(AgglomerativeTest, Deterministic) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 10;
  spec.seed = 31;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto sim = eval::MakeEvaluator(rules::SimRule(), &index);
  const SortRefinement a = AgglomerativeLowestK(*sim, Rational(95, 100));
  const SortRefinement b = AgglomerativeLowestK(*sim, Rational(95, 100));
  ASSERT_EQ(a.num_sorts(), b.num_sorts());
  for (std::size_t i = 0; i < a.num_sorts(); ++i) {
    EXPECT_EQ(a.sorts[i], b.sorts[i]);
  }
}

TEST(AgglomerativeTest, UpperBoundsLowestKOnPersons) {
  // On the calibrated Persons twin the merge heuristic should find a
  // theta = 0.9 Cov refinement with a k in the vicinity of the paper's 9
  // (it is an upper bound on the true lowest k).
  gen::PersonsConfig config;
  config.num_subjects = 2000;
  const schema::SignatureIndex index = gen::GeneratePersons(config);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  const SortRefinement ref = AgglomerativeLowestK(*cov, Rational(9, 10));
  EXPECT_TRUE(ValidateRefinement(*cov, ref, Rational(9, 10)).ok());
  EXPECT_LE(ref.num_sorts(), 16u);
  EXPECT_GE(ref.num_sorts(), 5u);
}

TEST(AgglomerativeTest, SigmaAtLeastAgreesWithCompareSigma) {
  // The theta cut relies on this: a pair meets theta exactly when its sigma
  // ranks at or above theta in the exact order merges are picked by. If the
  // two tests ever disagreed, cutting the one merge sequence at theta would
  // diverge from a run that ranks the pairs meeting theta first.
  Rng rng(2024);
  // Random counts from tiny to ~2^90, favorable <= total as the rules count.
  std::vector<eval::SigmaCounts> pool;
  for (int i = 0; i < 4000; ++i) {
    eval::BigCount total = static_cast<eval::BigCount>(rng.Next() >>
                                                       rng.Below(64))
                           << rng.Below(27);
    if (total == 0) total = 1;
    const eval::BigCount favorable = std::min<eval::BigCount>(
        total, total / 1000 * rng.Range(0, 1000) + rng.Range(0, 999));
    pool.push_back({favorable, total});
  }
  // Grid thetas: every fraction with den <= 20, a spread of larger dens up
  // to 1000, and the whole 1/1000 grid.
  std::vector<Rational> thetas;
  for (std::int64_t den = 1; den <= 1000; den += (den < 20 ? 1 : 37)) {
    for (std::int64_t num = 0; num <= den; ++num) thetas.emplace_back(num, den);
  }
  for (std::int64_t g = 0; g <= 1000; ++g) thetas.emplace_back(g, 1000);

  const auto expect_agree = [](const eval::SigmaCounts& c, Rational theta) {
    const eval::SigmaCounts as_counts{theta.num(), theta.den()};
    EXPECT_EQ(SigmaAtLeast(c, theta), eval::CompareSigma(c, as_counts) >= 0)
        << eval::BigCountToString(c.favorable) << "/"
        << eval::BigCountToString(c.total) << " vs " << theta.ToString();
  };
  for (const Rational& theta : thetas) {
    expect_agree({0, 0}, theta);  // vacuous: sigma = 1
    // Ratios equal to theta at several scales, and one count either side.
    for (const std::int64_t scale : {1, 3, 1000003}) {
      const eval::BigCount f = static_cast<eval::BigCount>(theta.num()) * scale;
      const eval::BigCount t = static_cast<eval::BigCount>(theta.den()) * scale;
      expect_agree({f, t}, theta);
      if (f > 0) expect_agree({f - 1, t}, theta);
      if (f < t) expect_agree({f + 1, t}, theta);
    }
    for (int i = 0; i < 24; ++i) {
      expect_agree(pool[rng.Below(pool.size())], theta);
    }
  }
}

/// The clustered shape bench_solver and the e2e clustered_heuristic
/// workload use: 8 families of 8 properties plus one shared property; the
/// first signature of each family takes its whole block, later ones ~80%.
schema::SignatureIndex ClusteredIndex(int n, std::uint64_t seed) {
  constexpr int kFamilies = 8, kBlock = 8;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % kFamilies;
    const bool full = static_cast<int>(sigs.size()) < kFamilies;
    std::vector<int> support{0};
    for (int p = 0; p < kBlock; ++p) {
      if (full || rng.Chance(0.8)) support.push_back(1 + family * kBlock + p);
    }
    if (!seen.insert(support).second) continue;
    sigs.emplace_back(std::move(support), rng.Range(1, 20));
  }
  std::vector<std::string> names;
  for (int p = 0; p < 1 + kFamilies * kBlock; ++p) {
    names.emplace_back("p") += std::to_string(p);
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

/// Every theta on the 1/100 grid and every k in 1..n: the dendrogram cut
/// (what RefinementSolver serves its ladder from) must equal a from-scratch
/// run of the former threshold-stopped and k-stopped engine, at 1 and 4
/// threads. With `check_stopped_runs`, so must the early-stopping
/// AgglomerativeLowestK / AgglomerativeFixedK.
void ExpectCutsMatchOracle(const eval::Evaluator& evaluator,
                           const std::string& context,
                           bool check_stopped_runs) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  std::vector<SortRefinement> by_theta, by_k;
  for (int g = 0; g <= 100; ++g) {
    by_theta.push_back(oracle::OracleLowestK(evaluator, Rational(g, 100)));
  }
  for (int k = 1; k <= n; ++k) {
    by_k.push_back(oracle::OracleFixedK(evaluator, k));
  }
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(context + " threads " + std::to_string(threads));
    const std::vector<AgglomerativeMerge> merges =
        AgglomerativeMerges(evaluator, threads);
    ASSERT_EQ(merges.size(), static_cast<std::size_t>(n > 0 ? n - 1 : 0));
    for (int g = 0; g <= 100; ++g) {
      const Rational theta(g, 100);
      const std::size_t cut = ThetaCut(merges, theta);
      EXPECT_EQ(ReplayMerges(n, merges, cut).sorts, by_theta[g].sorts)
          << "theta " << theta.ToString();
      if (!check_stopped_runs) continue;
      EXPECT_EQ(AgglomerativeLowestK(evaluator, theta, threads).sorts,
                by_theta[g].sorts)
          << "theta " << theta.ToString();
    }
    for (int k = 1; k <= n; ++k) {
      EXPECT_EQ(ReplayMerges(n, merges, static_cast<std::size_t>(n - k)).sorts,
                by_k[k - 1].sorts)
          << "k " << k;
      if (!check_stopped_runs) continue;
      EXPECT_EQ(AgglomerativeFixedK(evaluator, k, threads).sorts,
                by_k[k - 1].sorts)
          << "k " << k;
    }
  }
}

TEST(AgglomerativeTest, DendrogramCutsMatchStoppedRuns) {
  for (const int n : {1, 2, 40}) {
    for (const std::uint64_t seed : {5u, 17u}) {
      gen::RandomIndexSpec spec;
      spec.num_signatures = n;
      spec.num_properties = 8;
      spec.seed = seed;
      const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
      for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
        auto evaluator = eval::MakeEvaluator(rule, &index);
        ExpectCutsMatchOracle(*evaluator, "n " + std::to_string(n) + " seed " +
                                              std::to_string(seed) + " " +
                                              rule.name(),
                              /*check_stopped_runs=*/true);
      }
    }
  }
}

TEST(AgglomerativeTest, DendrogramCutsMatchStoppedRunsOnParallelPath) {
  // 300 signatures: past the 256-signature cutoff, so 4 threads engage the
  // pooled row build. The stopped runs' parallel path at this size is
  // covered by refine_regression_test; here only the cuts are checked.
  const schema::SignatureIndex index = ClusteredIndex(300, 42);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  ExpectCutsMatchOracle(*cov, "clustered 300 cov",
                        /*check_stopped_runs=*/false);
}

TEST(AgglomerativeTest, SolverUsesHeuristicLadder) {
  // A dataset where the agglomerative bound is tight: two compatible
  // families. The solver should answer via heuristics (no MIP nodes).
  std::vector<schema::Signature> sigs = {
      {{0, 1}, 10}, {{0, 1, 2}, 6}, {{3}, 9}, {{3, 4}, 5}};
  const schema::SignatureIndex index = schema::SignatureIndex::FromSignatures(
      {"a", "b", "c", "d", "e"}, sigs);
  auto sim = eval::MakeEvaluator(rules::SimRule(), &index);
  RefinementSolver solver(sim.get());
  const DecisionResult r = solver.Exists(2, Rational(8, 10));
  EXPECT_EQ(r.decision, Decision::kExists);
  EXPECT_TRUE(r.via_greedy);
  EXPECT_EQ(r.mip_nodes, 0);
}

}  // namespace
}  // namespace rdfsr::core
