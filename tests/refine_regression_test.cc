// Regression lock: greedy and agglomerative refinements recorded from the
// scratch-evaluation implementation (pre incremental-SortStats rewrite, PR 4)
// must be reproduced bit-identically by the incremental engines — on the
// checked-in quickstart dataset and on random indices, and against that
// implementation itself (tests/seed_heuristics_oracle.h) on 256-signature
// indices. Any deviation means the incremental path changed a score or a
// merge decision.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "agglomerate_oracle.h"
#include "api/rdfsr.h"
#include "core/greedy.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "seed_heuristics_oracle.h"
#include "util/rng.h"

namespace rdfsr::core {
namespace {

// The quickstart dataset (examples/data/quickstart.nt): four Persons, two
// signatures — {name, email, birthDate} x2 subjects and {name} x2 subjects.
constexpr const char* kQuickstart = R"(
<http://x/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/alice> <http://x/name> "Alice" .
<http://x/alice> <http://x/email> "alice@example.org" .
<http://x/alice> <http://x/birthDate> "1990-01-01" .
<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/bob> <http://x/name> "Bob" .
<http://x/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/carol> <http://x/name> "Carol" .
<http://x/carol> <http://x/email> "carol@example.org" .
<http://x/carol> <http://x/birthDate> "1985-05-05" .
<http://x/dave> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/dave> <http://x/name> "Dave" .
)";

std::string Render(const SortRefinement& ref) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < ref.sorts.size(); ++i) {
    if (i) out << ", ";
    out << "{";
    for (std::size_t j = 0; j < ref.sorts[i].size(); ++j) {
      if (j) out << ",";
      out << ref.sorts[i][j];
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

TEST(RefineRegressionTest, QuickstartRefinementsUnchanged) {
  api::DatasetOptions options;
  options.sort = "http://x/Person";
  auto dataset = api::Dataset::FromNTriplesText(kQuickstart, options);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const schema::SignatureIndex& index = dataset->index();
  ASSERT_EQ(index.num_signatures(), 2u);

  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  auto sim = eval::MakeEvaluator(rules::SimRule(), &index);
  for (const auto* evaluator : {cov.get(), sim.get()}) {
    const std::string rule = evaluator->rule().name();
    EXPECT_EQ(Render(AgglomerativeLowestK(*evaluator, Rational(9, 10))),
              "{{0}, {1}}")
        << rule;
    EXPECT_EQ(Render(AgglomerativeFixedK(*evaluator, 1)), "{{0,1}}") << rule;
    EXPECT_EQ(Render(AgglomerativeFixedK(*evaluator, 2)), "{{0}, {1}}")
        << rule;
    EXPECT_EQ(Render(GreedyMaxMinSigma(*evaluator, 1)), "{{0,1}}") << rule;
    EXPECT_EQ(Render(GreedyMaxMinSigma(*evaluator, 2)), "{{0}, {1}}") << rule;
  }
}

struct RecordedCase {
  std::uint64_t seed;
  const char* rule;  // "cov" or "sim"
  const char* agglo_lowestk_9_10;
  const char* agglo_fixedk_3;
  const char* greedy_k3;
};

// Recorded from the scratch implementation at commit c2222b7 (12 signatures,
// 8 properties, default density/max_count). Greedy sort contents are in
// placement order — part of the bit-identical contract.
constexpr RecordedCase kRecorded[] = {
    {1, "cov",
     "{{0}, {1,9}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {10}, {11}}",
     "{{0,2}, {1,4,5,6,7,8,9,10,11}, {3}}",
     "{{3,4}, {0,2}, {1,10,6,5,8,9,11,7}}"},
    {1, "sim",
     "{{0,11}, {1,9}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {10}}",
     "{{0,2,8,11}, {1,4,5,6,7,9,10}, {3}}",
     "{{7,8,6,10,11}, {2,0,5}, {4,3,1,9}}"},
    {7, "cov",
     "{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}, {11}}",
     "{{0,2}, {1,4,5,6,8,9}, {3,7,10,11}}",
     "{{9,1,5,2,0,8}, {7,4}, {11,10,3,6}}"},
    {7, "sim",
     "{{0}, {1,5}, {2}, {3,11}, {4}, {6,9}, {7}, {8}, {10}}",
     "{{0,1,2,5,8}, {3,7,10,11}, {4,6,9}}",
     "{{5,1,7,11}, {6,9,3,4,10}, {8,0,2}}"},
    {21, "cov",
     "{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}, {9}, {10}, {11}}",
     "{{0,3,6,7,9,10,11}, {1,5,8}, {2,4}}",
     "{{7,6,0,1}, {2,4,5}, {8,3,11,9,10}}"},
    {21, "sim",
     "{{0,11}, {1,8}, {2,10}, {3,9}, {4}, {5}, {6}, {7}}",
     "{{0,7,11}, {1,6,8}, {2,3,4,5,9,10}}",
     "{{5,8,7}, {3,10,2,4,9}, {11,1,0,6}}"},
};

TEST(RefineRegressionTest, RandomIndexRefinementsUnchanged) {
  for (const RecordedCase& c : kRecorded) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 12;
    spec.num_properties = 8;
    spec.seed = c.seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto evaluator =
        eval::MakeEvaluator(std::string(c.rule) == "cov" ? rules::CovRule()
                                                         : rules::SimRule(),
                            &index);
    const std::string context =
        "seed " + std::to_string(c.seed) + " " + c.rule;
    EXPECT_EQ(Render(AgglomerativeLowestK(*evaluator, Rational(9, 10))),
              c.agglo_lowestk_9_10)
        << context;
    EXPECT_EQ(Render(AgglomerativeFixedK(*evaluator, 3)), c.agglo_fixedk_3)
        << context;
    EXPECT_EQ(Render(GreedyMaxMinSigma(*evaluator, 3)), c.greedy_k3)
        << context;
  }
}

TEST(RefineRegressionTest, AgglomerateOracleReproducesRecordedOutputs) {
  // agglomerative_test checks every dendrogram cut against this oracle (the
  // former threshold-stopped / k-stopped engine); this anchors the oracle
  // itself to the recorded outputs.
  for (const RecordedCase& c : kRecorded) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 12;
    spec.num_properties = 8;
    spec.seed = c.seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    auto evaluator =
        eval::MakeEvaluator(std::string(c.rule) == "cov" ? rules::CovRule()
                                                         : rules::SimRule(),
                            &index);
    const std::string context =
        "seed " + std::to_string(c.seed) + " " + c.rule;
    EXPECT_EQ(Render(oracle::OracleLowestK(*evaluator, Rational(9, 10))),
              c.agglo_lowestk_9_10)
        << context;
    EXPECT_EQ(Render(oracle::OracleFixedK(*evaluator, 3)), c.agglo_fixedk_3)
        << context;
  }
}

TEST(RefineRegressionTest, ParallelAgglomerativeMatchesSerial) {
  // Instances above kParallelAgglomerateCutoff (256 signatures) engage the
  // pooled row-recompute branch in greedy.cc. The merge sequence is picked
  // by a strict total order on pairs, so every thread count — including
  // counts above the hardware concurrency — must render identically to the
  // serial path.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 300;
  spec.num_properties = 24;
  spec.density = 0.3;
  for (const std::uint64_t seed : {3u, 11u}) {
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    for (const char* rule : {"cov", "sim"}) {
      auto evaluator = eval::MakeEvaluator(std::string(rule) == "cov"
                                               ? rules::CovRule()
                                               : rules::SimRule(),
                                           &index);
      const std::string lowestk_serial =
          Render(AgglomerativeLowestK(*evaluator, Rational(9, 10), 1));
      const std::string fixedk_serial =
          Render(AgglomerativeFixedK(*evaluator, 280, 1));
      for (const int threads : {2, 8}) {
        const std::string context = "seed " + std::to_string(seed) + " " +
                                    rule + " threads " +
                                    std::to_string(threads);
        EXPECT_EQ(
            Render(AgglomerativeLowestK(*evaluator, Rational(9, 10), threads)),
            lowestk_serial)
            << context;
        EXPECT_EQ(Render(AgglomerativeFixedK(*evaluator, 280, threads)),
                  fixedk_serial)
            << context;
      }
    }
  }
}

/// bench_refine's clustered shape: 8 property blocks of 12 columns plus two
/// shared columns; signatures draw ~85% of their family block. Distinct
/// supports, counts uniform in [1, 50]. Most within-family merges stay above
/// theta = 3/4, so agglomerative lowest-k runs ~n - 8 merge rounds.
schema::SignatureIndex MakeClusteredIndex(int n, std::uint64_t seed) {
  constexpr int kFamilies = 8;
  constexpr int kShared = 2;
  constexpr int kBlock = 12;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % kFamilies;
    std::vector<int> support;
    for (int p = 0; p < kShared; ++p) support.push_back(p);
    const int base = kShared + family * kBlock;
    for (int p = 0; p < kBlock; ++p) {
      if (rng.Chance(0.85)) support.push_back(base + p);
    }
    if (!seen.insert(support).second) continue;
    sigs.emplace_back(std::move(support), rng.Range(1, 50));
  }
  std::vector<std::string> names;
  for (int p = 0; p < kShared + kFamilies * kBlock; ++p) {
    names.push_back("http://bench/p" + std::to_string(p));
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

TEST(RefineRegressionTest, EnginesMatchSeedHeuristicsAt256Signatures) {
  // bench_refine's shapes, seeds and options at n = 256: the incremental
  // engines against the seed's scratch-evaluation heuristics.
  constexpr int kSignatures = 256;
  const schema::SignatureIndex clustered = MakeClusteredIndex(kSignatures, 42);
  for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
    auto evaluator = eval::MakeEvaluator(rule, &clustered);
    EXPECT_EQ(AgglomerativeLowestK(*evaluator, Rational(3, 4)).sorts,
              oracle::AgglomerativeLowestK(*evaluator, Rational(3, 4)).sorts)
        << "clustered agglomerative " << rule.name();
  }

  gen::RandomIndexSpec spec;
  spec.num_signatures = kSignatures;
  spec.num_properties = 64;
  spec.density = 0.3;
  spec.seed = 7;
  const schema::SignatureIndex random_index = gen::GenerateRandomIndex(spec);
  auto random_cov = eval::MakeEvaluator(rules::CovRule(), &random_index);
  EXPECT_EQ(AgglomerativeLowestK(*random_cov, Rational(9, 10)).sorts,
            oracle::AgglomerativeLowestK(*random_cov, Rational(9, 10)).sorts)
      << "random agglomerative Cov";

  GreedyOptions options;
  options.restarts = 2;
  options.max_passes = 3;
  auto clustered_cov = eval::MakeEvaluator(rules::CovRule(), &clustered);
  EXPECT_EQ(GreedyMaxMinSigma(*clustered_cov, 8, options).sorts,
            oracle::GreedyMaxMinSigma(*clustered_cov, 8, options).sorts)
      << "clustered greedy Cov";
}

}  // namespace
}  // namespace rdfsr::core
