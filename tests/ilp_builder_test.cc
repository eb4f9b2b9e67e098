// The Section 6 encoding, cross-checked against brute-force partition search:
// for small random datasets, the MIP must report a refinement exactly when
// some signature partition into <= k sorts meets the threshold — for every
// builtin rule, several k, and several thresholds.

#include <gtest/gtest.h>

#include "core/ilp_builder.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "eval/partitions.h"
#include "gen/random_graph.h"
#include "ilp/branch_and_bound.h"
#include "rules/builtins.h"

namespace rdfsr::core {
namespace {

/// Ground truth by exhaustive set-partition enumeration.
bool BruteForceExists(const eval::Evaluator& evaluator, int k, Rational theta) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  bool found = false;
  eval::ForEachSetPartition(n, [&](const std::vector<int>& class_of) {
    const int classes =
        *std::max_element(class_of.begin(), class_of.end()) + 1;
    if (classes > k) return true;
    std::vector<std::vector<int>> parts(classes);
    for (int i = 0; i < n; ++i) parts[class_of[i]].push_back(i);
    for (const auto& part : parts) {
      if (!SigmaAtLeast(evaluator.Counts(part), theta)) return true;
    }
    found = true;
    return false;  // stop
  });
  return found;
}

Decision IlpDecide(const eval::Evaluator& evaluator, int k, Rational theta) {
  const std::vector<eval::TauCount> taus =
      eval::EnumerateTauCounts(evaluator.rule(), evaluator.index());
  IlpEncoding enc = BuildRefinementIlp(evaluator.index(), taus, k, theta);
  ilp::MipOptions mip;
  mip.max_nodes = 200000;
  mip.time_limit_seconds = 30;
  const ilp::MipResult r = ilp::SolveMip(enc.model, mip);
  if (r.status == ilp::MipStatus::kFeasible) {
    // Decoded solutions must validate exactly.
    SortRefinement ref = enc.Decode(r.x);
    EXPECT_TRUE(ValidateRefinement(evaluator, ref, theta).ok())
        << "decoded refinement fails exact validation";
    EXPECT_LE(ref.num_sorts(), static_cast<std::size_t>(k));
    return Decision::kExists;
  }
  if (r.status == ilp::MipStatus::kInfeasible) return Decision::kNotExists;
  return Decision::kUnknown;
}

class IlpBuilderAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(IlpBuilderAgreementTest, MatchesBruteForceAcrossRules) {
  const int k = std::get<0>(GetParam());
  const std::uint64_t seed = std::get<1>(GetParam());

  gen::RandomIndexSpec spec;
  spec.num_signatures = 4;
  spec.num_properties = 3;
  spec.max_count = 6;
  spec.seed = seed;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);

  const rules::Rule rules_to_test[] = {
      rules::CovRule(),
      rules::SimRule(),
      rules::SymDepRule("p0", "p1"),
  };
  const Rational thetas[] = {Rational(1, 2), Rational(3, 4), Rational(9, 10),
                             Rational(1)};

  for (const rules::Rule& rule : rules_to_test) {
    auto evaluator = eval::MakeEvaluator(rule, &index);
    for (const Rational& theta : thetas) {
      const bool expected = BruteForceExists(*evaluator, k, theta);
      const Decision got = IlpDecide(*evaluator, k, theta);
      ASSERT_NE(got, Decision::kUnknown)
          << rule.name() << " theta=" << theta.ToString();
      EXPECT_EQ(got == Decision::kExists, expected)
          << rule.name() << " theta=" << theta.ToString() << " k=" << k
          << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KBySeed, IlpBuilderAgreementTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(11, 22, 33)),
    [](const ::testing::TestParamInfo<std::tuple<int, std::uint64_t>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IlpBuilderTest, ReweightMatchesPerInstanceRebuildBitForBit) {
  // One reused instance swept through a theta ladder must equal a fresh
  // build at every step — including after crossing weight sign flips.
  // ToString covers names, coefficients, and bounds.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 5;
  spec.num_properties = 4;
  spec.seed = 3;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const Rational thetas[] = {Rational(0),      Rational(1, 10), Rational(1, 2),
                             Rational(17, 20), Rational(9, 10), Rational(1)};

  for (const rules::Rule& rule : {rules::SimRule(), rules::CovRule()}) {
    const auto taus = eval::EnumerateTauCounts(rule, index);
    RefinementIlpInstance reused(index, AnalyzeTaus(taus, index), 2);
    for (const Rational& theta : thetas) {
      reused.Reweight(theta);
      const IlpEncoding fresh = BuildRefinementIlp(index, taus, 2, theta);
      EXPECT_EQ(reused.model().ToString(), fresh.model.ToString())
          << rule.name() << " theta=" << theta.ToString();
    }
    // Sweeping back down must remain exact (no residue from earlier
    // instances).
    reused.Reweight(Rational(1, 2));
    const IlpEncoding fresh = BuildRefinementIlp(index, taus, 2, Rational(1, 2));
    EXPECT_EQ(reused.model().ToString(), fresh.model.ToString());
  }
}

TEST(IlpBuilderTest, RefinementIlpRowsIsExact) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 6;
  spec.num_properties = 4;
  spec.seed = 5;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  for (const rules::Rule& rule : {rules::CovRule(), rules::SimRule()}) {
    const auto taus = eval::EnumerateTauCounts(rule, index);
    const auto shapes = AnalyzeTaus(taus, index);
    for (int k : {1, 2, 4}) {
      RefinementIlpInstance instance(index, shapes, k);
      const std::size_t rows = RefinementIlpRows(index, shapes, k);
      EXPECT_EQ(rows, instance.model().num_constraints())
          << rule.name() << " k=" << k;
      // The solver's row ceiling gates on the active count: the skeleton
      // minus one side of every materialized tau's links, at any theta.
      const std::size_t active = RefinementIlpActiveRows(index, shapes, k);
      EXPECT_LE(active, rows) << rule.name() << " k=" << k;
      for (const Rational theta : {Rational(1, 10), Rational(9, 10)}) {
        instance.Reweight(theta);
        std::size_t live = 0;
        for (const ilp::Constraint& c : instance.model().constraints()) {
          live += c.lower > -ilp::kInfinity || c.upper < ilp::kInfinity;
        }
        EXPECT_LE(live, active)
            << rule.name() << " k=" << k << " theta=" << theta.ToString();
      }
    }
  }
}

TEST(IlpBuilderTest, EncodingShapesDiagnostics) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 5;
  spec.num_properties = 4;
  spec.seed = 8;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const rules::Rule cov = rules::CovRule();
  const auto taus = eval::EnumerateTauCounts(cov, index);

  IlpEncoding enc = BuildRefinementIlp(index, taus, 2, Rational(9, 10));
  // Cov taus always touch one signature with the property either inside the
  // support (substituted) or outside (needs a U link).
  EXPECT_GT(enc.num_tau_substituted, 0);
  EXPECT_GT(enc.model.num_variables(), 0u);
  EXPECT_GT(enc.model.num_constraints(), 0u);

  // Every X variable is binary; U and T are continuous.
  int integer_vars = 0;
  for (const auto& v : enc.model.variables()) integer_vars += v.is_integer;
  EXPECT_EQ(integer_vars, 2 * 5);  // k * num_signatures
}

TEST(IlpBuilderTest, DecodeDropsEmptySorts) {
  std::vector<schema::Signature> sigs = {{{0}, 2}, {{1}, 1}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  const rules::Rule cov = rules::CovRule();
  const auto taus = eval::EnumerateTauCounts(cov, index);
  IlpEncoding enc = BuildRefinementIlp(index, taus, 3, Rational(0));
  // Hand-build a solution: both signatures in sort 0.
  std::vector<double> x(enc.model.num_variables(), 0.0);
  x[enc.x_var[0][0]] = 1.0;
  x[enc.x_var[0][1]] = 1.0;
  const SortRefinement ref = enc.Decode(x);
  ASSERT_EQ(ref.num_sorts(), 1u);
  EXPECT_EQ(ref.sorts[0].size(), 2u);
}

TEST(IlpBuilderTest, ThetaOneRequiresPerfectSorts) {
  // Signature {a} and {a,b}: together Cov < 1; apart each sort is perfect.
  std::vector<schema::Signature> sigs = {{{0}, 3}, {{0, 1}, 2}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);

  EXPECT_EQ(IlpDecide(*evaluator, 1, Rational(1)), Decision::kNotExists);
  EXPECT_EQ(IlpDecide(*evaluator, 2, Rational(1)), Decision::kExists);
}

}  // namespace
}  // namespace rdfsr::core
