// Property tests: the closed forms of the six builtin families (Cov, Sim,
// CovIgnoring, Dep, SymDep, DepDisj), read through MakeEvaluator(rule)
// ->Counts(ids), must agree exactly with the generic signature-level
// enumerator run on the index restricted to the ids — on full indexes and on
// implicit sorts.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eval/closed_form.h"
#include "eval/enumerator.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "schema/signature_index.h"
#include "util/rng.h"

namespace rdfsr::eval {
namespace {

void ExpectSameCounts(const SigmaCounts& a, const SigmaCounts& b,
                      const std::string& label) {
  EXPECT_EQ(static_cast<long long>(a.total), static_cast<long long>(b.total))
      << label << " totals";
  EXPECT_EQ(static_cast<long long>(a.favorable),
            static_cast<long long>(b.favorable))
      << label << " favorables";
}

/// Every builtin family over the random indexes' properties p0..p3.
std::vector<rules::Rule> Families() {
  return {rules::CovRule(),
          rules::SimRule(),
          rules::CovRuleIgnoring({"p0", "p3"}),
          rules::DepRule("p0", "p1"),
          rules::SymDepRule("p2", "p3"),
          rules::DepDisjunctiveRule("p0", "p2")};
}

/// Checks each family's closed form on the sort `ids` against the generic
/// enumerator on the restriction of `index` to `ids`.
void ExpectFamiliesMatchGeneric(const schema::SignatureIndex& index,
                                const std::vector<int>& ids,
                                const std::string& label) {
  const schema::SignatureIndex sub = index.Restrict(ids);
  for (const rules::Rule& rule : Families()) {
    const auto evaluator = MakeEvaluator(rule, &index);
    EXPECT_NE(dynamic_cast<const ClosedFormEvaluator*>(evaluator.get()),
              nullptr)
        << rule.name();
    ExpectSameCounts(evaluator->Counts(ids), EvaluateRuleOnIndex(rule, sub),
                     rule.name() + " " + label);
  }
}

class ClosedFormPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  schema::SignatureIndex MakeIndex() const {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 4 + static_cast<int>(GetParam() % 4);
    spec.num_properties = 4;
    spec.max_count = 12;
    spec.density = 0.5;
    spec.seed = GetParam();
    return gen::GenerateRandomIndex(spec);
  }
};

TEST_P(ClosedFormPropertyTest, FullIndexMatchesGeneric) {
  const schema::SignatureIndex index = MakeIndex();
  ExpectFamiliesMatchGeneric(index, AllSignatures(index), "all");
}

TEST_P(ClosedFormPropertyTest, SubsetsMatchGenericOnRestriction) {
  const schema::SignatureIndex index = MakeIndex();
  const int n = static_cast<int>(index.num_signatures());
  // Every second signature as an implicit sort.
  std::vector<int> every_second;
  for (int i = 0; i < n; i += 2) every_second.push_back(i);
  ExpectFamiliesMatchGeneric(index, every_second, "every second");

  // A few random non-empty sorts, in shuffled order: counts are a function
  // of the member set alone.
  Rng rng(GetParam() * 7919 + 3);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int> ids;
    for (int i = 0; i < n; ++i) {
      if (rng.Chance(0.5)) ids.push_back(i);
    }
    if (ids.empty()) ids.push_back(static_cast<int>(rng.Below(n)));
    for (std::size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.Below(i)]);
    }
    ExpectFamiliesMatchGeneric(index, ids,
                               "random sort " + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedFormPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ClosedFormTest, DepMissingColumnIsTriviallyOne) {
  std::vector<schema::Signature> sigs = {{{0}, 5}, {{0, 1}, 5}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  // Restricting to the {a}-only signature removes column b entirely.
  const SigmaCounts counts = ClosedFormEvaluator::Dep(&index, "a", "b")
                                 ->Counts({0});
  EXPECT_EQ(static_cast<long long>(counts.total), 0);
  EXPECT_DOUBLE_EQ(counts.Value(), 1.0);
  ExpectSameCounts(counts,
                   GenericEvaluator(rules::DepRule("a", "b"), &index)
                       .Counts({0}),
                   "missing column");
  // Unknown property names behave the same way.
  const SigmaCounts unknown = ClosedFormEvaluator::Dep(&index, "a", "zzz")
                                  ->CountsAll();
  EXPECT_EQ(static_cast<long long>(unknown.total), 0);
  ExpectSameCounts(unknown,
                   GenericEvaluator(rules::DepRule("a", "zzz"), &index)
                       .CountsAll(),
                   "unknown column");
}

TEST(ClosedFormTest, SymDepPaperExample) {
  // sigma_SymDep[deathPlace, deathDate] = |both| / |either|.
  std::vector<schema::Signature> sigs = {
      {{0, 1}, 39},  // both
      {{0}, 20},     // place only
      {{1}, 41},     // date only
      {{0, 1, 2}, 0 + 1},  // both + extra (keeps p2 used)
  };
  const schema::SignatureIndex index = schema::SignatureIndex::FromSignatures(
      {"deathPlace", "deathDate", "x"}, sigs);
  const SigmaCounts counts =
      ClosedFormEvaluator::SymDep(&index, "deathPlace", "deathDate")
          ->CountsAll();
  EXPECT_EQ(static_cast<long long>(counts.favorable), 40);
  EXPECT_EQ(static_cast<long long>(counts.total), 101);
  EXPECT_NEAR(counts.Value(), 0.396, 0.001);
}

TEST(ClosedFormTest, EvaluatorDispatchesClosedForms) {
  gen::RandomIndexSpec spec;
  spec.seed = 5;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  // The factory must route every builtin family to its closed form, not fall
  // back to the enumerator, recovering CovIgnoring's properties from the rule
  // AST: a property IRI containing a comma must survive the round trip (the
  // display name's comma-joined list would mis-split it).
  const std::vector<rules::Rule> builtins = {
      rules::CovRule(),
      rules::SimRule(),
      rules::CovRuleIgnoring({"p0", "p2"}),
      rules::CovRuleIgnoring({"p0,p1"}),
      rules::DepRule("p0", "p1"),
      rules::SymDepRule("p0", "p1"),
      rules::DepDisjunctiveRule("p0", "p1")};
  for (const rules::Rule& rule : builtins) {
    const auto evaluator = MakeEvaluator(rule, &index);
    EXPECT_NE(dynamic_cast<const ClosedFormEvaluator*>(evaluator.get()),
              nullptr)
        << rule.name();
    ExpectSameCounts(evaluator->CountsAll(),
                     GenericEvaluator(rule, &index).CountsAll(),
                     "factory " + rule.name());
  }
}

TEST(ClosedFormTest, DepFamiliesReadTheirPropertiesFromTheRule) {
  // Dep-family display names join p1 and p2 with a comma, so an IRI holding
  // a comma cannot be split back out of "Dep[p1,p2]": the factory reads the
  // pair from the rule's prop(c1) = p1 and prop(c2) = p2 atoms. Subject s1
  // has both properties, s2 only the first, s3 only the second.
  const std::string p = "http://x/a,b";
  const std::string q = "http://x/c";
  std::vector<schema::Signature> sigs = {{{0, 1}, 1}, {{0}, 1}, {{1}, 1}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({p, q}, sigs);
  struct Case {
    rules::Rule rule;
    long long favorable;
    long long total;
  };
  const std::vector<Case> cases = {{rules::DepRule(p, q), 1, 2},
                                   {rules::SymDepRule(p, q), 1, 3},
                                   {rules::DepDisjunctiveRule(p, q), 2, 3}};
  for (const Case& c : cases) {
    const auto evaluator = MakeEvaluator(c.rule, &index);
    EXPECT_NE(dynamic_cast<const ClosedFormEvaluator*>(evaluator.get()),
              nullptr)
        << c.rule.name();
    const SigmaCounts counts = evaluator->CountsAll();
    ExpectSameCounts(counts, GenericEvaluator(c.rule, &index).CountsAll(),
                     c.rule.name());
    EXPECT_EQ(static_cast<long long>(counts.favorable), c.favorable)
        << c.rule.name();
    EXPECT_EQ(static_cast<long long>(counts.total), c.total) << c.rule.name();
  }
  // Dep[p,p] names one property twice (Table 1's diagonal): the rule's
  // property constants dedup to one, yet both atoms name it.
  for (const std::string& prop : {p, q}) {
    const rules::Rule rule = rules::DepRule(prop, prop);
    const auto evaluator = MakeEvaluator(rule, &index);
    EXPECT_NE(dynamic_cast<const ClosedFormEvaluator*>(evaluator.get()),
              nullptr)
        << rule.name();
    const SigmaCounts counts = evaluator->CountsAll();
    ExpectSameCounts(counts, GenericEvaluator(rule, &index).CountsAll(),
                     rule.name());
    EXPECT_EQ(static_cast<long long>(counts.total), 2) << rule.name();
    EXPECT_DOUBLE_EQ(counts.Value(), 1.0) << rule.name();
  }
}

TEST(ClosedFormTest, FactoryFallsBackToGenericForAdHocRules) {
  gen::RandomIndexSpec spec;
  spec.seed = 6;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto parsed =
      rules::ParseRule("val(c1) = 1 && subj(c1) = subj(c2) -> val(c2) = 1");
  ASSERT_TRUE(parsed.ok());
  auto evaluator = MakeEvaluator(*parsed, &index);
  EXPECT_NE(dynamic_cast<const GenericEvaluator*>(evaluator.get()), nullptr);
  // Generic evaluator must agree with direct enumeration.
  ExpectSameCounts(evaluator->CountsAll(),
                   EvaluateRuleOnIndex(*parsed, index), "generic");
}

TEST(ClosedFormTest, EvaluatorSigmaAllHelpers) {
  std::vector<schema::Signature> sigs = {{{0}, 1}, {{0, 1}, 1}};
  const schema::SignatureIndex index =
      schema::SignatureIndex::FromSignatures({"a", "b"}, sigs);
  auto cov = ClosedFormEvaluator::Cov(&index);
  EXPECT_NEAR(cov->SigmaAll(), 0.75, 1e-12);  // 3 ones / 4 cells
  EXPECT_NEAR(cov->Sigma({0}), 1.0, 1e-12);   // {a}-only sort is complete
}

}  // namespace
}  // namespace rdfsr::eval
