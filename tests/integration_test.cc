// End-to-end pipeline tests: N-Triples text -> graph -> sort-slice signature
// index -> structuredness -> sort refinement, mirroring how a downstream user
// consumes the library (and how the examples do).

#include <gtest/gtest.h>

#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "schema/index_builder.h"
#include "schema/signature_index.h"

namespace rdfsr {
namespace {

const char* kTinyDataset = R"(
<http://x/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/alice> <http://x/name> "Alice" .
<http://x/alice> <http://x/email> "a@x" .
<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/bob> <http://x/name> "Bob" .
<http://x/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/carol> <http://x/name> "Carol" .
<http://x/carol> <http://x/email> "c@x" .
<http://x/acme> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Company> .
<http://x/acme> <http://x/name> "Acme" .
)";

TEST(IntegrationTest, TextToRefinement) {
  auto graph = rdf::ParseNTriples(kTinyDataset);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  const schema::SignatureIndex index =
      schema::IndexBuilder::FromSortSlice(*graph, "http://x/Person");
  EXPECT_EQ(index.total_subjects(), 3);
  EXPECT_EQ(index.num_signatures(), 2u);  // {name,email} x2, {name} x1

  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  // ones = 3 + 2 = 5; cells = 3 * 2.
  EXPECT_NEAR(cov->SigmaAll(), 5.0 / 6, 1e-12);

  core::RefinementSolver solver(cov.get());
  const core::HighestThetaResult best = solver.FindHighestTheta(2);
  EXPECT_EQ(best.theta, Rational(1));
  EXPECT_EQ(best.refinement.num_sorts(), 2u);
}

TEST(IntegrationTest, UserDefinedRuleThroughParser) {
  auto graph = rdf::ParseNTriples(kTinyDataset);
  ASSERT_TRUE(graph.ok());
  const schema::SignatureIndex index =
      schema::IndexBuilder::FromSortSlice(*graph, "http://x/Person");

  // "If a subject has email it also has name" as a Dep rule via the text
  // syntax, using full IRIs.
  auto rule = rules::ParseRule(
      "subj(c1) = subj(c2) && prop(c1) = <http://x/email> && "
      "prop(c2) = <http://x/name> && val(c1) = 1 -> val(c2) = 1");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto evaluator = eval::MakeEvaluator(*rule, &index);
  EXPECT_DOUBLE_EQ(evaluator->SigmaAll(), 1.0);
}

TEST(IntegrationTest, PersonsPipelineAtSmallScale) {
  gen::PersonsConfig config;
  config.num_subjects = 400;
  config.seed = 2024;
  const rdf::Graph graph = gen::GeneratePersonsGraph(config);
  const schema::SignatureIndex index = schema::IndexBuilder::FromSortSlice(
      graph, rdf::vocab::kFoafPerson, /*keep_subject_names=*/false);

  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  const double sigma = cov->SigmaAll();
  EXPECT_GT(sigma, 0.40);
  EXPECT_LT(sigma, 0.70);

  // A k=2 Cov refinement must improve the minimum sigma over the baseline.
  core::SolverOptions options;
  options.mip.time_limit_seconds = 20;
  core::RefinementSolver solver(cov.get(), options);
  const core::HighestThetaResult best = solver.FindHighestTheta(2);
  EXPECT_GE(best.theta.ToDouble(), sigma);
  EXPECT_TRUE(
      core::ValidateRefinement(*cov, best.refinement, best.theta).ok());
}

TEST(IntegrationTest, RoundTripThroughNTriplesPreservesSigma) {
  gen::PersonsConfig config;
  config.num_subjects = 150;
  const rdf::Graph graph = gen::GeneratePersonsGraph(config);
  const std::string text = rdf::WriteNTriples(graph);
  auto reparsed = rdf::ParseNTriples(text);
  ASSERT_TRUE(reparsed.ok());

  auto index_of = [](const rdf::Graph& g) {
    return schema::IndexBuilder::FromSortSlice(
        g, rdf::vocab::kFoafPerson, /*keep_subject_names=*/false);
  };
  const schema::SignatureIndex a = index_of(graph);
  const schema::SignatureIndex b = index_of(*reparsed);
  auto cov_a = eval::MakeEvaluator(rules::CovRule(), &a);
  auto cov_b = eval::MakeEvaluator(rules::CovRule(), &b);
  EXPECT_DOUBLE_EQ(cov_a->SigmaAll(), cov_b->SigmaAll());
}

}  // namespace
}  // namespace rdfsr
