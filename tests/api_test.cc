// Tests for the public façade (api/rdfsr.h): the full quickstart pipeline —
// load → slice → sigma → highest-theta → report — driven through the façade
// only, plus the error paths the façade is responsible for surfacing.
//
// Deliberately includes nothing but api/rdfsr.h: this test is the compile-time
// proof that the umbrella header is self-sufficient for applications.

#include "api/rdfsr.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "gtest/gtest.h"

namespace rdfsr::api {
namespace {

// The quickstart dataset: four Persons; alice and carol carry
// name/email/birthDate, bob and dave only name. Two signatures.
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

Dataset LoadQuickstart() {
  auto dataset =
      Dataset::FromNTriplesText(kQuickstart, {.sort = "http://x/Person"});
  EXPECT_TRUE(dataset.ok()) << dataset.status().ToString();
  return *std::move(dataset);
}

TEST(DatasetTest, LoadsAndSlicesTheQuickstartSort) {
  const Dataset people = LoadQuickstart();
  EXPECT_EQ(people.num_triples(), 8u);  // type triples excluded from D_t
  EXPECT_EQ(people.num_subjects(), 4);
  EXPECT_EQ(people.num_properties(), 3u);
  EXPECT_EQ(people.num_signatures(), 2u);
  EXPECT_EQ(people.sort(), "http://x/Person");
  EXPECT_NE(people.Describe().find("4 subjects"), std::string::npos);
  EXPECT_FALSE(people.RenderView().empty());
}

TEST(DatasetTest, WholeGraphKeepsTypeColumnAndListsSorts) {
  auto whole = Dataset::FromNTriplesText(kQuickstart);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(whole->num_triples(), 12u);
  EXPECT_EQ(whole->num_properties(), 4u);  // + rdf:type column
  const auto sorts = whole->SortIris();
  ASSERT_EQ(sorts.size(), 1u);
  EXPECT_EQ(sorts.front(), "http://x/Person");

  auto sliced = whole->Slice("http://x/Person");
  ASSERT_TRUE(sliced.ok());
  EXPECT_EQ(sliced->num_subjects(), 4);
  EXPECT_EQ(sliced->num_properties(), 3u);
}

TEST(DatasetTest, SignatureOfNamedSubjects) {
  const Dataset people = LoadQuickstart();
  const int alice = people.SignatureOf("http://x/alice");
  const int carol = people.SignatureOf("http://x/carol");
  const int bob = people.SignatureOf("http://x/bob");
  ASSERT_GE(alice, 0);
  EXPECT_EQ(alice, carol);  // identical property sets
  EXPECT_NE(alice, bob);
  EXPECT_EQ(people.SignatureOf("http://x/nobody"), -1);
}

TEST(DatasetTest, CopiesShareState) {
  const Dataset people = LoadQuickstart();
  const Dataset copy = people;  // NOLINT(performance-unnecessary-copy-...)
  EXPECT_EQ(&people.index(), &copy.index());
}

TEST(AnalysisTest, QuickstartSigmaAndHighestTheta) {
  const Dataset people = LoadQuickstart();
  auto cov = people.Analyze("cov");
  ASSERT_TRUE(cov.ok());
  // 8 one-cells in a 4 x 3 view.
  EXPECT_NEAR(cov->Sigma(), 2.0 / 3.0, 1e-12);
  auto sim = people.Analyze("sim");
  ASSERT_TRUE(sim.ok());
  EXPECT_NEAR(sim->Sigma(), 2.0 / 3.0, 1e-12);

  // Splitting the two signatures yields two perfectly covered sorts.
  auto best = cov->HighestTheta(2);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->theta, Rational(1));
  ASSERT_EQ(best->num_sorts(), 2u);

  // The sorts partition the signature ids exactly.
  std::set<int> seen;
  for (const auto& sort : best->sorts) {
    for (int sig : sort) EXPECT_TRUE(seen.insert(sig).second);
  }
  EXPECT_EQ(seen.size(), people.num_signatures());

  // Per-sort sigma through the façade agrees with the threshold.
  for (const auto& sort : best->sorts) {
    EXPECT_NEAR(cov->Sigma(sort), 1.0, 1e-12);
  }

  EXPECT_NE(cov->Summary(*best).find("2 sorts"), std::string::npos);
  EXPECT_FALSE(cov->Render(*best).empty());
  EXPECT_NE(cov->Report(*best).find("implicit sort"), std::string::npos);
}

TEST(AnalysisTest, LowestKOnQuickstart) {
  const Dataset people = LoadQuickstart();
  auto cov = people.Analyze("cov");
  ASSERT_TRUE(cov.ok());
  auto result = cov->LowestK(1.0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_sorts(), 2u);
  EXPECT_EQ(result->theta, Rational(1));
}

TEST(AnalysisTest, CustomRuleTextAndFluentOptions) {
  const Dataset people = LoadQuickstart();
  auto custom = people.Analyze(
      "subj(c1) = subj(c2) && prop(c1) = <http://x/email> && "
      "prop(c2) = <http://x/birthDate> && val(c1) = 1 -> val(c2) = 1");
  ASSERT_TRUE(custom.ok()) << custom.status().ToString();
  // Both email-holders also hold birthDate.
  EXPECT_NEAR(custom->Sigma(), 1.0, 1e-12);

  custom->TimeLimit(5.0).MaxNodes(10000).ThetaStep(0.05).GreedyRestarts(2);
  EXPECT_EQ(custom->options().mip.time_limit_seconds, 5.0);
  EXPECT_EQ(custom->options().mip.max_nodes, 10000);
  EXPECT_EQ(custom->options().theta_step, 0.05);
  EXPECT_EQ(custom->options().greedy.restarts, 2);
  auto best = custom->HighestTheta(2);
  ASSERT_TRUE(best.ok());
}

TEST(AnalysisTest, OutlivesTheDatasetThatCreatedIt) {
  // The Analysis must keep the underlying index alive on its own — the raw
  // borrowed-pointer chains of the internal layers must not leak through.
  std::unique_ptr<Analysis> analysis;
  {
    const Dataset people = LoadQuickstart();
    auto cov = people.Analyze("cov");
    ASSERT_TRUE(cov.ok());
    analysis = std::make_unique<Analysis>(std::move(*cov));
  }  // Dataset destroyed here
  EXPECT_NEAR(analysis->Sigma(), 2.0 / 3.0, 1e-12);
  auto best = analysis->HighestTheta(2);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->theta, Rational(1));
}

TEST(ErrorPathTest, BadNTriplesReportsParseError) {
  auto dataset = Dataset::FromNTriplesText("<http://x/a> nonsense\n");
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kParseError);
}

TEST(ErrorPathTest, MissingFileFails) {
  auto dataset = Dataset::FromNTriplesFile("/nonexistent/quickstart.nt");
  EXPECT_FALSE(dataset.ok());
}

TEST(ErrorPathTest, NotARegularFileIsInvalidArgument) {
  // Decided from the stat, before anything opens the path: opening a FIFO
  // with no writer would block, and a FIFO or a device reads as empty.
  const std::string fifo = ::testing::TempDir() + "api_not_regular.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {fifo, std::string("/dev/null"),
                                  ::testing::TempDir()}) {
    SCOPED_TRACE(path);
    auto dataset = Dataset::FromNTriplesFile(path);
    ASSERT_FALSE(dataset.ok());
    EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(dataset.status().message().find(path), std::string::npos)
        << dataset.status().ToString();
  }
  std::remove(fifo.c_str());
}

TEST(ErrorPathTest, UnknownSortIriIsNotFound) {
  auto dataset =
      Dataset::FromNTriplesText(kQuickstart, {.sort = "http://x/Robot"});
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kNotFound);

  auto whole = Dataset::FromNTriplesText(kQuickstart);
  ASSERT_TRUE(whole.ok());
  auto slice = whole->Slice("http://x/Robot");
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), StatusCode::kNotFound);
}

TEST(ErrorPathTest, SliceWithoutRetainedGraphFails) {
  auto no_graph = Dataset::FromNTriplesText(
      kQuickstart, {.sort = "http://x/Person", .keep_graph = false});
  ASSERT_TRUE(no_graph.ok());
  EXPECT_TRUE(no_graph->SortIris().empty());
  auto slice = no_graph->Slice("http://x/Person");
  ASSERT_FALSE(slice.ok());
  EXPECT_EQ(slice.status().code(), StatusCode::kInvalidArgument);
}

TEST(ErrorPathTest, MalformedCustomRuleIsParseError) {
  const Dataset people = LoadQuickstart();
  auto analysis = people.Analyze("val(c");
  ASSERT_FALSE(analysis.ok());
  EXPECT_EQ(analysis.status().code(), StatusCode::kParseError);
}

TEST(ErrorPathTest, BadBuiltinSpecsAreInvalid) {
  const Dataset people = LoadQuickstart();
  EXPECT_FALSE(people.Analyze("").ok());
  EXPECT_FALSE(people.Analyze("dep:onlyone").ok());
  EXPECT_FALSE(people.Analyze("cov-ignoring:").ok());
}

TEST(ErrorPathTest, BadSearchParametersAreInvalid) {
  const Dataset people = LoadQuickstart();
  auto cov = people.Analyze("cov");
  ASSERT_TRUE(cov.ok());
  auto bad_k = cov->HighestTheta(0);
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);
  for (const double theta : {1.5, std::nan("")}) {
    auto bad_theta = cov->LowestK(theta);
    ASSERT_FALSE(bad_theta.ok()) << theta;
    EXPECT_EQ(bad_theta.status().code(), StatusCode::kInvalidArgument)
        << theta;
  }
}

TEST(RuleSpecTest, ResolvesBuiltinFamilies) {
  for (const char* spec :
       {"cov", "sim", "cov-ignoring:p1,p2", "dep:p1,p2", "symdep:p1,p2",
        "depdisj:p1,p2", "c = c -> val(c) = 1"}) {
    EXPECT_TRUE(ResolveRuleSpec(spec).ok()) << spec;
  }
  EXPECT_FALSE(ResolveRuleSpec("symdep:a,b,c").ok());
}

}  // namespace
}  // namespace rdfsr::api
