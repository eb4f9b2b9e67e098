// Generator tests: determinism, calibration against the paper's reported
// statistics, and structural validity of every synthetic dataset.

#include <gtest/gtest.h>

#include "dense_matrix_oracle.h"
#include "eval/evaluator.h"
#include "gen/mixed.h"
#include "gen/persons.h"
#include "gen/random_graph.h"
#include "gen/wordnet.h"
#include "gen/yago.h"
#include "rdf/vocab.h"
#include "schema/index_builder.h"

namespace rdfsr::gen {
namespace {

using eval::ClosedFormEvaluator;

TEST(PersonsTest, MatchesPaperHeadlineNumbers) {
  const schema::SignatureIndex index = GeneratePersons();
  EXPECT_EQ(index.num_properties(), 8u);
  // Paper: 64 signatures at full scale; at 1/100 scale we tolerate a few
  // missing rare combinations.
  EXPECT_GE(index.num_signatures(), 48u);
  EXPECT_LE(index.num_signatures(), 64u);

  const double cov = ClosedFormEvaluator::Cov(&index)->SigmaAll();
  const double sim = ClosedFormEvaluator::Sim(&index)->SigmaAll();
  EXPECT_NEAR(cov, 0.54, 0.02);  // paper: 0.54
  EXPECT_NEAR(sim, 0.77, 0.02);  // paper: 0.77
}

TEST(PersonsTest, MarginalsMatchPaperCounts) {
  PersonsConfig config;
  config.num_subjects = 50000;  // tighter sampling error
  const schema::SignatureIndex index = GeneratePersons(config);
  const double n = static_cast<double>(index.total_subjects());
  auto frac = [&](const char* prop) {
    const int id = index.FindProperty(prop);
    EXPECT_GE(id, 0) << prop;
    return static_cast<double>(index.PropertyCount(id)) / n;
  };
  EXPECT_DOUBLE_EQ(frac("name"), 1.0);
  EXPECT_NEAR(frac("birthDate"), 420242.0 / 790703, 0.01);
  EXPECT_NEAR(frac("birthPlace"), 323368.0 / 790703, 0.01);
  EXPECT_NEAR(frac("deathDate"), 173507.0 / 790703, 0.01);
  EXPECT_NEAR(frac("deathPlace"), 90246.0 / 790703, 0.01);
  EXPECT_NEAR(frac("givenName"), 0.95, 0.01);
  EXPECT_NEAR(frac("surName"), 0.95, 0.01);
}

TEST(PersonsTest, SymDepOfDeathPairMatchesPaper) {
  PersonsConfig config;
  config.num_subjects = 50000;
  const schema::SignatureIndex index = GeneratePersons(config);
  const double symdep =
      ClosedFormEvaluator::SymDep(&index, "deathPlace", "deathDate")
          ->SigmaAll();
  EXPECT_NEAR(symdep, 0.39, 0.03);  // paper: 0.39
}

TEST(PersonsTest, GivenAndSurNameFullyCorrelated) {
  const schema::SignatureIndex index = GeneratePersons();
  const double symdep =
      ClosedFormEvaluator::SymDep(&index, "givenName", "surName")->SigmaAll();
  EXPECT_DOUBLE_EQ(symdep, 1.0);  // paper Table 2 top entry
}

TEST(PersonsTest, DeterministicBySeed) {
  const schema::SignatureIndex a = GeneratePersons();
  const schema::SignatureIndex b = GeneratePersons();
  ASSERT_EQ(a.num_signatures(), b.num_signatures());
  for (std::size_t i = 0; i < a.num_signatures(); ++i) {
    EXPECT_EQ(a.signature(i).count, b.signature(i).count);
    EXPECT_EQ(a.signature(i).support(), b.signature(i).support());
  }
}

TEST(PersonsTest, GraphMaterializationConsistent) {
  PersonsConfig config;
  config.num_subjects = 200;
  const rdf::Graph graph = GeneratePersonsGraph(config);
  const schema::SignatureIndex from_graph = schema::IndexBuilder::FromSortSlice(
      graph, rdf::vocab::kFoafPerson, /*keep_subject_names=*/false);
  EXPECT_EQ(from_graph.total_subjects(), 200);
  EXPECT_LE(from_graph.num_properties(), 8u);
}

TEST(WordnetTest, MatchesPaperHeadlineNumbers) {
  const schema::SignatureIndex index = GenerateWordnet();
  EXPECT_EQ(index.num_properties(), 12u);
  const double cov = ClosedFormEvaluator::Cov(&index)->SigmaAll();
  const double sim = ClosedFormEvaluator::Sim(&index)->SigmaAll();
  EXPECT_NEAR(cov, 0.44, 0.02);  // paper: 0.44
  EXPECT_NEAR(sim, 0.93, 0.02);  // paper: 0.93
  // Paper: 53 signatures; rare-combination sampling gives the same order.
  EXPECT_GE(index.num_signatures(), 25u);
  EXPECT_LE(index.num_signatures(), 80u);
}

TEST(WordnetTest, DominantPropertiesAreUniversal) {
  const schema::SignatureIndex index = GenerateWordnet();
  for (const char* prop :
       {"gloss", "label", "synsetId", "containsWordSense"}) {
    const int id = index.FindProperty(prop);
    ASSERT_GE(id, 0);
    EXPECT_EQ(index.PropertyCount(id), index.total_subjects()) << prop;
  }
}


TEST(WordnetTest, GraphMaterializationConsistent) {
  WordnetConfig config;
  config.num_subjects = 150;
  const rdf::Graph graph = GenerateWordnetGraph(config);
  const schema::SignatureIndex index = schema::IndexBuilder::FromSortSlice(
      graph, rdf::vocab::kWnNounSynset, /*keep_subject_names=*/false);
  EXPECT_EQ(index.total_subjects(), 150);
  // The dominant properties remain universal in the materialized graph.
  bool found_gloss = false;
  for (std::size_t p = 0; p < index.num_properties(); ++p) {
    if (index.property_name(p).find("gloss") != std::string::npos) {
      found_gloss = true;
      EXPECT_EQ(index.PropertyCount(p), 150);
    }
  }
  EXPECT_TRUE(found_gloss);
}

TEST(YagoTest, RespectsSpec) {
  YagoSortSpec spec;
  spec.num_properties = 12;
  spec.num_signatures = 20;
  spec.num_subjects = 1000;
  spec.seed = 3;
  const schema::SignatureIndex index = GenerateYagoSort(spec);
  EXPECT_EQ(index.num_signatures(), 20u);
  EXPECT_EQ(index.num_properties(), 12u);
  EXPECT_GE(index.total_subjects(), 1000 * 9 / 10);
  // All supports distinct (FromSignatures would not enforce this).
  std::set<std::vector<int>> seen;
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    EXPECT_TRUE(seen.insert(index.signature(i).support()).second);
  }
}

TEST(YagoTest, ScalesAcrossShapeSweep) {
  for (int sigs : {2, 8, 24}) {
    for (int props : {6, 12}) {
      YagoSortSpec spec;
      spec.num_signatures = sigs;
      spec.num_properties = props;
      spec.num_subjects = 500;
      spec.seed = static_cast<std::uint64_t>(sigs * 100 + props);
      const schema::SignatureIndex index = GenerateYagoSort(spec);
      EXPECT_EQ(index.num_signatures(), static_cast<std::size_t>(sigs));
      EXPECT_EQ(index.num_properties(), static_cast<std::size_t>(props));
    }
  }
}

TEST(MixedTest, GroundTruthShapes) {
  const MixedDataset dataset = GenerateMixed();
  EXPECT_EQ(dataset.subject_names.size(), 67u);  // 27 + 40
  EXPECT_EQ(dataset.is_drug_company.size(), 67u);
  EXPECT_EQ(dataset.index.total_subjects(), 67);
  int drugs = 0;
  for (bool b : dataset.is_drug_company) drugs += b;
  EXPECT_EQ(drugs, 27);
  // Subject names resolve to signatures.
  for (const std::string& name : dataset.subject_names) {
    EXPECT_GE(dataset.index.FindSubjectSignature(name), 0) << name;
  }
  // Plumbing properties exist in the index.
  for (const std::string& prop : dataset.plumbing_properties) {
    EXPECT_GE(dataset.index.FindProperty(prop), 0) << prop;
  }
}

TEST(MixedTest, PopulationsUseDisjointSpecificProperties) {
  const MixedDataset dataset = GenerateMixed();
  const int has_product = dataset.index.FindProperty("hasProduct");
  const int dynasty = dataset.index.FindProperty("dynasty");
  ASSERT_GE(has_product, 0);
  ASSERT_GE(dynasty, 0);
  for (std::size_t i = 0; i < dataset.subject_names.size(); ++i) {
    const int sig =
        dataset.index.FindSubjectSignature(dataset.subject_names[i]);
    ASSERT_GE(sig, 0);
    if (dataset.is_drug_company[i]) {
      EXPECT_FALSE(dataset.index.Has(sig, dynasty));
    } else {
      EXPECT_FALSE(dataset.index.Has(sig, has_product));
    }
  }
}

TEST(RandomGraphTest, MatrixHasNoEmptyRowsOrColumns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    oracle::RandomMatrixSpec spec;
    spec.num_subjects = 8;
    spec.num_properties = 5;
    spec.density = 0.2;  // stress the repair path
    spec.seed = seed;
    const oracle::DenseMatrix m = oracle::GenerateRandomMatrix(spec);
    for (std::size_t r = 0; r < m.num_subjects(); ++r) {
      int ones = 0;
      for (std::size_t c = 0; c < m.num_properties(); ++c) ones += m.At(r, c);
      EXPECT_GT(ones, 0) << "empty row, seed " << seed;
    }
    for (std::size_t c = 0; c < m.num_properties(); ++c) {
      int ones = 0;
      for (std::size_t r = 0; r < m.num_subjects(); ++r) ones += m.At(r, c);
      EXPECT_GT(ones, 0) << "empty column, seed " << seed;
    }
  }
}

TEST(RandomGraphTest, IndexMeetsSpec) {
  RandomIndexSpec spec;
  spec.num_signatures = 10;
  spec.num_properties = 6;
  spec.seed = 4;
  const schema::SignatureIndex index = GenerateRandomIndex(spec);
  EXPECT_EQ(index.num_signatures(), 10u);
  EXPECT_EQ(index.num_properties(), 6u);
}

}  // namespace
}  // namespace rdfsr::gen
