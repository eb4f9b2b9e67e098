#include "gen/wordnet.h"

#include <algorithm>
#include <map>
#include <vector>

#include "rdf/vocab.h"
#include "util/check.h"
#include "util/rng.h"

namespace rdfsr::gen {

const char* const kWordnetProperties[12] = {
    "gloss",
    "label",
    "synsetId",
    "hyponymOf",
    "classifiedByTopic",
    "containsWordSense",
    "memberMeronymOf",
    "partMeronymOf",
    "substanceMeronymOf",
    "classifiedByUsage",
    "classifiedByRegion",
    "attribute",
};

namespace {

// Per-property presence probabilities. The first five dominant properties and
// the rare tail are calibrated so that sigma_Cov ≈ 0.44 (mean support 5.26 of
// 12) and sigma_Sim ≈ 0.93, matching Figure 3.
constexpr double kPresence[12] = {
    1.00,  // gloss
    1.00,  // label
    1.00,  // synsetId
    0.92,  // hyponymOf (root synsets have none)
    0.15,  // classifiedByTopic
    1.00,  // containsWordSense
    0.05,  // memberMeronymOf
    0.08,  // partMeronymOf
    0.02,  // substanceMeronymOf
    0.01,  // classifiedByUsage
    0.01,  // classifiedByRegion
    0.01,  // attribute
};

}  // namespace

namespace {

/// Samples one synset's property support (shared by both materializations).
std::vector<int> SampleSupport(Rng* rng) {
  std::vector<int> support;
  for (int p = 0; p < 12; ++p) {
    if (kPresence[p] >= 1.0 || rng->Chance(kPresence[p])) support.push_back(p);
  }
  return support;
}

}  // namespace

schema::SignatureIndex GenerateWordnet(const WordnetConfig& config) {
  RDFSR_CHECK_GT(config.num_subjects, 0);
  Rng rng(config.seed);
  std::map<std::vector<int>, std::int64_t> histogram;
  for (std::int64_t i = 0; i < config.num_subjects; ++i) {
    ++histogram[SampleSupport(&rng)];
  }
  std::vector<bool> used(12, false);
  for (const auto& [support, count] : histogram) {
    (void)count;
    for (int p : support) used[p] = true;
  }
  if (std::find(used.begin(), used.end(), false) != used.end()) {
    ++histogram[{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}];
  }

  std::vector<std::string> names(kWordnetProperties, kWordnetProperties + 12);
  std::vector<schema::Signature> signatures;
  for (const auto& [support, count] : histogram) {
    signatures.emplace_back(support, count);
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(signatures));
}

rdf::Graph GenerateWordnetGraph(const WordnetConfig& config) {
  RDFSR_CHECK_GT(config.num_subjects, 0);
  Rng rng(config.seed);
  rdf::Graph graph;
  const std::string base = "http://example.org/wn/synset-";
  const std::string prop_base = "http://example.org/wn/";
  for (std::int64_t i = 0; i < config.num_subjects; ++i) {
    const std::string subject = base + std::to_string(i) + "-noun";
    graph.AddIri(subject, rdf::vocab::kRdfType, rdf::vocab::kWnNounSynset);
    for (int p : SampleSupport(&rng)) {
      std::string value = "v";
      value += std::to_string(i) + "_" + std::to_string(p);
      graph.AddLiteral(subject, prop_base + kWordnetProperties[p], value);
    }
  }
  return graph;
}

}  // namespace rdfsr::gen
