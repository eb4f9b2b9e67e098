#include "gen/persons.h"

#include <map>
#include <vector>

#include "rdf/vocab.h"
#include "util/check.h"
#include "util/rng.h"

namespace rdfsr::gen {

const char* const kPersonsProperties[8] = {
    "deathPlace", "birthPlace", "description", "name",
    "deathDate",  "birthDate",  "givenName",   "surName",
};

namespace {

// Joint distribution of (deathPlace, deathDate, birthPlace, birthDate),
// fitted offline with iterative proportional fitting to the paper's reported
// statistics: the four marginals (90,246 / 173,507 / 323,368 / 420,242 of
// 790,703 subjects), the birthPlace ∧ birthDate joint (241,156), and the six
// pairwise conditionals of Table 1. The resulting maximum-entropy joint
// reproduces EVERY cell of Table 1 to two decimals and
// sigma_SymDep[deathPlace, deathDate] = 0.39. Bit order in the index:
// (dP << 3) | (dD << 2) | (bP << 1) | bD.
constexpr double kDeathBirthJoint[16] = {
    0.348839, 0.131642, 0.081067, 0.198473,  // dP=0 dD=0
    0.011900, 0.090667, 0.000461, 0.022804,  // dP=0 dD=1
    0.000788, 0.000053, 0.013690, 0.006016,  // dP=1 dD=0
    0.003020, 0.004130, 0.008757, 0.077694,  // dP=1 dD=1
};

// Names and description (independent of the date/place block).
constexpr double kPGivenSurName = 0.95;  // ~40k of 790k missing surName;
                                         // Table 2: SymDep[gN,sN] = 1.0
constexpr double kPDescription = 0.15;   // calibrated so sigma_Cov = 0.54

/// One sampled subject: which of the 8 properties it has.
struct PersonBits {
  bool death_place, birth_place, description, death_date, birth_date;
  bool given_sur;
};

PersonBits SampleBits(Rng* rng) {
  PersonBits bits{};
  bits.given_sur = rng->Chance(kPGivenSurName);
  bits.description = rng->Chance(kPDescription);
  // Categorical draw from the fitted joint.
  double u = rng->NextDouble();
  int cell = 15;
  for (int i = 0; i < 16; ++i) {
    u -= kDeathBirthJoint[i];
    if (u < 0) {
      cell = i;
      break;
    }
  }
  bits.death_place = (cell & 8) != 0;
  bits.death_date = (cell & 4) != 0;
  bits.birth_place = (cell & 2) != 0;
  bits.birth_date = (cell & 1) != 0;
  return bits;
}

std::vector<int> SupportOf(const PersonBits& bits) {
  // Column order: dP=0, bP=1, desc=2, name=3, dD=4, bD=5, gN=6, sN=7.
  std::vector<int> support;
  if (bits.death_place) support.push_back(0);
  if (bits.birth_place) support.push_back(1);
  if (bits.description) support.push_back(2);
  support.push_back(3);  // name: everyone
  if (bits.death_date) support.push_back(4);
  if (bits.birth_date) support.push_back(5);
  if (bits.given_sur) {
    support.push_back(6);
    support.push_back(7);
  }
  return support;
}

}  // namespace

schema::SignatureIndex GeneratePersons(const PersonsConfig& config) {
  RDFSR_CHECK_GT(config.num_subjects, 0);
  Rng rng(config.seed);
  std::map<std::vector<int>, std::int64_t> histogram;
  for (std::int64_t i = 0; i < config.num_subjects; ++i) {
    ++histogram[SupportOf(SampleBits(&rng))];
  }
  // At tiny scales a rare property (deathPlace) may not be sampled at all; a
  // valid dataset view has no unused columns, so pad with one full-support
  // subject when needed.
  std::vector<bool> used(8, false);
  for (const auto& [support, count] : histogram) {
    (void)count;
    for (int p : support) used[p] = true;
  }
  if (std::find(used.begin(), used.end(), false) != used.end()) {
    ++histogram[{0, 1, 2, 3, 4, 5, 6, 7}];
  }
  std::vector<std::string> names(kPersonsProperties, kPersonsProperties + 8);
  std::vector<schema::Signature> signatures;
  for (const auto& [support, count] : histogram) {
    signatures.emplace_back(support, count);
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(signatures));
}

rdf::Graph GeneratePersonsGraph(const PersonsConfig& config) {
  RDFSR_CHECK_GT(config.num_subjects, 0);
  Rng rng(config.seed);
  rdf::Graph graph;
  const std::string base = "http://example.org/person/";
  const std::string prop_base = "http://example.org/prop/";
  for (std::int64_t i = 0; i < config.num_subjects; ++i) {
    const std::string subject = base + "p" + std::to_string(i);
    graph.AddIri(subject, rdf::vocab::kRdfType, rdf::vocab::kFoafPerson);
    for (int p : SupportOf(SampleBits(&rng))) {
      const std::string prop = prop_base + kPersonsProperties[p];
      std::string value = "v";
      value += std::to_string(i) + "_" + std::to_string(p);
      graph.AddLiteral(subject, prop, value);
    }
  }
  return graph;
}

}  // namespace rdfsr::gen
