#include "gen/mixed.h"

#include <vector>

#include "rdf/dictionary.h"
#include "schema/index_builder.h"
#include "util/check.h"
#include "util/rng.h"

namespace rdfsr::gen {

namespace {

// Column layout. Plumbing first (shared by both sorts, noisy), then the
// drug-company group, then the sultan group.
const char* const kProperties[] = {
    // plumbing (0-3)
    "type", "label", "sameAs", "subClassOf",
    // drug companies (4-9)
    "hasProduct", "industry", "foundedIn", "hasWebsite", "locatedIn",
    "hasRevenue",
    // sultans (10-15)
    "bornIn", "diedIn", "reignStart", "reignEnd", "dynasty", "spouse",
};
constexpr int kNumProperties = 16;

// Presence probabilities per population. Sultans come in two flavours — the
// well-documented and the obscure — which is what makes plain Cov confuse
// documented sultans with drug companies (both are "dense" subjects), while
// the plumbing-blind rule separates along the population-specific property
// groups. This mirrors the Section 7.4 confusion pattern: no drug company is
// ever classified as a sultan (recall 100%), but a batch of sultans lands in
// the drug-company sort.
//                               ty    lb    sA    sC
constexpr double kDrugPlumb[] = {1.0, 1.00, 0.85, 0.90};
constexpr double kSultDocPlumb[] = {1.0, 0.95, 0.60, 0.90};
constexpr double kSultObsPlumb[] = {1.0, 0.80, 0.00, 0.90};
//                             hP    in    fI    hW    lI    hR
constexpr double kDrugOwn[] = {0.80, 0.90, 0.60, 0.60, 0.80, 0.40};
//                                bI    dI    rS    rE    dy    sp
constexpr double kSultDocOwn[] = {0.70, 0.65, 0.80, 0.75, 0.80, 0.40};
// Obscure sultans carry almost no content beyond the plumbing — at most a
// dynasty. Their property sets are therefore (nearly) subsets of the drug
// companies' columns, which is exactly what makes the plain-Cov optimum
// group them WITH the drug companies (the paper's 17 misclassified sultans),
// while the plumbing-blind rule keys on dynasty and keeps them with the
// documented sultans.
constexpr double kSultObsOwn[] = {0.00, 0.00, 0.00, 0.00, 0.50, 0.00};
// Fraction of sultans that are obscure (17 of 40, the paper's error count).
constexpr double kObscureSultans = 0.425;

}  // namespace

MixedDataset GenerateMixed(const MixedConfig& config) {
  RDFSR_CHECK_GT(config.num_drug_companies, 0);
  RDFSR_CHECK_GT(config.num_sultans, 0);
  Rng rng(config.seed);

  std::vector<std::vector<int>> rows;
  std::vector<std::string> subject_names;
  std::vector<bool> is_drug;

  auto sample = [&](bool drug, bool obscure, int id) {
    std::vector<int> row(kNumProperties, 0);
    const double* plumb =
        drug ? kDrugPlumb : (obscure ? kSultObsPlumb : kSultDocPlumb);
    for (int p = 0; p < 4; ++p) row[p] = rng.Chance(plumb[p]) ? 1 : 0;
    if (drug) {
      for (int p = 0; p < 6; ++p) row[4 + p] = rng.Chance(kDrugOwn[p]) ? 1 : 0;
    } else {
      const double* own = obscure ? kSultObsOwn : kSultDocOwn;
      for (int p = 0; p < 6; ++p) row[10 + p] = rng.Chance(own[p]) ? 1 : 0;
    }
    // Everyone has type; guarantee non-empty rows regardless.
    row[0] = 1;
    rows.push_back(std::move(row));
    subject_names.push_back((drug ? std::string("drug") : std::string("sultan")) +
                            std::to_string(id));
    is_drug.push_back(drug);
  };

  for (int i = 0; i < config.num_drug_companies; ++i) sample(true, false, i);
  for (int i = 0; i < config.num_sultans; ++i) {
    const bool obscure =
        i < static_cast<int>(config.num_sultans * kObscureSultans);
    sample(false, obscure, i);
  }

  // Every property must be used by someone; patch rare misses into the first
  // subject of the owning population.
  for (int p = 0; p < kNumProperties; ++p) {
    bool used = false;
    for (const auto& row : rows) used = used || row[p] == 1;
    if (!used) {
      const bool drug_prop = p >= 4 && p <= 9;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (is_drug[r] == drug_prop || p < 4) {
          rows[r][p] = 1;
          break;
        }
      }
    }
  }

  // Add the 1-cells column by column. Every subject has `type` (column 0),
  // so subjects first appear in row order and properties in column order —
  // the orders IndexBuilder gives the index's rows and columns.
  rdf::Dictionary dict;
  std::vector<rdf::TermId> subject_ids;
  for (const std::string& name : subject_names) {
    subject_ids.push_back(dict.InternIri(name));
  }
  schema::IndexBuilder builder;
  for (int p = 0; p < kNumProperties; ++p) {
    const rdf::TermId property = dict.InternIri(kProperties[p]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r][p] == 1) builder.Add(subject_ids[r], property);
    }
  }

  MixedDataset dataset;
  dataset.index = builder.Build(dict, /*keep_subject_names=*/true);
  dataset.subject_names = std::move(subject_names);
  dataset.is_drug_company = std::move(is_drug);
  dataset.plumbing_properties = {"type", "label", "sameAs", "subClassOf"};
  return dataset;
}

}  // namespace rdfsr::gen
