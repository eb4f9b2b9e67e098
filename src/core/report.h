// Human-readable schema reports for sort refinements.
//
// Section 7.1.1 interprets discovered implicit sorts by their property
// profiles ("the left sort has no deathDate or deathPlace: it represents the
// sort for people that are alive!"). This module automates that reading: for
// each implicit sort it derives the universal, common, and absent properties
// and the properties that discriminate it from the rest of the dataset.

#ifndef RDFSR_CORE_REPORT_H_
#define RDFSR_CORE_REPORT_H_

#include <string>
#include <vector>

#include "core/refinement.h"
#include "eval/evaluator.h"
#include "schema/signature_index.h"

namespace rdfsr::core {

/// Profile of one implicit sort.
struct SortProfile {
  std::int64_t subjects = 0;
  std::size_t signatures = 0;
  double sigma_cov = 0.0;
  double sigma_sim = 0.0;
  /// Properties every member subject has.
  std::vector<std::string> universal_properties;
  /// Properties at least half the member subjects have (excluding universal).
  std::vector<std::string> common_properties;
  /// Dataset properties no member subject has (the sort's view lacks these
  /// columns entirely — e.g. deathDate/deathPlace for the "alive" sort).
  std::vector<std::string> absent_properties;
  /// Properties whose coverage in this sort differs most from their coverage
  /// in the remainder of the dataset, with the signed difference.
  std::vector<std::pair<std::string, double>> discriminating_properties;
};

/// Computes the profile of every sort of a refinement. Each sort's signature
/// ids must be distinct and in range (RDFSR_CHECK).
std::vector<SortProfile> ProfileRefinement(const schema::SignatureIndex& index,
                                           const SortRefinement& refinement);

/// Renders the profiles as a compact multi-line report.
std::string RenderReport(const schema::SignatureIndex& index,
                         const SortRefinement& refinement);

}  // namespace rdfsr::core

#endif  // RDFSR_CORE_REPORT_H_
