#include "core/refinement.h"

#include <algorithm>

#include "util/check.h"

namespace rdfsr::core {

std::int64_t SortRefinement::SubjectsIn(const schema::SignatureIndex& index,
                                        int i) const {
  RDFSR_CHECK_GE(i, 0);
  RDFSR_CHECK_LT(static_cast<std::size_t>(i), sorts.size());
  std::int64_t total = 0;
  for (int sig : sorts[i]) total += index.signature(sig).count;
  return total;
}

std::string SortRefinement::Summary(const schema::SignatureIndex& index) const {
  std::string out = "{";
  out += std::to_string(sorts.size());
  out += " sorts: ";
  for (std::size_t i = 0; i < sorts.size(); ++i) {
    if (i > 0) out += "+";
    out += std::to_string(sorts[i].size());
  }
  out += " signatures, ";
  for (std::size_t i = 0; i < sorts.size(); ++i) {
    if (i > 0) out += "+";
    out += std::to_string(SubjectsIn(index, static_cast<int>(i)));
  }
  out += " subjects}";
  return out;
}

bool SigmaAtLeast(const eval::SigmaCounts& counts, Rational theta) {
  // sigma = favorable / total >= theta1 / theta2
  //   <=>  theta2 * favorable >= theta1 * total   (total, theta2 > 0).
  if (counts.total == 0) return true;  // sigma defined as 1
  return static_cast<eval::BigCount>(theta.den()) * counts.favorable >=
         static_cast<eval::BigCount>(theta.num()) * counts.total;
}

Status ValidatePartition(const schema::SignatureIndex& index,
                         const SortRefinement& refinement) {
  std::vector<int> seen(index.num_signatures(), 0);
  if (refinement.sorts.empty()) {
    return Status::InvalidArgument("refinement has no sorts");
  }
  for (std::size_t i = 0; i < refinement.sorts.size(); ++i) {
    if (refinement.sorts[i].empty()) {
      return Status::InvalidArgument("sort " + std::to_string(i) +
                                     " is empty");
    }
    for (int sig : refinement.sorts[i]) {
      if (sig < 0 || static_cast<std::size_t>(sig) >= index.num_signatures()) {
        return Status::InvalidArgument("sort " + std::to_string(i) +
                                       " references unknown signature " +
                                       std::to_string(sig));
      }
      if (++seen[sig] > 1) {
        return Status::InvalidArgument(
            "signature " + std::to_string(sig) +
            " appears in more than one sort (not a partition)");
      }
    }
  }
  for (std::size_t sig = 0; sig < seen.size(); ++sig) {
    if (seen[sig] == 0) {
      return Status::InvalidArgument("signature " + std::to_string(sig) +
                                     " is not covered by any sort");
    }
  }
  return Status::OK();
}

std::vector<eval::SigmaCounts> SortCounts(const eval::Evaluator& evaluator,
                                          const SortRefinement& refinement) {
  std::vector<eval::SigmaCounts> counts;
  counts.reserve(refinement.sorts.size());
  for (const std::vector<int>& sort : refinement.sorts) {
    counts.push_back(evaluator.Counts(sort));
  }
  return counts;
}

Status ValidateSortCounts(const std::vector<eval::SigmaCounts>& counts,
                          Rational theta) {
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (!SigmaAtLeast(counts[i], theta)) {
      return Status::InvalidArgument(
          "sort " + std::to_string(i) + " has sigma " +
          std::to_string(counts[i].Value()) + " < theta " + theta.ToString());
    }
  }
  return Status::OK();
}

Status ValidateRefinement(const eval::Evaluator& evaluator,
                          const SortRefinement& refinement, Rational theta) {
  Status structure = ValidatePartition(evaluator.index(), refinement);
  if (!structure.ok()) return structure;
  return ValidateSortCounts(SortCounts(evaluator, refinement), theta);
}

double MinSigma(const eval::Evaluator& evaluator,
                const SortRefinement& refinement) {
  double min_sigma = 1.0;
  for (const std::vector<int>& sort : refinement.sorts) {
    if (sort.empty()) continue;
    min_sigma = std::min(min_sigma, evaluator.Sigma(sort));
  }
  return min_sigma;
}

}  // namespace rdfsr::core
