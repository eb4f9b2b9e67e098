// Test oracle: the seed's refinement heuristics (commit c2222b7), verbatim —
// greedy max-min sigma with local search, and threshold-stopped agglomerative
// merging. Every candidate evaluation re-derives the sort's counts from its
// member signatures through Evaluator::Sigma / Counts, a fresh SortStats fold
// per call with no state kept between calls, so it shares none of
// core/greedy.cc's incremental paths (Remove, MergeWith, the pairwise merged
// extraction, the cached per-slot sigmas).
// refine_regression_test checks that the engines reproduce it exactly on
// 256-signature indices (the one differential check of greedy at that size).
// The one intended difference: the engines break merge ties by exact
// CompareSigma where the seed compares `sigma > best + 1e-15` in double, so
// the two agree whenever no two candidate sigmas are distinct rationals
// within 1e-15 of each other, which holds at the tested shapes.

#ifndef RDFSR_TESTS_SEED_HEURISTICS_ORACLE_H_
#define RDFSR_TESTS_SEED_HEURISTICS_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "core/greedy.h"
#include "core/refinement.h"
#include "eval/evaluator.h"
#include "schema/property_set.h"
#include "util/rational.h"
#include "util/rng.h"

namespace rdfsr::oracle {

inline std::vector<double> Score(const eval::Evaluator& evaluator,
                                 const std::vector<std::vector<int>>& slots) {
  std::vector<double> sigmas;
  for (const std::vector<int>& slot : slots) {
    if (!slot.empty()) sigmas.push_back(evaluator.Sigma(slot));
  }
  std::sort(sigmas.begin(), sigmas.end());
  return sigmas;
}

inline core::SortRefinement ToRefinement(
    const std::vector<std::vector<int>>& slots) {
  core::SortRefinement refinement;
  for (const std::vector<int>& slot : slots) {
    if (!slot.empty()) refinement.sorts.push_back(slot);
  }
  return refinement;
}

inline core::SortRefinement GreedyMaxMinSigma(
    const eval::Evaluator& evaluator, int k,
    const core::GreedyOptions& options) {
  const schema::SignatureIndex& index = evaluator.index();
  const int n = static_cast<int>(index.num_signatures());
  Rng rng(options.seed);
  std::vector<std::vector<int>> best_slots;
  std::vector<double> best_score;
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;

  for (int restart = 0; restart < options.restarts; ++restart) {
    std::vector<int> shuffled = order;
    if (restart > 0) {
      for (int i = n - 1; i > 0; --i) {
        std::swap(shuffled[i], shuffled[rng.Below(i + 1)]);
      }
    }
    std::vector<std::vector<int>> slots(k);
    std::vector<schema::PropertySet> slot_support(
        k, schema::PropertySet(index.num_properties()));
    for (int sig : shuffled) {
      const schema::PropertySet& sig_props = index.signature(sig).props();
      std::vector<int> slot_order(k);
      std::iota(slot_order.begin(), slot_order.end(), 0);
      std::vector<std::size_t> overlap(k);
      for (int s = 0; s < k; ++s) {
        overlap[s] = slot_support[s].IntersectCount(sig_props);
      }
      std::stable_sort(slot_order.begin(), slot_order.end(),
                       [&](int a, int b) { return overlap[a] > overlap[b]; });
      int best_slot = -1;
      std::vector<double> best_local;
      bool tried_empty = false;
      for (int s : slot_order) {
        if (slots[s].empty()) {
          if (tried_empty) continue;
          tried_empty = true;
        }
        slots[s].push_back(sig);
        std::vector<double> sc = Score(evaluator, slots);
        slots[s].pop_back();
        if (best_slot < 0 || sc > best_local) {
          best_local = std::move(sc);
          best_slot = s;
        }
      }
      slots[best_slot].push_back(sig);
      slot_support[best_slot].UnionWith(sig_props);
    }

    for (int pass = 0; pass < options.max_passes; ++pass) {
      bool improved = false;
      std::vector<double> current = Score(evaluator, slots);
      for (int s = 0; s < k; ++s) {
        for (std::size_t pos = 0; pos < slots[s].size(); ++pos) {
          const int sig = slots[s][pos];
          bool tried_empty = false;
          for (int d = 0; d < k; ++d) {
            if (d == s) continue;
            if (slots[d].empty()) {
              if (tried_empty) continue;
              tried_empty = true;
            }
            slots[s].erase(slots[s].begin() + pos);
            slots[d].push_back(sig);
            std::vector<double> sc = Score(evaluator, slots);
            if (sc > current) {
              current = std::move(sc);
              improved = true;
              break;
            }
            slots[d].pop_back();
            slots[s].insert(slots[s].begin() + pos, sig);
          }
          if (improved) break;
        }
        if (improved) break;
      }
      if (!improved) break;
    }

    std::vector<double> sc = Score(evaluator, slots);
    if (best_slots.empty() || sc > best_score) {
      best_score = std::move(sc);
      best_slots = slots;
    }
  }
  return ToRefinement(best_slots);
}

inline core::SortRefinement Agglomerate(
    const eval::Evaluator& evaluator, std::size_t min_sorts,
    const std::function<bool(const eval::SigmaCounts&)>& may_merge) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  std::vector<std::vector<int>> parts(n);
  for (int i = 0; i < n; ++i) parts[i] = {i};

  auto merged_counts = [&](int a, int b) {
    std::vector<int> merged = parts[a];
    merged.insert(merged.end(), parts[b].begin(), parts[b].end());
    return evaluator.Counts(merged);
  };

  while (parts.size() > std::max<std::size_t>(min_sorts, 1)) {
    int best_a = -1, best_b = -1;
    double best_sigma = -1.0;
    bool best_allowed = false;
    for (std::size_t a = 0; a < parts.size(); ++a) {
      for (std::size_t b = a + 1; b < parts.size(); ++b) {
        const eval::SigmaCounts counts =
            merged_counts(static_cast<int>(a), static_cast<int>(b));
        const bool allowed = may_merge(counts);
        const double sigma = counts.Value();
        if ((allowed && !best_allowed) ||
            (allowed == best_allowed && sigma > best_sigma + 1e-15)) {
          best_a = static_cast<int>(a);
          best_b = static_cast<int>(b);
          best_sigma = sigma;
          best_allowed = allowed;
        }
      }
    }
    if (best_a < 0) break;
    if (!best_allowed) break;
    parts[best_a].insert(parts[best_a].end(), parts[best_b].begin(),
                         parts[best_b].end());
    parts.erase(parts.begin() + best_b);
  }

  core::SortRefinement refinement;
  for (auto& part : parts) {
    std::sort(part.begin(), part.end());
    refinement.sorts.push_back(std::move(part));
  }
  return refinement;
}

inline core::SortRefinement AgglomerativeLowestK(
    const eval::Evaluator& evaluator, Rational theta) {
  return Agglomerate(evaluator, 1, [&](const eval::SigmaCounts& counts) {
    return core::SigmaAtLeast(counts, theta);
  });
}

}  // namespace rdfsr::oracle

#endif  // RDFSR_TESTS_SEED_HEURISTICS_ORACLE_H_
