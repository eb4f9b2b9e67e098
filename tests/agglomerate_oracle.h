// Test oracle: the threshold-stopped / k-stopped agglomerative engine as it
// was before the library switched to cutting one merge sequence (serial
// path, verbatim decision logic). Pairs rank "allowed first" — a merge whose
// sigma meets theta beats one that does not — then by exact sigma, then by
// slot pair; a run stops at the first disallowed best pair or once
// `min_sorts` sorts remain. refine_regression_test checks that it still
// reproduces the recorded outputs; agglomerative_test checks every dendrogram
// cut against it.

#ifndef RDFSR_TESTS_AGGLOMERATE_ORACLE_H_
#define RDFSR_TESTS_AGGLOMERATE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "core/refinement.h"
#include "eval/evaluator.h"
#include "eval/sort_stats.h"
#include "util/rational.h"

namespace rdfsr::oracle {

/// Merges best pairs while they are allowed (merged sigma >= *theta when
/// theta is set, always otherwise) and more than `min_sorts` sorts remain.
inline core::SortRefinement OracleAgglomerate(
    const eval::Evaluator& evaluator, std::size_t min_sorts,
    const std::optional<Rational>& theta) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  struct Part {
    std::vector<int> members;
    eval::SortStats stats;
    std::uint32_t version = 0;
    bool alive = true;
  };
  std::vector<Part> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    parts[i].members = {i};
    parts[i].stats = evaluator.MakeStats();
    parts[i].stats.Add(i);
  }
  struct PairEntry {
    eval::SigmaCounts counts;
    int a = -1, b = -1;
    std::uint32_t version_a = 0, version_b = 0;
    bool allowed = false;
  };
  const auto merges_before = [](const PairEntry& x, const PairEntry& y) {
    if (x.allowed != y.allowed) return x.allowed;
    const int c = eval::CompareSigma(x.counts, y.counts);
    if (c != 0) return c > 0;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  };
  const auto eval_pair = [&](int a, int b) {
    PairEntry e;
    e.counts = evaluator.CountsFromMergedStats(parts[a].stats, parts[b].stats);
    e.allowed = !theta.has_value() || core::SigmaAtLeast(e.counts, *theta);
    e.a = a;
    e.b = b;
    e.version_a = parts[a].version;
    e.version_b = parts[b].version;
    return e;
  };
  const auto heap_less = [&merges_before](const PairEntry& x,
                                          const PairEntry& y) {
    return merges_before(y, x);
  };
  std::priority_queue<PairEntry, std::vector<PairEntry>, decltype(heap_less)>
      heap(heap_less);
  std::vector<PairEntry> row_best(static_cast<std::size_t>(n));
  std::vector<char> has_row(static_cast<std::size_t>(n), 0);
  const auto recompute_row = [&](int a) {
    has_row[a] = 0;
    for (int b = a + 1; b < n; ++b) {
      if (!parts[b].alive) continue;
      PairEntry e = eval_pair(a, b);
      if (!has_row[a] || merges_before(e, row_best[a])) {
        row_best[a] = e;
        has_row[a] = 1;
      }
    }
    if (has_row[a]) heap.push(row_best[a]);
  };

  std::size_t live = static_cast<std::size_t>(n);
  const std::size_t stop = std::max<std::size_t>(min_sorts, 1);
  if (live > stop) {
    for (int a = 0; a < n; ++a) recompute_row(a);
  }
  while (live > stop) {
    PairEntry best;
    bool found = false;
    while (!heap.empty()) {
      const PairEntry top = heap.top();
      heap.pop();
      if (parts[top.a].alive && parts[top.b].alive &&
          parts[top.a].version == top.version_a &&
          parts[top.b].version == top.version_b) {
        best = top;
        found = true;
        break;
      }
    }
    if (!found || !best.allowed) break;
    const int a = best.a;
    const int b = best.b;
    parts[a].members.insert(parts[a].members.end(), parts[b].members.begin(),
                            parts[b].members.end());
    parts[a].stats.MergeWith(parts[b].stats);
    ++parts[a].version;
    parts[b].alive = false;
    if (--live <= stop) break;
    for (int x = 0; x < n; ++x) {
      if (!parts[x].alive || x == a) continue;
      if (has_row[x] && (row_best[x].b == a || row_best[x].b == b)) {
        recompute_row(x);
      } else if (x < a) {
        PairEntry e = eval_pair(x, a);
        if (!has_row[x] || merges_before(e, row_best[x])) {
          row_best[x] = e;
          has_row[x] = 1;
          heap.push(row_best[x]);
        }
      }
    }
    recompute_row(a);
    if (heap.size() > 4 * static_cast<std::size_t>(n) + 64) {
      while (!heap.empty()) heap.pop();
      for (int x = 0; x < n; ++x) {
        if (parts[x].alive && has_row[x]) heap.push(row_best[x]);
      }
    }
  }

  core::SortRefinement refinement;
  for (Part& part : parts) {
    if (!part.alive) continue;
    std::sort(part.members.begin(), part.members.end());
    refinement.sorts.push_back(std::move(part.members));
  }
  return refinement;
}

/// The threshold-stopped run (the former AgglomerativeLowestK).
inline core::SortRefinement OracleLowestK(const eval::Evaluator& evaluator,
                                          Rational theta) {
  return OracleAgglomerate(evaluator, 1, theta);
}

/// The k-stopped run (the former AgglomerativeFixedK).
inline core::SortRefinement OracleFixedK(const eval::Evaluator& evaluator,
                                         int k) {
  return OracleAgglomerate(evaluator, static_cast<std::size_t>(k),
                           std::nullopt);
}

}  // namespace rdfsr::oracle

#endif  // RDFSR_TESTS_AGGLOMERATE_ORACLE_H_
