#include "core/greedy.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <queue>
#include <utility>

#include "eval/sort_stats.h"
#include "schema/property_set.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace rdfsr::core {

namespace {

SortRefinement ToRefinement(const std::vector<std::vector<int>>& slots) {
  SortRefinement refinement;
  for (const std::vector<int>& slot : slots) {
    if (!slot.empty()) refinement.sorts.push_back(slot);
  }
  return refinement;
}

}  // namespace

// Incremental evaluation: every slot keeps a SortStats plus its cached sigma,
// so a trial placement costs one Add/Remove on the touched slot and an O(1)
// closed-form extraction — the other k-1 slots contribute their cached
// values. That turns a placement step from O(k^2 * |sort| * |P|) (the old
// Score() re-derived every slot's sigma from its member signatures for every
// trial) into O(k * (|supp| + k log k)). The sigma doubles come from the same
// exact integer counts a fresh fold of each slot gives, so scores — and
// therefore every placement and move decision — are bit-identical to the
// pre-incremental implementation.
SortRefinement GreedyMaxMinSigma(const eval::Evaluator& evaluator, int k,
                                 const GreedyOptions& options) {
  RDFSR_CHECK_GT(k, 0);
  const schema::SignatureIndex& index = evaluator.index();
  const int n = static_cast<int>(index.num_signatures());
  RDFSR_CHECK_GT(n, 0);

  Rng rng(options.seed);
  std::vector<std::vector<int>> best_slots;
  std::vector<double> best_score;

  // Signatures in descending size: placing the big sets first lets the
  // incremental sigma of each slot stabilize early.
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;

  // Per-restart state and per-trial scratch, hoisted out of the loops.
  std::vector<eval::SortStats> slot_stats;
  std::vector<double> slot_sigma(static_cast<std::size_t>(k), 1.0);
  std::vector<int> slot_order(static_cast<std::size_t>(k));
  std::vector<std::size_t> overlap(static_cast<std::size_t>(k));
  std::vector<double> trial;
  trial.reserve(static_cast<std::size_t>(k));

  // The sorted-ascending vector of per-(non-empty-)slot sigmas, with slot s
  // overridden to `sigma_s` (every trial changes exactly one slot). Lexical
  // comparison of these vectors == maximize the minimum, then the second
  // minimum, ... `include_s` is false when the trial empties slot s.
  const auto trial_score = [&](const std::vector<std::vector<int>>& slots,
                               int s, double sigma_s, bool include_s,
                               int d = -1, double sigma_d = 1.0) {
    trial.clear();
    for (int t = 0; t < k; ++t) {
      if (t == s) {
        if (include_s) trial.push_back(sigma_s);
      } else if (t == d) {
        trial.push_back(sigma_d);
      } else if (!slots[t].empty()) {
        trial.push_back(slot_sigma[t]);
      }
    }
    std::sort(trial.begin(), trial.end());
  };

  util::PeriodicCheck check(options.cancel, 64);
  bool cancelled = false;
  for (int restart = 0; restart < options.restarts && !cancelled; ++restart) {
    std::vector<int> shuffled = order;
    if (restart > 0) {
      // Keep the first restart deterministic-greedy; later ones perturb.
      for (int i = n - 1; i > 0; --i) {
        std::swap(shuffled[i], shuffled[rng.Below(i + 1)]);
      }
    }

    // Greedy construction: put each signature where the resulting score
    // vector is best; opening a new (empty) slot is allowed while slots
    // remain. Slots are tried in descending support overlap with the
    // candidate (word-packed IntersectCount against the slot's used-property
    // union), so score ties resolve toward the structurally closest sort.
    std::vector<std::vector<int>> slots(k);
    slot_stats.assign(static_cast<std::size_t>(k), evaluator.MakeStats());
    for (std::size_t next = 0; next < shuffled.size(); ++next) {
      const int sig = shuffled[next];
      if (check.ShouldStop()) {
        // Keep the partition valid on cancellation: every unplaced signature
        // lands in the first slot (scored below like any other restart).
        for (std::size_t rest = next; rest < shuffled.size(); ++rest) {
          slots[0].push_back(shuffled[rest]);
          slot_stats[0].Add(shuffled[rest]);
        }
        slot_sigma[0] = evaluator.SigmaFromStats(slot_stats[0]);
        cancelled = true;
        break;
      }
      const schema::PropertySet& sig_props = index.signature(sig).props();
      std::iota(slot_order.begin(), slot_order.end(), 0);
      for (int s = 0; s < k; ++s) {
        overlap[s] = slot_stats[s].used().IntersectCount(sig_props);
      }
      std::stable_sort(slot_order.begin(), slot_order.end(),
                       [&](int a, int b) { return overlap[a] > overlap[b]; });
      int best_slot = -1;
      double best_slot_sigma = 1.0;
      std::vector<double> best_local;
      bool tried_empty = false;
      for (int s : slot_order) {
        if (slots[s].empty()) {
          if (tried_empty) continue;  // empty slots are interchangeable
          tried_empty = true;
        }
        slot_stats[s].Add(sig);
        const double sigma_s = evaluator.SigmaFromStats(slot_stats[s]);
        slot_stats[s].Remove(sig);
        trial_score(slots, s, sigma_s, /*include_s=*/true);
        if (best_slot < 0 || trial > best_local) {
          best_local = trial;
          best_slot = s;
          best_slot_sigma = sigma_s;
        }
      }
      slots[best_slot].push_back(sig);
      slot_stats[best_slot].Add(sig);
      slot_sigma[best_slot] = best_slot_sigma;
      // Audit committed placements only — trial Add/Remove pairs cancel out.
      RDFSR_AUDIT_CHECK_INVARIANTS(slot_stats[best_slot]);
    }

    // Local search: move a single signature to a different slot when that
    // improves the score vector. Only the source and destination slots are
    // re-evaluated per candidate move.
    for (int pass = 0; pass < options.max_passes && !cancelled; ++pass) {
      if (options.cancel.stop_requested()) {
        cancelled = true;
        break;
      }
      bool improved = false;
      trial_score(slots, /*s=*/-1, 1.0, false);
      std::vector<double> current = trial;
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
            // Apply the move to the stats, score, then commit or undo.
            slot_stats[s].Remove(sig);
            slot_stats[d].Add(sig);
            const bool s_remains = slots[s].size() > 1;
            const double sigma_s =
                s_remains ? evaluator.SigmaFromStats(slot_stats[s]) : 1.0;
            const double sigma_d = evaluator.SigmaFromStats(slot_stats[d]);
            trial_score(slots, s, sigma_s, s_remains, d, sigma_d);
            if (trial > current) {
              slots[s].erase(slots[s].begin() + pos);
              slots[d].push_back(sig);
              slot_sigma[s] = sigma_s;
              slot_sigma[d] = sigma_d;
              RDFSR_AUDIT_CHECK_INVARIANTS(slot_stats[s]);
              RDFSR_AUDIT_CHECK_INVARIANTS(slot_stats[d]);
              current = trial;
              improved = true;
              // Keep the move; restart scanning this slot.
              break;
            }
            slot_stats[d].Remove(sig);
            slot_stats[s].Add(sig);
          }
          if (improved) break;
        }
        if (improved) break;
      }
      if (!improved) break;
    }

    trial_score(slots, /*s=*/-1, 1.0, false);
    if (best_slots.empty() || trial > best_score) {
      best_score = trial;
      best_slots = slots;
    }
  }

  return ToRefinement(best_slots);
}

namespace {

/// Shared agglomerative engine. Merges the best pair (highest merged sigma,
/// compared exactly; ties by lower part order for determinism), recording
/// each committed merge, until `max_merges` merges are made or — when
/// `floor` is set — the best pair's merged sigma falls below it. The pair
/// order ignores both stopping rules, so every run is a prefix of the
/// unbounded one (see AgglomerativeMerges).
///
/// Incremental evaluation: each part keeps a SortStats, so a candidate
/// merge's sigma is one stats merge plus an O(1) closed-form extraction —
/// never a walk over the parts' member signatures. Pair selection uses a
/// lazy best-pair priority queue over per-part rows (part a's row covers
/// pairs (a, b) with b after a in part order): the heap holds snapshots that
/// are re-validated against part versions on pop, and after a merge only the
/// rows touching the merged part are recomputed — rows whose cached best
/// partner survived just race the merged part as one new candidate. A merge
/// round therefore costs O(n log n + n * |P|/64) instead of the scratch
/// baseline's O(n^2 * |sort| * |P|) (measured in bench/bench_refine.cc).
/// Instances below this many signatures run on one lane regardless of
/// `threads`: a full row scan is ~n closed-form evaluations, and the fan-out
/// overhead only amortizes once rows are a few hundred entries wide.
constexpr int kParallelAgglomerateCutoff = 256;

std::vector<AgglomerativeMerge> Agglomerate(
    const eval::Evaluator& evaluator, std::size_t max_merges,
    const std::optional<Rational>& floor, int threads,
    const util::CancellationToken& cancel) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  // Every merge removes one of the n parts.
  max_merges = std::min<std::size_t>(
      max_merges, n > 1 ? static_cast<std::size_t>(n - 1) : 0);
  std::vector<AgglomerativeMerge> merges;

  // Worker pool for row recomputation; one lane (0 workers, every fan-out
  // inline) unless sigma extraction is a pure closed form (cheap_stats() —
  // the cached evaluator's memo is not thread-safe, but it bypasses the memo
  // entirely in that regime) and the instance is large enough to amortize
  // the dispatch. The pool only ever computes PairEntry values into disjoint
  // slots; every heap mutation stays on this thread, and the total order on
  // pairs makes each row's best unique, so the merge sequence cannot depend
  // on the lane count or on thread scheduling.
  const int lanes = n >= kParallelAgglomerateCutoff && evaluator.cheap_stats()
                        ? util::ThreadPool::ResolveThreads(threads)
                        : 1;
  util::ThreadPool pool(lanes - 1);

  // Parts live in fixed slots; a merge folds the later slot into the earlier
  // one, so ascending live slots reproduce the erase-based ordering (and the
  // pair tie-break order) of the scratch implementation exactly. Members are
  // not tracked here: ReplayMerges rebuilds any prefix's partition.
  struct Part {
    eval::SortStats stats;
    std::uint32_t version = 0;
    bool alive = true;
  };
  std::vector<Part> parts(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    parts[i].stats = evaluator.MakeStats();
    parts[i].stats.Add(i);
  }

  struct PairEntry {
    eval::SigmaCounts counts;
    int a = -1, b = -1;  // slots, a < b
    std::uint32_t version_a = 0, version_b = 0;
  };

  // Mutex-folded reduction target for the split row scan: pool lanes Offer()
  // their chunk-local best during the fan-out, the owning thread Take()s the
  // folded row best after ParallelFor's barrier. The strict total order on
  // pairs makes the folded result independent of arrival order, and keeping
  // the guarded fields behind these two methods lets Clang's thread-safety
  // analysis check the discipline.
  struct RowFold {
    util::Mutex mu;
    PairEntry best RDFSR_GUARDED_BY(mu);
    bool has RDFSR_GUARDED_BY(mu) = false;

    void Offer(const PairEntry& entry,
               const std::function<bool(const PairEntry&, const PairEntry&)>&
                   before) {
      util::MutexLock lock(mu);
      if (!has || before(entry, best)) {
        best = entry;
        has = true;
      }
    }

    bool Take(PairEntry* out) {
      util::MutexLock lock(mu);
      if (has) *out = best;
      return has;
    }
  };

  // Strict "merge first" order: the exactly-higher sigma, then the earlier
  // pair — the same preference the scratch scan applied, minus its 1e-15
  // float slack. The order ignores theta: SigmaAtLeast is monotone in this
  // same exact sigma order (both read total == 0 as sigma = 1), so the
  // pairs that meet any theta are always picked before those that do not.
  const auto merges_before = [](const PairEntry& x, const PairEntry& y) {
    const int c = eval::CompareSigma(x.counts, y.counts);
    if (c != 0) return c > 0;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  };

  const auto eval_pair = [&](int a, int b) {
    PairEntry e;
    e.counts =
        evaluator.CountsFromMergedStats(parts[a].stats, parts[b].stats);
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

  // Per-part row cache: the best pair (a, b) over live b > a.
  std::vector<PairEntry> row_best(static_cast<std::size_t>(n));
  std::vector<char> has_row(static_cast<std::size_t>(n), 0);

  // Scratch for the post-merge update, hoisted out of the loop.
  std::vector<int> rescan, probe;
  std::vector<PairEntry> probe_entries;

  // Scans row a (pairs (a, b) over live b > a) into row_best[a] / has_row[a].
  // Touches no shared state besides its own row slots, so disjoint rows are
  // safe to compute concurrently. Does NOT push to the heap.
  const auto compute_row = [&](int a) {
    has_row[a] = 0;
    for (int b = a + 1; b < n; ++b) {
      if (!parts[b].alive) continue;
      PairEntry e = eval_pair(a, b);
      if (!has_row[a] || merges_before(e, row_best[a])) {
        row_best[a] = e;
        has_row[a] = 1;
      }
    }
  };

  // Like compute_row but splits the single row across the pool — used for
  // the merged part's own rebuild, which runs outside any row fan-out (the
  // pool's ParallelFor must not nest). Each chunk reduces to a local best;
  // the total order on pairs makes the mutex-folded result unique.
  // Type-erased once so each Offer() (one per chunk, not per pair) can fold
  // through the same comparator compute_row uses.
  const std::function<bool(const PairEntry&, const PairEntry&)>
      merges_before_fn = merges_before;

  const auto compute_row_split = [&](int a) {
    const std::size_t span =
        a + 1 < n ? static_cast<std::size_t>(n - a - 1) : 0;
    if (span < 512) {
      compute_row(a);
      return;
    }
    RowFold fold;
    pool.ParallelFor(span, [&](std::size_t lo, std::size_t hi) {
      PairEntry local;
      bool has_local = false;
      for (std::size_t i = lo; i < hi; ++i) {
        const int b = a + 1 + static_cast<int>(i);
        if (!parts[b].alive) continue;
        PairEntry e = eval_pair(a, b);
        if (!has_local || merges_before(e, local)) {
          local = e;
          has_local = true;
        }
      }
      if (has_local) fold.Offer(local, merges_before_fn);
    });
    has_row[a] = fold.Take(&row_best[a]) ? 1 : 0;
  };

  bool cancelled = cancel.stop_requested();
  if (max_merges > 0 && !cancelled) {
    // Per-row granularity: each row is O(n) closed-form evaluations, so every
    // lane polls before each row it scans. A cancelled build skips the merge
    // loop — no merges is all singletons, a valid partition.
    pool.ParallelFor(static_cast<std::size_t>(n),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t a = lo; a < hi; ++a) {
                         if (cancel.stop_requested()) return;
                         compute_row(static_cast<int>(a));
                       }
                     });
    cancelled = cancel.stop_requested();
    if (!cancelled) {
      for (int a = 0; a < n; ++a) {
        if (has_row[a]) heap.push(row_best[a]);
      }
    }
  }
  while (merges.size() < max_merges && !cancelled) {
    // One merge round per checkpoint: unwinding here leaves a shorter prefix
    // of the merge sequence.
    if (cancel.stop_requested()) break;
    // Pop to the best still-valid snapshot; entries for dead or since-merged
    // parts are discarded here rather than eagerly removed.
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
    if (!found) break;
    // The theta cut (ThetaCut applies the same test to a recorded sequence).
    if (floor.has_value() && !SigmaAtLeast(best.counts, *floor)) break;

    const int a = best.a;
    const int b = best.b;
    parts[a].stats.MergeWith(parts[b].stats);
    // The merge is the one operation that can cross the sparse/dense
    // representation boundary with bulk state; audit every committed one.
    RDFSR_AUDIT_CHECK_INVARIANTS(parts[a].stats);
    ++parts[a].version;
    parts[b].alive = false;
    merges.push_back({a, b, best.counts});
    if (merges.size() == max_merges) break;

    // Only rows touching the merged part change: rows whose cached best
    // referenced a or b must rescan; earlier rows race the merged part as a
    // single new candidate; a's own row is rebuilt against its new stats.
    // Classify on this thread (cheap flag reads), fan the evaluations out —
    // rescans write disjoint row slots, probes write disjoint scratch — then
    // fold results and push on this thread in ascending row order.
    rescan.clear();
    probe.clear();
    for (int x = 0; x < n; ++x) {
      if (!parts[x].alive || x == a) continue;
      if (has_row[x] && (row_best[x].b == a || row_best[x].b == b)) {
        rescan.push_back(x);
      } else if (x < a) {
        probe.push_back(x);
      }
    }
    probe_entries.resize(probe.size());
    pool.ParallelFor(rescan.size() + probe.size(),
                     [&](std::size_t lo, std::size_t hi) {
                       for (std::size_t i = lo; i < hi; ++i) {
                         if (i < rescan.size()) {
                           compute_row(rescan[i]);
                         } else {
                           const std::size_t j = i - rescan.size();
                           probe_entries[j] = eval_pair(probe[j], a);
                         }
                       }
                     });
    std::size_t ri = 0, pi = 0;
    while (ri < rescan.size() || pi < probe.size()) {
      if (pi >= probe.size() ||
          (ri < rescan.size() && rescan[ri] < probe[pi])) {
        const int x = rescan[ri++];
        if (has_row[x]) heap.push(row_best[x]);
      } else {
        const int x = probe[pi];
        const PairEntry& e = probe_entries[pi++];
        if (!has_row[x] || merges_before(e, row_best[x])) {
          row_best[x] = e;
          has_row[x] = 1;
          heap.push(row_best[x]);
        }
      }
    }
    compute_row_split(a);
    if (has_row[a]) heap.push(row_best[a]);

    // Stale snapshots accumulate until popped; rebuilding from the O(n) row
    // cache keeps the heap from growing past O(n) between rounds.
    if (heap.size() > 4 * static_cast<std::size_t>(n) + 64) {
      while (!heap.empty()) heap.pop();
      for (int x = 0; x < n; ++x) {
        if (parts[x].alive && has_row[x]) heap.push(row_best[x]);
      }
    }
  }

  return merges;
}

}  // namespace

std::vector<AgglomerativeMerge> AgglomerativeMerges(
    const eval::Evaluator& evaluator, int threads,
    const util::CancellationToken& cancel) {
  return Agglomerate(evaluator, SIZE_MAX, std::nullopt, threads, cancel);
}

std::size_t ThetaCut(const std::vector<AgglomerativeMerge>& merges,
                     Rational theta) {
  std::size_t length = 0;
  while (length < merges.size() && SigmaAtLeast(merges[length].counts, theta)) {
    ++length;
  }
  return length;
}

SortRefinement ReplayMerges(int num_signatures,
                            const std::vector<AgglomerativeMerge>& merges,
                            std::size_t length) {
  RDFSR_CHECK_LE(length, merges.size());
  // owner[s]: the slot s was folded into, s itself while it survives. A slot
  // is folded at most once and always into a lower slot, so one ascending
  // pass resolves every slot to its surviving sort.
  std::vector<int> owner(static_cast<std::size_t>(num_signatures));
  std::iota(owner.begin(), owner.end(), 0);
  for (std::size_t i = 0; i < length; ++i) owner[merges[i].b] = merges[i].a;
  SortRefinement refinement;
  std::vector<std::size_t> sort_of(owner.size());
  for (int s = 0; s < num_signatures; ++s) {
    if (owner[s] == s) {
      sort_of[s] = refinement.sorts.size();
      refinement.sorts.emplace_back();
    } else {
      sort_of[s] = sort_of[owner[s]];
    }
    // Slot s started as signature s: ascending s keeps members sorted.
    refinement.sorts[sort_of[s]].push_back(s);
  }
  return refinement;
}

SortRefinement AgglomerativeLowestK(const eval::Evaluator& evaluator,
                                    Rational theta, int threads,
                                    const util::CancellationToken& cancel) {
  const int n = static_cast<int>(evaluator.index().num_signatures());
  const std::vector<AgglomerativeMerge> merges =
      Agglomerate(evaluator, SIZE_MAX, theta, threads, cancel);
  return ReplayMerges(n, merges, merges.size());
}

SortRefinement AgglomerativeFixedK(const eval::Evaluator& evaluator, int k,
                                   int threads,
                                   const util::CancellationToken& cancel) {
  RDFSR_CHECK_GT(k, 0);
  const int n = static_cast<int>(evaluator.index().num_signatures());
  const std::vector<AgglomerativeMerge> merges = Agglomerate(
      evaluator, n > k ? static_cast<std::size_t>(n - k) : 0, std::nullopt,
      threads, cancel);
  return ReplayMerges(n, merges, merges.size());
}

}  // namespace rdfsr::core
