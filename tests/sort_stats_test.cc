// Property tests for the incremental SortStats subsystem (eval/sort_stats.h):
// after every step of random Add/Remove/MergeWith sequences, CheckInvariants()
// must find every aggregate equal to its recomputation from the member set,
// and the closed forms of all six builtin rule families must read the same
// counts — exactly, favorable and total as integers — as a fresh fold of the
// members (Evaluator::Counts), so the refinement heuristics can trust the
// incremental path bit for bit. tests/closed_form_test.cc checks the fresh
// fold against the generic enumerator.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "eval/cached_evaluator.h"
#include "eval/enumerator.h"
#include "eval/evaluator.h"
#include "eval/sort_stats.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "util/rng.h"

namespace rdfsr::eval {
namespace {

/// All six families over an index, built through the public factories so the
/// stats path inherits each evaluator's resolved parameters.
std::vector<std::unique_ptr<Evaluator>> AllFamilies(
    const schema::SignatureIndex& index) {
  std::vector<std::unique_ptr<Evaluator>> out;
  out.push_back(ClosedFormEvaluator::Cov(&index));
  out.push_back(ClosedFormEvaluator::Sim(&index));
  const std::string p0 = index.property_name(0);
  const std::string p1 = index.property_name(1 % index.num_properties());
  out.push_back(ClosedFormEvaluator::CovIgnoring(&index, {p0, "missing"}));
  out.push_back(ClosedFormEvaluator::Dep(&index, p0, p1));
  out.push_back(ClosedFormEvaluator::SymDep(&index, p0, p1));
  out.push_back(ClosedFormEvaluator::DepDisj(&index, p1, p0));
  return out;
}

void ExpectCountsEqual(const SigmaCounts& got, const SigmaCounts& want,
                       const std::string& context) {
  EXPECT_TRUE(got.favorable == want.favorable && got.total == want.total)
      << context << ": incremental " << BigCountToString(got.favorable) << "/"
      << BigCountToString(got.total) << " vs scratch "
      << BigCountToString(want.favorable) << "/"
      << BigCountToString(want.total);
}

TEST(SortStatsTest, RandomMutationSequencesMatchScratchRecompute) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 10;
    spec.num_properties = 7;
    spec.max_count = 40;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    const auto evaluators = AllFamilies(index);

    Rng rng(seed * 977 + 5);
    for (const auto& evaluator : evaluators) {
      SortStats stats = evaluator->MakeStats();
      std::vector<int> members;  // mirror of the stats' member set
      for (int step = 0; step < 200; ++step) {
        const int n = static_cast<int>(index.num_signatures());
        const std::uint64_t op = rng.Below(3);
        if (op == 0 || members.empty()) {
          // Add a random non-member (if one exists).
          std::vector<int> outside;
          for (int i = 0; i < n; ++i) {
            if (std::find(members.begin(), members.end(), i) == members.end())
              outside.push_back(i);
          }
          if (outside.empty()) continue;
          const int sig = outside[rng.Below(outside.size())];
          stats.Add(sig);
          members.push_back(sig);
        } else if (op == 1) {
          const std::size_t at = rng.Below(members.size());
          stats.Remove(members[at]);
          members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          // Merge a random disjoint subset in.
          SortStats other = evaluator->MakeStats();
          std::vector<int> added;
          for (int i = 0; i < n; ++i) {
            if (std::find(members.begin(), members.end(), i) != members.end())
              continue;
            if (rng.Chance(0.4)) {
              other.Add(i);
              added.push_back(i);
            }
          }
          stats.MergeWith(other);
          members.insert(members.end(), added.begin(), added.end());
        }
        stats.CheckInvariants();
        ExpectCountsEqual(
            evaluator->CountsFromStats(stats), evaluator->Counts(members),
            evaluator->rule().name() + " seed " + std::to_string(seed) +
                " step " + std::to_string(step));
      }
    }
  }
}

TEST(SortStatsTest, MergedPairExtractionMatchesMergeThenExtract) {
  // The agglomerative candidate probe: CountsFromMergedStats over two
  // disjoint stats must equal materializing the merge, for all families.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 11;
    spec.num_properties = 7;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    const auto evaluators = AllFamilies(index);
    Rng rng(seed * 31 + 7);
    for (const auto& evaluator : evaluators) {
      for (int trial = 0; trial < 20; ++trial) {
        SortStats a = evaluator->MakeStats();
        SortStats b = evaluator->MakeStats();
        std::vector<int> all;
        for (std::size_t i = 0; i < index.num_signatures(); ++i) {
          const std::uint64_t where = rng.Below(3);
          if (where == 0) {
            a.Add(static_cast<int>(i));
            all.push_back(static_cast<int>(i));
          } else if (where == 1) {
            b.Add(static_cast<int>(i));
            all.push_back(static_cast<int>(i));
          }
        }
        a.CheckInvariants();
        b.CheckInvariants();
        ExpectCountsEqual(
            evaluator->CountsFromMergedStats(a, b), evaluator->Counts(all),
            evaluator->rule().name() + " merged-pair seed " +
                std::to_string(seed) + " trial " + std::to_string(trial));
      }
    }
  }
}

TEST(SortStatsTest, AggregatesMatchScratchRecompute) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 9;
  spec.num_properties = 6;
  spec.seed = 3;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const std::vector<int> subset = {0, 2, 5, 7};
  SortStats stats(&index);
  for (int id : subset) stats.Add(id);

  // Recomputes subjects, support_sum, count_sq_sum, every cnt_p, the used
  // set and |P*| from the members, and checks the count representation.
  stats.CheckInvariants();
  EXPECT_EQ(static_cast<int>(stats.used().Popcount()),
            stats.used_properties());
  EXPECT_EQ(stats.num_members(), subset.size());
  EXPECT_EQ(stats.members().ToVector(), subset);
}

TEST(SortStatsTest, RemoveUndoesAddExactly) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = 8;
  spec.seed = 11;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto sim = ClosedFormEvaluator::Sim(&index);
  SortStats stats = sim->MakeStats();
  stats.Add(1);
  stats.Add(4);
  const SigmaCounts before = sim->CountsFromStats(stats);
  stats.Add(6);
  stats.Remove(6);
  const SigmaCounts after = sim->CountsFromStats(stats);
  ExpectCountsEqual(after, before, "add/remove roundtrip");
  stats.Remove(1);
  stats.Remove(4);
  EXPECT_TRUE(stats.empty());
  EXPECT_TRUE(stats.subjects() == 0);
  EXPECT_TRUE(stats.count_sq_sum() == 0);
  EXPECT_EQ(stats.used_properties(), 0);
}

TEST(SortStatsTest, CachedEvaluatorSharesMemoAcrossBothEntryPoints) {
  // For evaluators whose Counts are expensive (the generic enumerator), the
  // stats path and the id-vector path share one memo table.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 6;
  spec.seed = 8;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  GenericEvaluator cov(rules::CovRule(), &index);
  CachedEvaluator cached(&cov);

  SortStats stats = cached.MakeStats();
  stats.Add(0);
  stats.Add(3);
  const SigmaCounts via_stats = cached.CountsFromStats(stats);
  EXPECT_EQ(cached.misses(), 1u);
  // The id-vector entry point must hit the memo entry the stats path wrote.
  const SigmaCounts via_ids = cached.Counts({0, 3});
  EXPECT_EQ(cached.hits(), 1u);
  ExpectCountsEqual(via_ids, via_stats, "cache sharing");
  // And the other direction.
  const SigmaCounts all = cached.Counts({0, 1, 2, 3, 4, 5});
  SortStats all_stats = cached.MakeStats();
  for (int i = 0; i < 6; ++i) all_stats.Add(i);
  const SigmaCounts all_via_stats = cached.CountsFromStats(all_stats);
  EXPECT_EQ(cached.hits(), 2u);
  ExpectCountsEqual(all_via_stats, all, "cache sharing reverse");
}

TEST(SortStatsTest, CachedEvaluatorBypassesMemoForCheapClosedForms) {
  // Closed-form stats extractions are cheaper than hashing the member key,
  // so the wrapper must delegate stats probes without touching the memo —
  // the production solver wraps every evaluator, and the agglomerative
  // heuristic issues O(n^2) probes through it.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 6;
  spec.seed = 8;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto cov = ClosedFormEvaluator::Cov(&index);
  ASSERT_TRUE(cov->cheap_stats());
  CachedEvaluator cached(cov.get());
  EXPECT_TRUE(cached.cheap_stats());

  SortStats stats = cached.MakeStats();
  stats.Add(0);
  stats.Add(3);
  SortStats other = cached.MakeStats();
  other.Add(1);
  const SigmaCounts via_stats = cached.CountsFromStats(stats);
  cached.CountsFromMergedStats(stats, other);
  // The id-vector entry point folds into stats, so it bypasses the memo too.
  cached.Counts({0, 3});
  EXPECT_EQ(cached.misses(), 0u);
  EXPECT_EQ(cached.hits(), 0u);
  ExpectCountsEqual(via_stats, cov->CountsFromStats(stats), "bypass");
}

TEST(SortStatsTest, GenericEvaluatorEnumeratesTheMembers) {
  // A rule with no closed form: stats carry their member set, so the generic
  // evaluator's CountsFromStats must equal enumerating the restriction.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 5;
  spec.num_properties = 4;
  spec.seed = 2;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  // prop(c1) = prop(c2) |-> val(c1) = val(c2): no recognized builtin name.
  auto rule = rules::Rule::Create(rules::PropEqProp("c1", "c2"),
                                  rules::ValEqVal("c1", "c2"), "AdHoc");
  ASSERT_TRUE(rule.ok());
  GenericEvaluator generic(*rule, &index);
  SortStats stats = generic.MakeStats();
  stats.Add(0);
  stats.Add(2);
  stats.Add(4);
  ExpectCountsEqual(generic.CountsFromStats(stats),
                    EvaluateRuleOnIndex(*rule, index.Restrict({0, 2, 4})),
                    "generic restriction");
}

TEST(SortStatsTest, SparseDenseTransitionsMatchScratchOracle) {
  // The memory-diet representations flip with occupancy: the member set
  // starts as a sorted id vector and densifies to a word-packed bitset at
  // ~1/32 occupancy (back below ~1/64), and per-property counts start as
  // sorted parallel arrays and densify once used properties reach |P|/2
  // (back below |P|/8). This drives a ramp-up/drain sequence sized so all
  // four representation states occur, checking every aggregate against its
  // scratch recomputation (CheckInvariants) at each step — the flips must be
  // invisible.
  gen::RandomIndexSpec spec;
  spec.num_signatures = 200;
  spec.num_properties = 64;
  spec.density = 0.1;
  spec.max_count = 30;
  spec.seed = 21;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto cov = ClosedFormEvaluator::Cov(&index);
  SortStats stats = cov->MakeStats();
  std::vector<int> members;
  bool saw_member_rep[2] = {false, false};
  bool saw_count_rep[2] = {false, false};

  Rng rng(99);
  const int n = static_cast<int>(index.num_signatures());
  for (int step = 0; step < 700; ++step) {
    // Ramp up (mostly adds), then drain (mostly removes) so both densify
    // and re-sparsify thresholds are crossed, with jitter around them.
    const bool add =
        members.empty() ||
        (step < 350 ? !rng.Chance(0.25) : rng.Chance(0.25));
    if (add) {
      if (members.size() == static_cast<std::size_t>(n)) continue;
      int sig;
      do {
        sig = static_cast<int>(rng.Below(n));
      } while (std::find(members.begin(), members.end(), sig) !=
               members.end());
      stats.Add(sig);
      members.push_back(sig);
    } else {
      const std::size_t at = rng.Below(members.size());
      stats.Remove(members[at]);
      members.erase(members.begin() + static_cast<std::ptrdiff_t>(at));
    }
    saw_member_rep[stats.members().dense() ? 1 : 0] = true;
    saw_count_rep[stats.counts_dense() ? 1 : 0] = true;

    stats.CheckInvariants();
    std::vector<int> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    ASSERT_EQ(stats.members().ToVector(), sorted) << "step " << step;
    ExpectCountsEqual(cov->CountsFromStats(stats), cov->Counts(members),
                      "transition step " + std::to_string(step));
  }
  // The sequence must actually have exercised every representation, or the
  // oracle comparison above proves nothing about the flips.
  EXPECT_TRUE(saw_member_rep[0] && saw_member_rep[1])
      << "member set never flipped (sparse=" << saw_member_rep[0]
      << ", dense=" << saw_member_rep[1] << ")";
  EXPECT_TRUE(saw_count_rep[0] && saw_count_rep[1])
      << "count storage never flipped (sparse=" << saw_count_rep[0]
      << ", dense=" << saw_count_rep[1] << ")";
}

TEST(SortStatsTest, CompareSigmaIsExact) {
  SigmaCounts a{9, 10};
  SigmaCounts b{90, 100};
  EXPECT_EQ(CompareSigma(a, b), 0);
  SigmaCounts c{91, 100};
  EXPECT_EQ(CompareSigma(a, c), -1);
  EXPECT_EQ(CompareSigma(c, a), 1);
  // Vacuous counts read as exactly 1.
  SigmaCounts vacuous{0, 0};
  SigmaCounts one{5, 5};
  EXPECT_EQ(CompareSigma(vacuous, one), 0);
  EXPECT_EQ(CompareSigma(vacuous, a), 1);
  // Differences far below double resolution still order correctly.
  SigmaCounts x{1000000000000000000LL, 1000000000000000001LL};
  SigmaCounts y{999999999999999999LL, 1000000000000000000LL};
  EXPECT_EQ(CompareSigma(x, y), 1);
  EXPECT_EQ(CompareSigma(y, x), -1);
  // Counts whose cross-products would overflow __int128 (Sim totals grow
  // quadratically in subjects): m/(m+1) vs (m-1)/m at m ~ 1e21.
  const BigCount m = BigCount{1000000000000000000LL} * 1000;
  SigmaCounts big_hi{m, m + 1};
  SigmaCounts big_lo{m - 1, m};
  EXPECT_EQ(CompareSigma(big_hi, big_lo), 1);
  EXPECT_EQ(CompareSigma(big_lo, big_hi), -1);
  EXPECT_EQ(CompareSigma(big_hi, big_hi), 0);
  EXPECT_EQ(CompareSigma(vacuous, big_hi), 1);
}

TEST(SortStatsTest, AddAllMatchesAddByAdd) {
  // The one-pass fold behind Evaluator::Counts must build the stats Add()
  // per id builds: every aggregate, the tracked pair, and both
  // representations (member set and cnt_p storage), on sorts of every size
  // in shuffled order, so it crosses each densify threshold.
  int dense_counts = 0, sparse_counts = 0, dense_members = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    gen::RandomIndexSpec spec;
    spec.num_signatures = 80;
    spec.num_properties = 12 + 8 * static_cast<int>(seed);
    spec.density = 0.08;
    spec.max_count = 30;
    spec.seed = seed;
    const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
    const auto evaluators = AllFamilies(index);
    Rng rng(seed * 31 + 7);
    std::vector<int> all(index.num_signatures());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    for (std::size_t size = 0; size <= all.size(); size += 1 + size / 4) {
      for (std::size_t i = all.size() - 1; i > 0; --i) {
        std::swap(all[i], all[rng.Below(i + 1)]);
      }
      const std::vector<int> ids(all.begin(),
                                 all.begin() + static_cast<std::ptrdiff_t>(size));
      for (const auto& evaluator : evaluators) {
        SortStats folded = evaluator->MakeStats();
        folded.AddAll(ids);
        SortStats added = evaluator->MakeStats();
        for (int id : ids) added.Add(id);
        folded.CheckInvariants();
        const std::string where = "seed " + std::to_string(seed) + ", " +
                                  std::to_string(size) + " ids";
        EXPECT_EQ(folded.num_members(), added.num_members()) << where;
        EXPECT_TRUE(folded.members() == added.members()) << where;
        EXPECT_EQ(folded.members().dense(), added.members().dense()) << where;
        EXPECT_TRUE(folded.subjects() == added.subjects()) << where;
        EXPECT_TRUE(folded.support_sum() == added.support_sum()) << where;
        EXPECT_TRUE(folded.count_sq_sum() == added.count_sq_sum()) << where;
        EXPECT_TRUE(folded.pair_both() == added.pair_both()) << where;
        EXPECT_EQ(folded.used_properties(), added.used_properties()) << where;
        EXPECT_TRUE(folded.used() == added.used()) << where;
        EXPECT_EQ(folded.counts_dense(), added.counts_dense()) << where;
        for (std::size_t p = 0; p < index.num_properties(); ++p) {
          EXPECT_EQ(folded.property_count(p), added.property_count(p))
              << where << ", property " << p;
        }
        ExpectCountsEqual(evaluator->CountsFromStats(folded),
                          evaluator->CountsFromStats(added), where);
        (folded.counts_dense() ? dense_counts : sparse_counts) += 1;
        dense_members += folded.members().dense() ? 1 : 0;
      }
    }
  }
  // Both count representations and the dense member set must have occurred.
  EXPECT_GT(dense_counts, 0);
  EXPECT_GT(sparse_counts, 0);
  EXPECT_GT(dense_members, 0);
}

}  // namespace
}  // namespace rdfsr::eval
