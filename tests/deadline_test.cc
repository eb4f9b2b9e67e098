// Deadline / cancellation tests: token semantics, anytime behaviour of the
// searches (best incumbent + non-decided marker), and the determinism of
// cancelled parallel stages — a cancelled run at any thread count must leave
// valid, auditable state behind. Runs under `ctest -L threads` and the TSan
// CI job.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "api/rdfsr.h"
#include "core/greedy.h"
#include "core/refinement.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "rdf/ntriples.h"
#include "rules/builtins.h"
#include "schema/index_builder.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace rdfsr {
namespace {

// --- token semantics ---------------------------------------------------------

TEST(DeadlineTest, DefaultTokenNeverTrips) {
  util::CancellationToken token;
  EXPECT_FALSE(token.can_trip());
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_TRUE(token.status().ok());
}

TEST(DeadlineTest, ExpiredDeadlineReportsDeadlineExceeded) {
  const util::Deadline deadline = util::Deadline::After(-1.0);
  const util::CancellationToken token = deadline.token();
  EXPECT_TRUE(token.can_trip());
  EXPECT_TRUE(token.expired());
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, CancelReportsCancelled) {
  const util::Deadline deadline = util::Deadline::Cancellable();
  const util::CancellationToken token = deadline.token();
  EXPECT_TRUE(token.can_trip());
  EXPECT_FALSE(token.stop_requested());
  deadline.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_FALSE(token.expired());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(DeadlineTest, CancellationWinsOverExpiry) {
  const util::Deadline deadline = util::Deadline::After(-1.0);
  deadline.RequestCancel();
  EXPECT_EQ(deadline.token().status().code(), StatusCode::kCancelled);
}

TEST(DeadlineTest, BudgetsPastTheClockRangeNeverTripButCancel) {
  // 1e10 s and up overflowed the clock's nanosecond count, which wrapped the
  // deadline into the past.
  for (const double seconds :
       {1e10, 1e300, std::numeric_limits<double>::infinity()}) {
    const util::Deadline deadline = util::Deadline::After(seconds);
    const util::CancellationToken token = deadline.token();
    EXPECT_TRUE(token.can_trip()) << seconds;
    EXPECT_FALSE(token.expired()) << seconds;
    EXPECT_FALSE(token.stop_requested()) << seconds;
    deadline.RequestCancel();
    EXPECT_TRUE(token.stop_requested()) << seconds;
    EXPECT_EQ(token.status().code(), StatusCode::kCancelled) << seconds;
  }
}

TEST(DeadlineTest, NanBudgetIsExpired) {
  const util::CancellationToken token =
      util::Deadline::After(std::numeric_limits<double>::quiet_NaN()).token();
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, AfterMillisZeroMeansNoDeadline) {
  EXPECT_FALSE(util::Deadline::AfterMillis(0).can_trip());
  EXPECT_FALSE(util::Deadline::AfterMillis(-5).can_trip());
  EXPECT_TRUE(util::Deadline::AfterMillis(1).can_trip());
}

TEST(DeadlineTest, TokensShareTheCancelFlag) {
  const util::Deadline deadline = util::Deadline::Cancellable();
  const util::CancellationToken a = deadline.token();
  const util::CancellationToken b = deadline.token();
  deadline.RequestCancel();
  EXPECT_TRUE(a.cancelled());
  EXPECT_TRUE(b.cancelled());
}

TEST(DeadlineTest, PeriodicCheckSamplesAtStride) {
  const util::Deadline deadline = util::Deadline::Cancellable();
  deadline.RequestCancel();
  util::PeriodicCheck check(deadline.token(), 8);
  int stops = 0;
  for (int i = 0; i < 16; ++i) {
    if (check.ShouldStop()) ++stops;
  }
  EXPECT_EQ(stops, 2);  // calls 8 and 16 sample the (tripped) token

  // Unarmed checks never stop, whatever the stride.
  util::PeriodicCheck unarmed(util::CancellationToken{}, 1);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(unarmed.ShouldStop());
}

// --- cancelled stages leave valid state, at every thread count ---------------

/// Random index big enough that the agglomerative heuristics do real merging.
schema::SignatureIndex MakeMessyIndex(std::uint64_t seed) {
  gen::RandomGraphSpec spec;
  spec.num_subjects = 150;
  spec.num_properties = 12;
  spec.num_sorts = 3;
  spec.seed = seed;
  const rdf::Graph graph = gen::GenerateRandomGraph(spec);
  return schema::IndexBuilder::FromGraph(graph);
}

TEST(DeadlineTest, CancelledAgglomerativeStaysValidAcrossThreadCounts) {
  const schema::SignatureIndex index = MakeMessyIndex(11);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const util::Deadline deadline = util::Deadline::Cancellable();
    deadline.RequestCancel();  // tripped before the first merge round
    const core::SortRefinement cut = core::AgglomerativeLowestK(
        *cov, Rational(9, 10), threads, deadline.token());
    // Valid partition, just coarser than the uncancelled run would produce.
    EXPECT_TRUE(core::ValidatePartition(index, cut).ok());

    const core::SortRefinement fixed =
        core::AgglomerativeFixedK(*cov, 2, threads, deadline.token());
    EXPECT_TRUE(core::ValidatePartition(index, fixed).ok());
  }
}

TEST(DeadlineTest, CancelledGreedyStaysValid) {
  const schema::SignatureIndex index = MakeMessyIndex(23);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  core::GreedyOptions options;
  const util::Deadline deadline = util::Deadline::Cancellable();
  deadline.RequestCancel();
  options.cancel = deadline.token();
  const core::SortRefinement cut = core::GreedyMaxMinSigma(*cov, 3, options);
  EXPECT_TRUE(core::ValidatePartition(index, cut).ok());
}

TEST(DeadlineTest, CancelledShardedParseLeavesValidGraph) {
  std::string text;
  for (int i = 0; i < 12000; ++i) {
    text += "<http://x/s" + std::to_string(i % 57) + "> <http://x/p" +
            std::to_string(i % 7) + "> \"v" + std::to_string(i) + "\" .\n";
  }
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const util::Deadline deadline = util::Deadline::Cancellable();
    deadline.RequestCancel();
    rdf::ParseOptions options;
    options.threads = threads;
    options.min_chunk_bytes = 1;
    options.cancel = deadline.token();
    rdf::Graph graph;
    const Status st = rdf::ParseNTriplesInto(text, &graph, options);
    EXPECT_EQ(st.code(), StatusCode::kCancelled) << st.ToString();
    // Sequential keeps a prefix, sharded may leave the graph empty; both
    // must be coherent (aborts on corruption).
    graph.CheckInvariants();
  }
}

TEST(DeadlineTest, CancelledMergeLeavesDestinationEmpty) {
  // MergeShards refuses to mutate the destination once the token tripped.
  const std::string text =
      "<http://x/a> <http://x/p> \"1\" .\n"
      "<http://x/b> <http://x/p> \"2\" .\n";
  std::vector<rdf::Graph> shards(2);
  ASSERT_TRUE(rdf::ParseNTriplesInto(text, &shards[0]).ok());
  ASSERT_TRUE(rdf::ParseNTriplesInto(text, &shards[1]).ok());
  const util::Deadline deadline = util::Deadline::Cancellable();
  deadline.RequestCancel();
  util::ThreadPool pool(2);
  rdf::Graph merged;
  const Status st =
      merged.MergeShards(&shards, shards.size(), &pool, deadline.token());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(merged.size(), 0u);
  merged.CheckInvariants();
}

// --- solver anytime semantics ------------------------------------------------

TEST(DeadlineTest, CancelledMipReportsStopReason) {
  // A 0-1 knapsack-ish model the solver would normally decide instantly; a
  // pre-tripped token must unwind at the first node with the reason recorded.
  ilp::Model model;
  const int x = model.AddBinary("x");
  const int y = model.AddBinary("y");
  model.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, 1.0, 2.0);
  const util::Deadline deadline = util::Deadline::Cancellable();
  deadline.RequestCancel();
  ilp::MipOptions options;
  options.cancel = deadline.token();
  const ilp::MipResult result = ilp::SolveMip(model, options);
  EXPECT_EQ(result.status, ilp::MipStatus::kUnknown);
  EXPECT_EQ(result.stop_reason, ilp::MipStopReason::kCancelled);
}

TEST(DeadlineTest, ExistsReturnsUnknownWithLimitOnTrippedToken) {
  const schema::SignatureIndex index = MakeMessyIndex(5);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  core::SolverOptions options;
  options.deadline = util::Deadline::After(-1.0);  // already expired
  core::RefinementSolver solver(cov.get(), options);
  const core::DecisionResult r = solver.Exists(3, Rational(99, 100));
  EXPECT_EQ(r.decision, core::Decision::kUnknown);
  EXPECT_EQ(r.limit.code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, HighestThetaCutMidGridKeepsBestIncumbent) {
  // Acceptance lock: a HighestTheta run cut by an expired deadline still
  // returns the best incumbent found (at worst the sigma_all baseline one-
  // sort partition) and flags the cut — timed_out set, ceiling not proven.
  const schema::SignatureIndex index = MakeMessyIndex(7);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  core::SolverOptions options;
  // This test is about deadline semantics, not exact solving: gate the MIP at
  // the messy index's size so the re-armed full run below stays heuristic
  // (otherwise its endgame instance churns to the MIP time limit).
  options.max_mip_rows = 4000;
  options.deadline = util::Deadline::After(-1.0);
  core::RefinementSolver solver(cov.get(), options);
  const core::HighestThetaResult cut = solver.FindHighestTheta(2);
  EXPECT_TRUE(cut.timed_out);
  EXPECT_FALSE(cut.ceiling_proven);
  EXPECT_TRUE(core::ValidatePartition(index, cut.refinement).ok());
  // The incumbent's guarantee still holds exactly: every sort >= theta.
  EXPECT_TRUE(
      core::ValidateRefinement(*cov, cut.refinement, cut.theta).ok());

  // Re-arming the deadline on the same solver (the api::Analysis pattern)
  // lets the identical query run to completion.
  solver.set_deadline(util::Deadline());
  const core::HighestThetaResult full = solver.FindHighestTheta(2);
  EXPECT_FALSE(full.timed_out);
  EXPECT_GE(full.theta, cut.theta);
}

TEST(DeadlineTest, LowestKFailsWithDeadlineExceeded) {
  const schema::SignatureIndex index = MakeMessyIndex(13);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  core::SolverOptions options;
  options.deadline = util::Deadline::After(-1.0);
  core::RefinementSolver solver(cov.get(), options);
  const auto result = solver.FindLowestK(Rational(1));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

/// Delegates to `inner` and cancels `deadline` on the `trip_at`-th
/// merged-stats probe — a deterministic trip inside the agglomerative engine,
/// the only caller of CountsFromMergedStats. Single-threaded use only.
class CancelAfterMergeProbes : public eval::Evaluator {
 public:
  CancelAfterMergeProbes(const eval::Evaluator* inner, util::Deadline deadline,
                         std::size_t trip_at)
      : inner_(inner), deadline_(std::move(deadline)), trip_at_(trip_at) {}

  const rules::Rule& rule() const override { return inner_->rule(); }
  const schema::SignatureIndex& index() const override {
    return inner_->index();
  }
  eval::SortStats MakeStats() const override { return inner_->MakeStats(); }
  eval::SigmaCounts CountsFromStats(
      const eval::SortStats& stats) const override {
    return inner_->CountsFromStats(stats);
  }
  eval::SigmaCounts CountsFromMergedStats(
      const eval::SortStats& a, const eval::SortStats& b) const override {
    if (++probes_ == trip_at_) deadline_.RequestCancel();
    return inner_->CountsFromMergedStats(a, b);
  }
  bool cheap_stats() const override { return inner_->cheap_stats(); }

 private:
  const eval::Evaluator* inner_;
  util::Deadline deadline_;
  std::size_t trip_at_;
  mutable std::size_t probes_ = 0;
};

TEST(DeadlineTest, TrippedHeuristicsDoNotPoisonTheCaches) {
  // A solver whose first query ran under an expired deadline must not serve
  // the truncated heuristic results to a later, un-deadlined query: the
  // second run decides and matches a fresh solver bit for bit.
  const schema::SignatureIndex index = MakeMessyIndex(29);
  auto cov = eval::MakeEvaluator(rules::CovRule(), &index);
  core::SolverOptions options;
  // Deadline-semantics test: gate the MIP at this index's size so the
  // un-deadlined sweeps stay in the heuristic regime (the exact endgame
  // would otherwise churn to the MIP time limit on every sweep).
  options.max_mip_rows = 4000;
  options.deadline = util::Deadline::After(-1.0);
  core::RefinementSolver reused(cov.get(), options);
  (void)reused.FindHighestTheta(2);  // cut immediately; may cache nothing
  reused.set_deadline(util::Deadline());
  const core::HighestThetaResult warm = reused.FindHighestTheta(2);

  core::SolverOptions fresh_options;
  fresh_options.max_mip_rows = 4000;
  core::RefinementSolver fresh(cov.get(), fresh_options);
  const core::HighestThetaResult cold = fresh.FindHighestTheta(2);
  EXPECT_FALSE(warm.timed_out);
  EXPECT_EQ(warm.theta, cold.theta);
  EXPECT_EQ(warm.refinement.sorts, cold.refinement.sorts);

  // Now a deadline that trips while the first ladder call is building the
  // agglomerative merge list: the truncated list must not be cached, so the
  // re-armed solver answers both searches exactly like a fresh one. Every
  // exact solve is gated so the lowest-k sweep stays in the heuristic regime.
  core::SolverOptions gated;
  gated.max_mip_rows = 0;
  core::RefinementSolver gated_fresh(cov.get(), gated);
  const std::size_t n = index.num_signatures();
  const util::Deadline tripping = util::Deadline::Cancellable();
  // Past the initial n(n-1)/2 row probes, inside the merge loop.
  CancelAfterMergeProbes probed(cov.get(), tripping, n * (n - 1) / 2 + 8);
  core::SolverOptions tripping_options = gated;
  tripping_options.deadline = tripping;
  core::RefinementSolver cut_mid_build(&probed, tripping_options);
  const core::HighestThetaResult cut = cut_mid_build.FindHighestTheta(2);
  ASSERT_TRUE(tripping.token().cancelled());
  EXPECT_TRUE(cut.timed_out);
  cut_mid_build.set_deadline(util::Deadline());

  const core::HighestThetaResult rearmed = cut_mid_build.FindHighestTheta(2);
  const core::HighestThetaResult gated_cold = gated_fresh.FindHighestTheta(2);
  EXPECT_FALSE(rearmed.timed_out);
  EXPECT_EQ(rearmed.theta, gated_cold.theta);
  EXPECT_EQ(rearmed.refinement.sorts, gated_cold.refinement.sorts);
  EXPECT_EQ(rearmed.instances, gated_cold.instances);
  EXPECT_EQ(rearmed.ceiling_proven, gated_cold.ceiling_proven);

  const Rational theta(1, 2);  // k = 6 here: a short heuristic sweep
  const auto rearmed_k = cut_mid_build.FindLowestK(theta);
  const auto cold_k = gated_fresh.FindLowestK(theta);
  ASSERT_EQ(rearmed_k.ok(), cold_k.ok());
  if (cold_k.ok()) {
    EXPECT_EQ(rearmed_k->k, cold_k->k);
    EXPECT_EQ(rearmed_k->refinement.sorts, cold_k->refinement.sorts);
    EXPECT_EQ(rearmed_k->instances, cold_k->instances);
    EXPECT_EQ(rearmed_k->proven_minimal, cold_k->proven_minimal);
  } else {
    EXPECT_EQ(rearmed_k.status().code(), cold_k.status().code());
  }
}

// --- api surface -------------------------------------------------------------

TEST(DeadlineTest, AnalysisTimeoutSurfacesTimedOutRefinement) {
  gen::RandomGraphSpec spec;
  spec.num_subjects = 120;
  spec.num_properties = 10;
  spec.num_sorts = 2;
  spec.seed = 3;
  const std::string text = rdf::WriteNTriples(gen::GenerateRandomGraph(spec));
  auto dataset = api::Dataset::FromNTriplesText(text);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto analysis = dataset->Analyze("cov");
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  // Timeout-semantics test: gate the MIP at this graph's encoding size so the
  // cleared-budget runs below stay in the heuristic regime instead of
  // churning on the exact endgame instance.
  core::SolverOptions gated;
  gated.max_mip_rows = 4000;
  analysis->With(std::move(gated));

  // An effectively-zero budget: the search is cut through the anytime path
  // but still yields the baseline incumbent.
  analysis->Timeout(1e-9);
  auto cut = analysis->HighestTheta(2);
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  EXPECT_TRUE(cut->timed_out);
  EXPECT_FALSE(cut->optimal);
  EXPECT_GE(cut->num_sorts(), 1u);

  // Clearing the budget reuses the same solver (caches intact) and decides.
  analysis->Timeout(0.0);
  auto full = analysis->HighestTheta(2);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->timed_out);
  EXPECT_GE(full->theta, cut->theta);

  // LowestK under the zero budget fails loudly instead of fabricating a k.
  analysis->Timeout(1e-9);
  auto lowest = analysis->LowestK(1.0);
  ASSERT_FALSE(lowest.ok());
  EXPECT_EQ(lowest.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(DeadlineTest, HugeAnalysisTimeoutDoesNotCutTheSearch) {
  // The quickstart dataset: alice and carol carry name/email/birthDate, bob
  // and dave only name, so k = 2 splits them into two fully structured sorts.
  constexpr const char* kQuickstart = R"(
<http://x/alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/alice> <http://x/name> "Alice" .
<http://x/alice> <http://x/email> "alice@example.org" .
<http://x/alice> <http://x/birthDate> "1990-01-01" .
<http://x/bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/bob> <http://x/name> "Bob" .
<http://x/carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/carol> <http://x/name> "Carol" .
<http://x/carol> <http://x/email> "carol@example.org" .
<http://x/carol> <http://x/birthDate> "1985-05-05" .
<http://x/dave> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Person> .
<http://x/dave> <http://x/name> "Dave" .
)";
  auto dataset =
      api::Dataset::FromNTriplesText(kQuickstart, {.sort = "http://x/Person"});
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto analysis = dataset->Analyze("cov");
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  analysis->Timeout(1e10);
  auto refinement = analysis->HighestTheta(2);
  ASSERT_TRUE(refinement.ok()) << refinement.status().ToString();
  EXPECT_FALSE(refinement->timed_out);
  EXPECT_EQ(refinement->theta, Rational(1));
}

}  // namespace
}  // namespace rdfsr
