#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "eval/closed_form.h"
#include "util/check.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace rdfsr::core {

const char* DecisionName(Decision decision) {
  switch (decision) {
    case Decision::kExists:
      return "Exists";
    case Decision::kNotExists:
      return "NotExists";
    case Decision::kUnknown:
      return "Unknown";
  }
  return "Unknown";
}

Rational ThetaGrid::Theta(std::int64_t g) const {
  const Rational value = Rational(g) * step;
  return value > Rational(1) ? Rational(1) : value;
}

ThetaGrid MakeThetaGrid(Rational sigma_all, double theta_step) {
  ThetaGrid grid;
  if (!std::isfinite(theta_step) || theta_step <= 0) {
    grid.step = Rational(1, 100);  // the paper's step
  } else if (theta_step >= 1) {
    grid.step = Rational(1);
  } else {
    grid.step = Rational::FromDouble(theta_step, 1000);
    // A step below the grid resolution collapses to the zero rational, which
    // would divide the index derivation by zero: clamp to the finest grid.
    if (grid.step.num() <= 0) grid.step = Rational(1, 1000);
  }
  RDFSR_CHECK_GE(sigma_all.num(), 0);
  // First index strictly above sigma_all, by exact integer floor division
  // (double rounding could skip a point or re-test sigma_all when it lies
  // exactly on the grid).
  const __int128 num = static_cast<__int128>(sigma_all.num()) * grid.step.den();
  const __int128 den = static_cast<__int128>(sigma_all.den()) * grid.step.num();
  grid.first = static_cast<std::int64_t>(num / den) + 1;  // >= 0: trunc = floor
  // Smallest index at or above theta = 1; Theta() clamps it to exactly 1, so
  // the endpoint is always on the grid even when step does not divide 1
  // (step = 3/100: last = 34, Theta(last) = 1, not 99/100).
  grid.last = (grid.step.den() + grid.step.num() - 1) / grid.step.num();
  return grid;
}

RefinementSolver::RefinementSolver(const eval::Evaluator* evaluator,
                                   SolverOptions options)
    : cached_(evaluator), options_(std::move(options)) {}

const eval::SigmaCounts& RefinementSolver::AllCounts() {
  if (!all_counts_.has_value()) all_counts_ = Eval().CountsAll();
  return *all_counts_;
}

const std::vector<eval::TauCount>& RefinementSolver::TauCounts() {
  if (!tau_counts_ready_) {
    tau_counts_ = eval::EnumerateTauCounts(Eval().rule(), Eval().index());
    tau_counts_ready_ = true;
  }
  return tau_counts_;
}

const std::vector<TauShape>& RefinementSolver::Shapes() {
  if (!shapes_.has_value()) {
    shapes_ = AnalyzeTaus(TauCounts(), Eval().index());
  }
  return *shapes_;
}

RefinementIlpInstance& RefinementSolver::InstanceFor(int k) {
  if (instance_ == nullptr || instance_k_ != k) {
    instance_ =
        std::make_unique<RefinementIlpInstance>(Eval().index(), Shapes(), k);
    instance_k_ = k;
  }
  return *instance_;
}

RefinementSolver::ScoredRefinement RefinementSolver::Score(
    SortRefinement refinement) const {
  ScoredRefinement scored;
  scored.structure_ok =
      ValidatePartition(Eval().index(), refinement).ok();
  if (scored.structure_ok) {
    scored.counts = SortCounts(Eval(), refinement);
  }
  scored.refinement = std::move(refinement);
  return scored;
}

const RefinementSolver::ScoredRefinement& RefinementSolver::AgglomerativeCut(
    const std::function<std::size_t(const std::vector<AgglomerativeMerge>&)>&
        cut) {
  const int n = static_cast<int>(Eval().index().num_signatures());
  if (!merges_.has_value()) {
    // One dendrogram serves every theta and k.
    const util::CancellationToken token = options_.deadline.token();
    std::vector<AgglomerativeMerge> merges =
        AgglomerativeMerges(Eval(), options_.heuristic_threads, token);
    if (token.stop_requested()) {
      // A list built under a tripped token may be truncated; keep it out of
      // the cache so a later, un-deadlined query rebuilds it in full. This
      // call gets the cut of the truncated list.
      scratch_scored_ = Score(ReplayMerges(n, merges, cut(merges)));
      return scratch_scored_;
    }
    merges_ = std::move(merges);
  }
  const std::size_t length = cut(*merges_);
  auto it = cut_cache_.find(length);
  if (it == cut_cache_.end()) {
    it = cut_cache_.emplace(length, Score(ReplayMerges(n, *merges_, length)))
             .first;
  }
  return it->second;
}

const RefinementSolver::ScoredRefinement&
RefinementSolver::AgglomerativeForTheta(Rational theta) {
  return AgglomerativeCut(
      [theta](const std::vector<AgglomerativeMerge>& merges) {
        return ThetaCut(merges, theta);
      });
}

const RefinementSolver::ScoredRefinement&
RefinementSolver::AgglomerativeFixedKFor(int k) {
  const int n = static_cast<int>(Eval().index().num_signatures());
  const std::size_t n_minus_k = n > k ? static_cast<std::size_t>(n - k) : 0;
  return AgglomerativeCut(
      [n_minus_k](const std::vector<AgglomerativeMerge>& merges) {
        return std::min(n_minus_k, merges.size());
      });
}

const RefinementSolver::ScoredRefinement& RefinementSolver::GreedyFor(int k) {
  GreedyOptions greedy = options_.greedy;
  greedy.cancel = options_.deadline.token();
  auto it = greedy_cache_.find(k);
  if (it != greedy_cache_.end()) return it->second;
  ScoredRefinement scored = Score(GreedyMaxMinSigma(Eval(), k, greedy));
  if (greedy.cancel.stop_requested()) {
    scratch_scored_ = std::move(scored);
    return scratch_scored_;
  }
  return greedy_cache_.emplace(k, std::move(scored)).first->second;
}

namespace {

/// Translates the reason a MIP search stopped undecided into the Status
/// surfaced on DecisionResult::limit. Limits name themselves and their counts
/// so operators can tell a tree-size problem from a numerical-budget one.
Status MipLimitStatus(const ilp::MipResult& mip, const ilp::MipOptions& mip_options) {
  std::ostringstream msg;
  switch (mip.stop_reason) {
    case ilp::MipStopReason::kCancelled:
      msg << "MIP search cancelled after " << mip.nodes << " nodes";
      return Status::Cancelled(msg.str());
    case ilp::MipStopReason::kDeadline:
      msg << "MIP search cut by deadline after " << mip.nodes << " nodes";
      return Status::DeadlineExceeded(msg.str());
    case ilp::MipStopReason::kNodeLimit:
      msg << "MIP node limit reached (max_nodes = " << mip_options.max_nodes
          << ")";
      return Status::ResourceExhausted(msg.str());
    case ilp::MipStopReason::kTimeLimit:
      msg << "MIP time limit reached (time_limit_seconds = "
          << mip_options.time_limit_seconds << ", explored " << mip.nodes
          << " nodes)";
      return Status::ResourceExhausted(msg.str());
    case ilp::MipStopReason::kLpIterationLimit:
      msg << "LP iteration limit (max_iterations = "
          << mip_options.lp.max_iterations << ") hit in "
          << mip.lp_iteration_limit_hits << " node relaxation(s)";
      return Status::ResourceExhausted(msg.str());
    case ilp::MipStopReason::kLpNumericalFailure:
      msg << "LP numerical failure in " << mip.lp_numerical_failures
          << " node(s) left the MIP search undecided";
      return Status::ResourceExhausted(msg.str());
    case ilp::MipStopReason::kNone:
      break;
  }
  // Undecided without a recorded cause: still explain why the answer is
  // missing.
  msg << "MIP search undecided after " << mip.nodes << " nodes";
  return Status::ResourceExhausted(msg.str());
}

}  // namespace

DecisionResult RefinementSolver::Exists(int k, Rational theta) {
  WallTimer timer;
  DecisionResult result;
  const schema::SignatureIndex& index = Eval().index();
  RDFSR_CHECK_GT(k, 0);
  const util::CancellationToken token = options_.deadline.token();

  if (index.num_signatures() == 0) {
    // Empty dataset: the empty partition vacuously satisfies any threshold.
    result.decision = Decision::kExists;
    result.refinement = SortRefinement{};
    result.seconds = timer.Seconds();
    return result;
  }

  // Trivial instance: the whole dataset already meets theta with one sort.
  {
    if (SigmaAtLeast(AllCounts(), theta)) {
      SortRefinement whole;
      whole.sorts.push_back(eval::AllSignatures(index));
      result.decision = Decision::kExists;
      result.refinement = std::move(whole);
      result.seconds = timer.Seconds();
      return result;
    }
  }
  // k >= |Lambda|: each signature alone is a (sub-)sort... but singleton
  // sorts are not automatically above theta, so no shortcut there.

  // Deadline checkpoint before any real work (the shortcuts above are O(1)
  // and still allowed to answer).
  if (token.stop_requested()) {
    result.decision = Decision::kUnknown;
    result.limit = token.status();
    result.seconds = timer.Seconds();
    return result;
  }

  if (options_.greedy_first && k > 1) {
    // Heuristic ladder (cheapest first): agglomerative threshold merging,
    // agglomerative k-clustering, randomized greedy + local search. Any
    // exactly-validated witness settles the instance. The ladder's
    // refinements are scored once (structure + per-sort counts); checking an
    // instance is then one exact comparison per sort.
    {
      const ScoredRefinement& agg = AgglomerativeForTheta(theta);
      if (agg.structure_ok &&
          agg.refinement.num_sorts() <= static_cast<std::size_t>(k) &&
          ValidateSortCounts(agg.counts, theta).ok()) {
        result.decision = Decision::kExists;
        result.refinement = agg.refinement;
        result.via_greedy = true;
        result.seconds = timer.Seconds();
        return result;
      }
    }
    {
      const ScoredRefinement& clustered = AgglomerativeFixedKFor(k);
      if (clustered.structure_ok &&
          ValidateSortCounts(clustered.counts, theta).ok()) {
        result.decision = Decision::kExists;
        result.refinement = clustered.refinement;
        result.via_greedy = true;
        result.seconds = timer.Seconds();
        return result;
      }
    }
    {
      const ScoredRefinement& greedy = GreedyFor(k);
      if (greedy.structure_ok &&
          ValidateSortCounts(greedy.counts, theta).ok()) {
        result.decision = Decision::kExists;
        result.refinement = greedy.refinement;
        result.via_greedy = true;
        result.seconds = timer.Seconds();
        return result;
      }
    }
  }

  // The heuristic ladder may have burned the whole budget; do not start the
  // exact solve on a tripped token.
  if (token.stop_requested()) {
    result.decision = Decision::kUnknown;
    result.limit = token.status();
    result.seconds = timer.Seconds();
    return result;
  }

  // Exact decision via the Section 6 ILP. The row count the simplex will
  // actually see is known exactly from the theta-independent tau analysis,
  // so oversized instances resolve to kUnknown before any model (or
  // skeleton) is built. With presolve on (default) the deactivated link
  // sides are dropped before the simplex, so only the active rows count;
  // without it the simplex is handed the whole skeleton.
  const std::size_t simplex_rows =
      options_.mip.use_presolve ? RefinementIlpActiveRows(index, Shapes(), k)
                                : RefinementIlpRows(index, Shapes(), k);
  if (simplex_rows > options_.max_mip_rows) {
    result.decision = Decision::kUnknown;
    std::ostringstream msg;
    msg << "exact MIP skipped: encoding has " << simplex_rows
        << " simplex rows > max_mip_rows = " << options_.max_mip_rows;
    result.limit = Status::ResourceExhausted(msg.str());
    result.seconds = timer.Seconds();
    return result;
  }
#ifdef RDFSR_FAILPOINTS_ENABLED
  {
    // Fault-injection site at the solve boundary: a planted failure must
    // surface as a clean kUnknown, never a wrong decision.
    Status fp = util::FailpointHit("ilp.solve");
    if (!fp.ok()) {
      result.decision = Decision::kUnknown;
      result.limit = std::move(fp);
      result.seconds = timer.Seconds();
      return result;
    }
  }
#endif
  RefinementIlpInstance& instance = InstanceFor(k);
  instance.Reweight(theta);
  ilp::MipOptions mip_options = options_.mip;
  if (token.can_trip() && !mip_options.cancel.can_trip()) {
    mip_options.cancel = token;
  }
  // Seed the root LP with the previous exact solve's basis when it came from
  // the same k (a Reweight step keeps the variable space). A mismatched shape
  // — presolve reductions can differ between thetas — is rejected inside the
  // MIP and simply falls back to a cold start.
  if (warm_basis_k_ == k && !warm_basis_.empty()) {
    mip_options.warm_basis = &warm_basis_;
  }
  ilp::MipResult mip = ilp::SolveMip(instance.model(), mip_options);
  result.mip_nodes = mip.nodes;
  result.lp_stats = mip.lp_stats;
  if (!mip.root_basis.empty()) {
    warm_basis_ = std::move(mip.root_basis);
    warm_basis_k_ = k;
  }
  switch (mip.status) {
    case ilp::MipStatus::kFeasible: {
      SortRefinement decoded = instance.Decode(mip.x);
      const Status valid = ValidateRefinement(Eval(), decoded, theta);
      if (valid.ok()) {
        result.decision = Decision::kExists;
        result.refinement = std::move(decoded);
      } else {
        // A numerically accepted but exactly-invalid point: do not report a
        // wrong refinement; the instance stays undecided.
        result.decision = Decision::kUnknown;
        result.limit = Status::Internal(
            "MIP incumbent failed exact validation: " + valid.message());
      }
      break;
    }
    case ilp::MipStatus::kInfeasible:
      result.decision = Decision::kNotExists;
      break;
    case ilp::MipStatus::kUnknown:
      result.decision = Decision::kUnknown;
      result.limit = MipLimitStatus(mip, mip_options);
      break;
  }
  result.seconds = timer.Seconds();
  return result;
}

HighestThetaResult RefinementSolver::FindHighestTheta(int k) {
  WallTimer timer;
  HighestThetaResult best;

  // The initial threshold sigma_r(D) is feasible with the one-sort partition
  // (the paper's starting point).
  const eval::SigmaCounts& all = AllCounts();
  Rational sigma_all(1);
  if (all.total > 0) {
    RDFSR_CHECK(all.total <= INT64_MAX);
    sigma_all = Rational(static_cast<std::int64_t>(all.favorable),
                         static_cast<std::int64_t>(all.total));
  }
  best.theta = sigma_all;
  best.refinement.sorts.push_back(eval::AllSignatures(Eval().index()));
  best.instances = 0;

  const ThetaGrid grid = MakeThetaGrid(sigma_all, options_.theta_step);
  if (grid.first > grid.last) {
    // sigma_all is already 1: nothing lies above the baseline.
    best.ceiling_proven = true;
    best.seconds = timer.Seconds();
    return best;
  }

  const util::CancellationToken token = options_.deadline.token();
  // Sequential search upward on the grid (paper Section 7: preferred over
  // bisection because infeasible instances are far slower than feasible ones,
  // and the sequential scan meets exactly one infeasible instance).
  for (std::int64_t g = grid.first; g <= grid.last; ++g) {
    // Anytime early-out: keep the incumbent (at worst the sigma_all baseline)
    // and mark the scan as cut, never as a proven ceiling.
    if (token.stop_requested()) {
      best.timed_out = true;
      break;
    }
    const Rational theta = grid.Theta(g);
    DecisionResult r = Exists(k, theta);
    ++best.instances;
    best.mip_nodes += r.mip_nodes;
    best.lp_stats.MergeWith(r.lp_stats);
    if (r.decision == Decision::kExists) {
      best.theta = theta;
      best.refinement = std::move(*r.refinement);
      // Reaching the endpoint (theta = 1) proves the ceiling: no threshold
      // above 1 is satisfiable.
      if (g == grid.last) best.ceiling_proven = true;
      continue;
    }
    best.ceiling_proven = (r.decision == Decision::kNotExists);
    // An instance left undecided because the token tripped mid-solve.
    if (r.decision == Decision::kUnknown &&
        (r.limit.code() == StatusCode::kDeadlineExceeded ||
         r.limit.code() == StatusCode::kCancelled)) {
      best.timed_out = true;
    }
    break;
  }
  best.seconds = timer.Seconds();
  return best;
}

Result<LowestKResult> RefinementSolver::FindLowestK(Rational theta, int max_k) {
  WallTimer timer;
  const int n = static_cast<int>(Eval().index().num_signatures());
  if (max_k <= 0) max_k = std::max(n, 1);

  LowestKResult out;
  out.proven_minimal = true;
  bool undecided = false;
  bool deadline_hit = false;
  Status last_limit = Status::OK();
  const util::CancellationToken token = options_.deadline.token();
  for (int k = 1; k <= max_k; ++k) {
    // Once the token trips every further instance is an instant kUnknown, so
    // sweeping on would only inflate the statistics.
    if (token.stop_requested()) {
      deadline_hit = true;
      break;
    }
    DecisionResult r = Exists(k, theta);
    ++out.instances;
    out.mip_nodes += r.mip_nodes;
    out.lp_stats.MergeWith(r.lp_stats);
    if (r.decision == Decision::kExists) {
      out.k = k;
      out.refinement = std::move(*r.refinement);
      out.timed_out = deadline_hit;
      out.seconds = timer.Seconds();
      return out;
    }
    if (r.decision == Decision::kUnknown) {
      undecided = true;
      out.proven_minimal = false;
      if (!r.limit.ok()) last_limit = r.limit;
      if (r.limit.code() == StatusCode::kDeadlineExceeded ||
          r.limit.code() == StatusCode::kCancelled) {
        deadline_hit = true;
      }
    }
  }
  // Exhausted (or cut). Distinguish a proof (every k <= max_k infeasible)
  // from an undecided sweep (some instances hit solver limits), and keep the
  // search statistics in the message — callers see how much work the failure
  // cost.
  std::ostringstream detail;
  detail << "theta = " << theta.ToString() << " and k <= " << max_k << " ("
         << out.instances << " instances, " << timer.Seconds() << " s)";
  if (deadline_hit) {
    const std::string msg =
        "lowest-k search cut before an answer: no sort refinement found with " +
        detail.str();
    return token.cancelled() ? Status::Cancelled(msg)
                             : Status::DeadlineExceeded(msg);
  }
  if (undecided) {
    std::string msg =
        "undecided: found no sort refinement with " + detail.str() +
        ", but some instances exceeded solver limits; one may still exist";
    if (!last_limit.ok()) msg += " (last limit: " + last_limit.message() + ")";
    return Status::ResourceExhausted(std::move(msg));
  }
  return Status::NotFound("proven: no sort refinement with " + detail.str());
}

}  // namespace rdfsr::core
