#include "ilp/branch_and_bound.h"

#include <algorithm>
#include <cmath>

#include "ilp/presolve.h"
#include "util/timer.h"

namespace rdfsr::ilp {

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kFeasible:
      return "Feasible";
    case MipStatus::kInfeasible:
      return "Infeasible";
    case MipStatus::kUnknown:
      return "Unknown";
  }
  return "Unknown";
}

const char* MipStopReasonName(MipStopReason reason) {
  switch (reason) {
    case MipStopReason::kNone:
      return "None";
    case MipStopReason::kLpNumericalFailure:
      return "LpNumericalFailure";
    case MipStopReason::kNodeLimit:
      return "NodeLimit";
    case MipStopReason::kTimeLimit:
      return "TimeLimit";
    case MipStopReason::kLpIterationLimit:
      return "LpIterationLimit";
    case MipStopReason::kCancelled:
      return "Cancelled";
    case MipStopReason::kDeadline:
      return "Deadline";
  }
  return "None";
}

namespace {

constexpr double kOne = 1.0;
/// Work cap for the root probing pass, in row-term evaluations. Keeps the
/// pass a fixed small fraction of a big instance's solve time.
constexpr long long kProbeBudget = 2000000;

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const MipOptions& options)
      : model_(model), options_(options) {
    const std::size_t n = model.num_variables();
    lb_.resize(n);
    ub_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      lb_[j] = model.variable(j).lower;
      ub_[j] = model.variable(j).upper;
    }
    pc_down_.assign(n, 0.0);
    pc_up_.assign(n, 0.0);
    cnt_down_.assign(n, 0);
    cnt_up_.assign(n, 0);
  }

  MipResult Run() {
    bool root_infeasible = false;
    if (!ShouldStop()) root_infeasible = !Probe();
    if (!root_infeasible) Dfs(options_.warm_basis, nullptr);
    MipResult result;
    result.nodes = nodes_;
    result.seconds = timer_.Seconds();
    result.lp_iteration_limit_hits = lp_iteration_limit_hits_;
    result.lp_numerical_failures = lp_numerical_failures_;
    if (found_) {
      result.x = std::move(point_);
      result.status = MipStatus::kFeasible;
    } else {
      result.status = exhausted_ ? MipStatus::kInfeasible : MipStatus::kUnknown;
      result.stop_reason = stop_reason_;
      // LP iteration limits and numerical failures never unwind the search
      // by themselves; report them only when nothing stronger stopped us but
      // the tree is still undecided.
      if (result.stop_reason == MipStopReason::kNone && !exhausted_) {
        if (lp_iteration_limit_hits_ > 0) {
          result.stop_reason = MipStopReason::kLpIterationLimit;
        } else if (lp_numerical_failures_ > 0) {
          result.stop_reason = MipStopReason::kLpNumericalFailure;
        }
      }
    }
    result.lp_stats = lp_stats_;
    result.root_basis = std::move(root_basis_);
    return result;
  }

 private:
  /// Returns true when the search should unwind completely.
  bool ShouldStop() {
    if (found_ || stopped_early_) return true;
    if (options_.cancel.stop_requested()) {
      exhausted_ = false;
      stopped_early_ = true;
      stop_reason_ = options_.cancel.cancelled() ? MipStopReason::kCancelled
                                                 : MipStopReason::kDeadline;
      return true;
    }
    if (nodes_ >= options_.max_nodes) {
      exhausted_ = false;
      stopped_early_ = true;
      stop_reason_ = MipStopReason::kNodeLimit;
      return true;
    }
    if (timer_.Seconds() >= options_.time_limit_seconds) {
      exhausted_ = false;
      stopped_early_ = true;
      stop_reason_ = MipStopReason::kTimeLimit;
      return true;
    }
    return false;
  }

  /// The branch a node was created by, for pseudo-cost bookkeeping.
  struct BranchInfo {
    int var;
    bool up;
    double dist;         ///< Distance from the LP value to the branch bound.
    double parent_frac;  ///< Parent node's total fractionality.
  };

  /// Root-fixing pass: propagate the row implications, then probe each
  /// still-free binary at both values; a value whose propagation is
  /// infeasible fixes the variable (adopting the surviving side's propagated
  /// bounds, which hold for every feasible solution). Returns false when the
  /// model is proven infeasible outright.
  bool Probe() {
    if (!PropagateBounds(model_, &lb_, &ub_, 2)) return false;
    long long budget = kProbeBudget;
    const std::size_t n = model_.num_variables();
    for (std::size_t j = 0; j < n && budget > 0; ++j) {
      if (!model_.variable(j).is_integer) continue;
      if (lb_[j] != 0.0 || ub_[j] != kOne) continue;  // only free binaries
      std::vector<double> lb0 = lb_, ub0 = ub_;
      ub0[j] = 0.0;
      const bool feasible0 = PropagateBounds(model_, &lb0, &ub0, 2, &budget);
      std::vector<double> lb1 = lb_, ub1 = ub_;
      lb1[j] = kOne;
      const bool feasible1 = PropagateBounds(model_, &lb1, &ub1, 2, &budget);
      if (!feasible0 && !feasible1) return false;
      if (!feasible0) {
        lb_ = std::move(lb1);
        ub_ = std::move(ub1);
      } else if (!feasible1) {
        lb_ = std::move(lb0);
        ub_ = std::move(ub0);
      }
    }
    return PropagateBounds(model_, &lb_, &ub_, 2);
  }

  /// Per-unit degradation observed by solving a child node's LP: the
  /// decrease in total fractionality.
  void RecordPseudoCost(const BranchInfo& info, double frac) {
    const double gain = std::max(info.parent_frac - frac, 0.0);
    const double dist = std::max(info.dist, options_.integer_tol);
    if (info.up) {
      pc_up_[info.var] += gain / dist;
      ++cnt_up_[info.var];
    } else {
      pc_down_[info.var] += gain / dist;
      ++cnt_down_[info.var];
    }
  }

  void Dfs(const SimplexBasis* warm, const BranchInfo* pending) {
    if (ShouldStop()) return;
    ++nodes_;

    SimplexOptions lp_options = options_.lp;
    if (warm != nullptr && !warm->empty()) {
      lp_options.warm_start = warm;
    }
    const LpResult lp = SolveLp(model_, lp_options, &lb_, &ub_);
    lp_stats_.MergeWith(lp.stats);
    if (nodes_ == 1) root_basis_ = lp.basis;
    if (lp.status == LpStatus::kInfeasible) return;  // prune
    if (lp.status == LpStatus::kIterationLimit) {
      // Cannot trust this subtree either way.
      exhausted_ = false;
      ++lp_iteration_limit_hits_;
      return;
    }
    if (lp.status == LpStatus::kCancelled) {
      // The token tripped mid-LP; the next ShouldStop records the reason and
      // unwinds the whole search.
      exhausted_ = false;
      return;
    }
    if (lp.status == LpStatus::kNumericalFailure) {
      // The relaxation decided nothing; the subtree stays undecided.
      exhausted_ = false;
      ++lp_numerical_failures_;
      return;
    }

    // Branch-candidate scan, pseudo-cost product rule. Total fractionality
    // feeds the pseudo-cost update. Unvisited directions score 1.0, so with
    // no history this reduces exactly to the most-fractional rule (f * (1-f)
    // is monotone in the distance to the nearest integer).
    int branch_var = -1;
    double total_frac = 0.0;
    double best_score = 0.0;
    for (std::size_t j = 0; j < model_.num_variables(); ++j) {
      if (!model_.variable(j).is_integer) continue;
      const double v = lp.x[j];
      const double f = v - std::floor(v);
      const double frac = std::min(f, 1.0 - f);
      total_frac += frac;
      if (frac <= options_.integer_tol) continue;
      const double down = cnt_down_[j] > 0 ? pc_down_[j] / cnt_down_[j] : kOne;
      const double up = cnt_up_[j] > 0 ? pc_up_[j] / cnt_up_[j] : kOne;
      const double score = (down * f) * (up * (1.0 - f));
      if (branch_var < 0 || score > best_score) {
        best_score = score;
        branch_var = static_cast<int>(j);
      }
    }
    if (pending != nullptr) RecordPseudoCost(*pending, total_frac);

    if (branch_var < 0) {
      // Integral: round, and the first point that survives ends the search.
      std::vector<double> x = lp.x;
      for (std::size_t j = 0; j < model_.num_variables(); ++j) {
        if (model_.variable(j).is_integer) x[j] = std::round(x[j]);
      }
      if (!model_.IsFeasible(x, 1e-5)) {
        // Rounding broke a tight constraint; treat the node as undecided
        // rather than report a wrong point.
        exhausted_ = false;
        ++lp_numerical_failures_;
        return;
      }
      found_ = true;
      point_ = std::move(x);
      return;
    }

    const double v = lp.x[branch_var];
    const double floor_v = std::floor(v);
    const double ceil_v = floor_v + 1.0;
    const double saved_lb = lb_[branch_var];
    const double saved_ub = ub_[branch_var];

    // Nearest side first (diving): below if frac < 0.5. Children reuse this
    // node's final basis as their LP warm start.
    // lint:allow(float-compare: branching-order heuristic, both sides explored)
    const bool down_first = (v - floor_v) < 0.5;
    for (int side = 0; side < 2; ++side) {
      const bool down = (side == 0) == down_first;
      BranchInfo info{branch_var, !down, down ? v - floor_v : ceil_v - v,
                      total_frac};
      if (down) {
        ub_[branch_var] = floor_v;
        if (lb_[branch_var] <= ub_[branch_var]) Dfs(&lp.basis, &info);
        ub_[branch_var] = saved_ub;
      } else {
        lb_[branch_var] = ceil_v;
        if (lb_[branch_var] <= ub_[branch_var]) Dfs(&lp.basis, &info);
        lb_[branch_var] = saved_lb;
      }
      if (found_ || stopped_early_) return;
    }
  }

  const Model& model_;
  const MipOptions& options_;
  std::vector<double> lb_, ub_;
  std::vector<double> pc_down_, pc_up_;  // pseudo-cost degradation sums
  std::vector<int> cnt_down_, cnt_up_;   // observations per direction
  LpEngineStats lp_stats_;
  SimplexBasis root_basis_;
  WallTimer timer_;

  long long nodes_ = 0;
  long long lp_iteration_limit_hits_ = 0;
  long long lp_numerical_failures_ = 0;
  MipStopReason stop_reason_ = MipStopReason::kNone;
  bool exhausted_ = true;
  bool stopped_early_ = false;  // a limit or the token unwound the search
  bool found_ = false;          // point_ holds an integral point
  std::vector<double> point_;
};

}  // namespace

MipResult SolveMip(const Model& model, const MipOptions& options) {
  // Solve entry is the core -> ilp layer boundary: audit builds re-validate
  // the (possibly Reweight-rewritten) model before branching on it.
  RDFSR_AUDIT_CHECK_INVARIANTS(model);
  // Forward the node-level token into the simplex loops so a trip cuts a
  // long LP solve, not just the next node boundary.
  MipOptions opts = options;
  if (opts.cancel.can_trip() && !opts.lp.cancel.can_trip()) {
    opts.lp.cancel = opts.cancel;
  }
  if (!opts.use_presolve) {
    BranchAndBound solver(model, opts);
    return solver.Run();
  }
  const PresolveResult pre = Presolve(model);
  if (pre.proven_infeasible) {
    MipResult result;
    result.status = MipStatus::kInfeasible;
    return result;
  }
  BranchAndBound solver(pre.reduced, opts);
  MipResult result = solver.Run();
  if (result.status == MipStatus::kFeasible) {
    result.x = pre.RestoreSolution(result.x);
  }
  return result;
}

}  // namespace rdfsr::ilp
