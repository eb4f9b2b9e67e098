#include "ilp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace rdfsr::ilp {

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "Optimal";
    case LpStatus::kInfeasible:
      return "Infeasible";
    case LpStatus::kNumericalFailure:
      return "NumericalFailure";
    case LpStatus::kIterationLimit:
      return "IterationLimit";
    case LpStatus::kCancelled:
      return "Cancelled";
  }
  return "Unknown";
}

namespace {

constexpr double kPivotEps = 1e-9;
/// A dual pivot-row entry alpha_j = (B^-T e_r) . a_j at most this times
/// max|B^-T e_r| * max|a_j| is roundoff, not a coefficient.
constexpr double kRoundoffRel = 1e-11;
/// Basic values are recomputed from the factorization every this many
/// iterations, so drift from the incremental step updates stays bounded.
constexpr int kRefreshInterval = 128;
/// The dual simplex's cost perturbation: nonbasic column j gets a cost of
/// magnitude in [kCostPerturbation, 2 * kCostPerturbation), fixed by j.
constexpr double kCostPerturbation = 1e-6;
/// Largest relative disagreement between the dual's pivot element computed
/// from the pivot row and from the entering column before the dual
/// refactorizes.
constexpr double kPivotAgreementTol = 1e-7;
/// Audit builds: a point refutes a dual "infeasible" when it meets the node
/// bounds and the rows within this tolerance.
constexpr double kAuditFeasTol = 1e-6;

/// The perturbation magnitude of column j, in [kCostPerturbation,
/// 2 * kCostPerturbation): the splitmix64 finalizer of j scaled into the
/// interval. A function of j alone, so solves stay bit-identical at any
/// thread count.
double CostPerturbation(int j) {
  std::uint64_t h = static_cast<std::uint64_t>(j) + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return kCostPerturbation * (1.0 + static_cast<double>(h >> 11) * 0x1.0p-53);
}

/// Internal solver state for one LP solve.
class Simplex {
 public:
  Simplex(const Model& model, const SimplexOptions& options,
          const std::vector<double>* lower, const std::vector<double>* upper)
      : options_(options),
        feas_tol_(std::max(10 * options.tol, 1e-6)),
        n_struct_(static_cast<int>(model.num_variables())),
        m_(static_cast<int>(model.num_constraints())),
        n_(n_struct_ + m_),
        segment_(std::max(64, n_ / 8)),
        bland_after_(2000 + 20 * (m_ + n_)),
        rows_(model.constraints()),
        basis_(MakeLuFactorization(m_)) {
    lb_.resize(n_);
    ub_.resize(n_);
    cols_.resize(n_);
    for (int j = 0; j < n_struct_; ++j) {
      lb_[j] = lower != nullptr ? (*lower)[j] : model.variable(j).lower;
      ub_[j] = upper != nullptr ? (*upper)[j] : model.variable(j).upper;
    }
    for (int r = 0; r < m_; ++r) {
      const Constraint& c = model.constraint(r);
      for (const LinTerm& t : c.terms) {
        cols_[t.var].push_back({r, t.coef});
      }
      const int slack = n_struct_ + r;
      cols_[slack].push_back({r, -1.0});
      lb_[slack] = c.lower;
      ub_[slack] = c.upper;
    }

    warm_started_ = AdoptWarmBasis(options.warm_start);
    if (!warm_started_) {
      // Cold start: slack basis (B = -I), structurals parked at a bound.
      basic_.resize(m_);
      state_.assign(n_, BasisStatus::kAtLower);
      for (int r = 0; r < m_; ++r) {
        basic_[r] = n_struct_ + r;
        state_[n_struct_ + r] = BasisStatus::kBasic;
      }
      for (int j = 0; j < n_struct_; ++j) SetNonbasicAtBound(j);
    } else {
      ++stats_.basis_reuses;
    }
    x_.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j) {
      if (state_[j] == BasisStatus::kBasic) continue;
      x_[j] = state_[j] == BasisStatus::kAtLower   ? lb_[j]
              : state_[j] == BasisStatus::kAtUpper ? ub_[j]
                                                   : 0.0;
    }
    Factorize();  // also repairs a stale warm basis and recomputes basics
  }

  LpResult Run() {
    util::PeriodicCheck check(options_.cancel, 128);
    int iter = 0;
    LpStatus status = LpStatus::kIterationLimit;
    // A warm basis goes to the dual simplex, which hands it to the primal
    // loop when it cannot finish; a cold start runs the primal alone.
    if (!warm_started_ || !RunDual(&check, &iter, &status)) {
      status = RunPrimal(&check, &iter);
    }
    LpResult result;
    result.status = status;
    result.iterations = iter;
    Extract(&result);
    return result;
  }

  /// True when the dual simplex returned this solve's kInfeasible.
  bool dual_infeasible() const { return dual_infeasible_; }

 private:
  /// Primal phase 1 from the current basis, counting iterations on from
  /// `*iter`.
  LpStatus RunPrimal(util::PeriodicCheck* check, int* iter) {
    for (; *iter < options_.max_iterations; ++*iter) {
      if (check->ShouldStop()) return LpStatus::kCancelled;
      if (*iter > 0 && *iter % kRefreshInterval == 0) RecomputeBasics();
      // Every verdict uses phase 1's own rule on refreshed basics: a basic is
      // infeasible when it alone violates a bound by more than feas_tol_ (a
      // sum of violations would call many tiny, tolerated ones infeasible).
      if (!ComputePhase1Costs()) {
        // Feasible by the incremental values. If the refresh moves a basic
        // out of its box, the next iteration restores feasibility.
        RecomputeBasics();
        if (AnyBasicInfeasible()) continue;
        return LpStatus::kOptimal;
      }

      // Pricing: y = B^-T c_B, then reduced costs for nonbasic columns.
      ComputeDuals();
      const bool bland = *iter >= bland_after_;
      int direction = 0;
      const int entering = SelectEntering(bland, &direction);

      if (entering < 0) {
        // No column reduces the violations. Infeasible unless the refresh
        // shows they were within tolerance after all.
        RecomputeBasics();
        if (!AnyBasicInfeasible()) continue;
        return LpStatus::kInfeasible;
      }

      // Column of the entering variable in the current basis: w = B^-1 A_j.
      basis_->FtranColumn(cols_[entering], &w_);

      // Ratio test (composite rule: infeasible basics block only at the bound
      // they are approaching from outside).
      double t_limit = std::numeric_limits<double>::infinity();
      int blocking_row = -1;
      double blocking_target = 0.0;
      // Bound flip of the entering variable itself.
      if (lb_[entering] > -kInfinity && ub_[entering] < kInfinity) {
        t_limit = ub_[entering] - lb_[entering];
      }
      for (int r = 0; r < m_; ++r) {
        const double wr = w_[r];
        if (std::abs(wr) < kPivotEps) continue;
        const int i = basic_[r];
        const double rate = -direction * wr;
        double target;
        if (rate > 0) {
          if (x_[i] < lb_[i] - feas_tol_) {
            target = lb_[i];  // infeasible below, improving: block at lower
          } else if (x_[i] > ub_[i] + feas_tol_) {
            continue;  // infeasible above, worsening: no block (the phase-1
                       // objective prices the worsening; composite rule)
          } else if (ub_[i] < kInfinity) {
            target = ub_[i];
          } else {
            continue;
          }
        } else {
          if (x_[i] > ub_[i] + feas_tol_) {
            target = ub_[i];  // infeasible above, improving: block at upper
          } else if (x_[i] < lb_[i] - feas_tol_) {
            continue;  // infeasible below, worsening: no block
          } else if (lb_[i] > -kInfinity) {
            target = lb_[i];
          } else {
            continue;
          }
        }
        double t = (target - x_[i]) / rate;
        if (t < 0) t = 0;  // degenerate step
        // Prefer the smallest ratio; break ties toward larger |pivot| for
        // numerical stability, then smaller row index for determinism.
        if (t < t_limit - 1e-12 ||
            (blocking_row >= 0 && t < t_limit + 1e-12 &&
             std::abs(wr) > std::abs(w_[blocking_row]) + 1e-12)) {
          t_limit = t;
          blocking_row = r;
          blocking_target = target;
        }
      }

      if (std::isinf(t_limit)) {
        // Phase 1 is bounded below by zero, so an improving column must meet
        // a blocking row; none passed the pivot tolerance.
        return LpStatus::kNumericalFailure;
      }

      // Apply the step.
      for (int r = 0; r < m_; ++r) {
        if (w_[r] != 0.0) x_[basic_[r]] -= direction * t_limit * w_[r];
      }
      x_[entering] += direction * t_limit;

      if (blocking_row < 0) {
        // Bound flip: entering stays nonbasic at its other bound.
        state_[entering] =
            direction > 0 ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
        x_[entering] = direction > 0 ? ub_[entering] : lb_[entering];
        continue;
      }

      // Pivot: entering becomes basic in blocking_row.
      const int leaving = basic_[blocking_row];
      x_[leaving] = blocking_target;
      state_[leaving] = blocking_target == ub_[leaving]
                            ? BasisStatus::kAtUpper
                            : BasisStatus::kAtLower;
      Pivot(blocking_row, entering);
    }
    return LpStatus::kIterationLimit;
  }

  /// One dual ratio-test candidate: a nonbasic column whose move in its
  /// feasible direction carries the leaving basic toward its bound.
  struct DualCandidate {
    double ratio;      ///< |d_j| / |alpha_j|, the dual step that zeroes d_j
    double abs_alpha;  ///< |alpha_j|
    int j;
  };

  /// The dual simplex from a warm basis, counting iterations on from
  /// `*iter`. Returns true with the verdict in *status, or false to hand the
  /// current basis to the primal loop (a pivot element the row and the column
  /// disagree on, a leaving row only sub-tolerance columns could cover, or
  /// the primal's Bland trigger passed).
  bool RunDual(util::PeriodicCheck* check, int* iter, LpStatus* status) {
    // The objective is zero, so every basis is dual feasible. Perturbed
    // costs (+eps_j at a lower bound, -eps_j at an upper one) make the
    // ratios distinct and nonzero so the dual does not stall; with a zero
    // basic cost vector the reduced costs start equal to them.
    d_.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j) {
      if (state_[j] == BasisStatus::kAtLower) d_[j] = CostPerturbation(j);
      if (state_[j] == BasisStatus::kAtUpper) d_[j] = -CostPerturbation(j);
    }
    alpha_.assign(n_, 0.0);
    in_alpha_.assign(n_, 0);
    bool retried = false;  // refactorized once for a pivot disagreement
    for (; *iter < options_.max_iterations; ++*iter) {
      if (check->ShouldStop()) {
        *status = LpStatus::kCancelled;
        return true;
      }
      if (*iter >= bland_after_) return false;
      if (*iter > 0 && *iter % kRefreshInterval == 0) RecomputeBasics();
      int r = LeavingRow();
      if (r < 0 && !basics_fresh_) {
        RecomputeBasics();
        r = LeavingRow();
      }
      if (r < 0) {
        *status = LpStatus::kOptimal;
        return true;
      }
      const int leaving = basic_[r];
      // The leaving basic must rise to its lower bound (up) or fall to its
      // upper bound; `short_by` is how far it is out.
      const bool up = x_[leaving] < lb_[leaving];
      const double target = up ? lb_[leaving] : ub_[leaving];
      double short_by = std::abs(x_[leaving] - target);

      ComputePivotRow(r);
      // Candidates: the columns that carry x_leaving toward its target
      // (Helps) with a pivot-sized alpha_j. One pass keeps the smallest
      // ratio, ties to the larger |alpha_j|, then the smaller j.
      candidates_.clear();
      int best = -1;
      for (const int j : alpha_index_) {
        const double a = alpha_[j];
        if (std::abs(a) < kPivotEps || !Helps(j, up)) continue;
        candidates_.push_back({std::abs(d_[j]) / std::abs(a), std::abs(a), j});
        if (best < 0 || Before(candidates_.back(), candidates_[best])) {
          best = static_cast<int>(candidates_.size()) - 1;
        }
      }

      // Bound-flipping ratio test: a boxed candidate whose full move leaves
      // x_leaving short flips to its other bound, and the next breakpoint
      // takes over; the first column that covers the rest enters. Most
      // iterations flip nothing, so the candidates are sorted only when the
      // best one falls short.
      flips_.clear();
      int entering = -1;
      if (best >= 0 && Covers(candidates_[best], short_by)) {
        entering = candidates_[best].j;
      } else if (best >= 0) {
        std::sort(candidates_.begin(), candidates_.end(), Before);
        for (const DualCandidate& c : candidates_) {
          if (Covers(c, short_by)) {
            entering = c.j;
            break;
          }
          flips_.push_back(c.j);
          short_by -= c.abs_alpha * (ub_[c.j] - lb_[c.j]);
        }
      }
      if (entering < 0 && (flips_.empty() || short_by > feas_tol_)) {
        // No column can carry x_leaving to its bound: row r is a dual ray,
        // and B^-T e_r its Farkas vector. Trust it on refreshed basics only,
        // and only when the columns too small to pivot on cannot cover the
        // rest either; otherwise the primal decides (and reports the
        // numerical failure it meets).
        if (!basics_fresh_) {
          ClearPivotRow();
          RecomputeBasics();
          continue;
        }
        const bool ray = short_by - SubtoleranceReach(up) > feas_tol_;
        ClearPivotRow();
        if (!ray) return false;
        dual_infeasible_ = true;
        *status = LpStatus::kInfeasible;
        return true;
      }

      if (entering >= 0) {
        // The pivot element from the column must agree with the row's.
        basis_->FtranColumn(cols_[entering], &w_);
        const double wr = w_[r];
        const double ar = alpha_[entering];
        if (std::abs(wr) < kPivotEps ||
            std::abs(wr - ar) >
                kPivotAgreementTol * std::min(std::abs(wr), std::abs(ar))) {
          ClearPivotRow();
          if (retried) return false;
          retried = true;
          Factorize();
          continue;
        }
        retried = false;
      }

      // The dual step: theta zeroes the entering column's reduced cost (or,
      // flips alone covering the row, the last flipped one's).
      const int step_col = entering >= 0 ? entering : flips_.back();
      const double theta = d_[step_col] / alpha_[step_col];
      for (const int j : alpha_index_) d_[j] -= theta * alpha_[j];
      ClearPivotRow();
      ApplyFlips();
      basics_fresh_ = false;
      if (entering < 0) continue;

      // The primal step: entering moves until x_leaving reaches its target.
      const double step = (x_[leaving] - target) / w_[r];
      for (int k = 0; k < m_; ++k) {
        if (w_[k] != 0.0) x_[basic_[k]] -= step * w_[k];
      }
      x_[entering] += step;
      x_[leaving] = target;
      state_[leaving] = up ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
      d_[leaving] = -theta;
      d_[entering] = 0.0;
      Pivot(r, entering);
    }
    *status = LpStatus::kIterationLimit;
    return true;
  }

  /// The dual ratio test's order: smaller ratio, then larger |alpha|, then
  /// smaller index.
  static bool Before(const DualCandidate& a, const DualCandidate& b) {
    if (a.ratio != b.ratio) return a.ratio < b.ratio;
    if (a.abs_alpha != b.abs_alpha) return a.abs_alpha > b.abs_alpha;
    return a.j < b.j;
  }

  /// True when moving nonbasic column j off its bound carries the leaving
  /// basic toward its target: x_leaving changes by -alpha_j per unit of x_j,
  /// and `up` says it must rise. A fixed column cannot move; a free one
  /// moves either way.
  bool Helps(int j, bool up) const {
    if (lb_[j] == ub_[j]) return false;
    const double rise = up ? -alpha_[j] : alpha_[j];
    return !((state_[j] == BasisStatus::kAtLower && rise <= 0.0) ||
             (state_[j] == BasisStatus::kAtUpper && rise >= 0.0));
  }

  /// How far the columns too small to pivot on (|alpha_j| < kPivotEps, but
  /// above roundoff) can carry the leaving basic toward its target at their
  /// far bounds: infinite when one of them is unbounded that way. Reads the
  /// pivot row and B^-T e_r of the current iteration.
  double SubtoleranceReach(bool up) const {
    double rho_max = 0.0;
    for (const double rho : rho_) rho_max = std::max(rho_max, std::abs(rho));
    double reach = 0.0;
    for (const int j : alpha_index_) {
      const double a = std::abs(alpha_[j]);
      if (a >= kPivotEps || !Helps(j, up)) continue;
      double a_max = 0.0;
      for (const auto& [row, coef] : cols_[j]) {
        a_max = std::max(a_max, std::abs(coef));
      }
      if (a <= kRoundoffRel * rho_max * a_max) continue;
      reach += a * (ub_[j] - lb_[j]);
    }
    return reach;
  }

  /// True when candidate c's whole box moves x_leaving at least `short_by`.
  bool Covers(const DualCandidate& c, double short_by) const {
    const int j = c.j;
    if (lb_[j] <= -kInfinity || ub_[j] >= kInfinity) return true;
    return c.abs_alpha * (ub_[j] - lb_[j]) >= short_by;
  }

  /// The leaving row of a dual iteration: the basic with the largest bound
  /// violation by Violation()'s rule, or -1 when every basic is feasible.
  int LeavingRow() const {
    int row = -1;
    double worst = 0.0;
    for (int r = 0; r < m_; ++r) {
      const int i = basic_[r];
      const int violation = Violation(i);
      if (violation == 0) continue;
      const double out = violation < 0 ? lb_[i] - x_[i] : x_[i] - ub_[i];
      if (out > worst) {
        worst = out;
        row = r;
      }
    }
    return row;
  }

  /// alpha_j = (B^-T e_r) . a_j over the nonbasic columns, row by row over
  /// the rows where B^-T e_r is nonzero: row i's terms, and -rho_i for its
  /// slack. The touched columns are listed in alpha_index_.
  void ComputePivotRow(int r) {
    rho_.assign(m_, 0.0);
    rho_[r] = 1.0;
    basis_->Btran(&rho_);
    const auto add = [this](int j, double value) {
      if (state_[j] == BasisStatus::kBasic) return;
      if (in_alpha_[j] == 0) {
        in_alpha_[j] = 1;
        alpha_index_.push_back(j);
      }
      alpha_[j] += value;
    };
    for (int i = 0; i < m_; ++i) {
      const double rho = rho_[i];
      if (rho == 0.0) continue;
      for (const LinTerm& t : rows_[i].terms) add(t.var, rho * t.coef);
      add(n_struct_ + i, -rho);
    }
  }

  void ClearPivotRow() {
    for (const int j : alpha_index_) {
      alpha_[j] = 0.0;
      in_alpha_[j] = 0;
    }
    alpha_index_.clear();
  }

  /// Moves every column in flips_ to its other bound and updates the basics
  /// with one Ftran: x_B -= B^-1 (sum of a_j * the move).
  void ApplyFlips() {
    if (flips_.empty()) return;
    std::vector<double>& v = rho_;  // free once the pivot row is built
    v.assign(m_, 0.0);
    for (const int j : flips_) {
      const bool to_upper = state_[j] == BasisStatus::kAtLower;
      const double move = to_upper ? ub_[j] - lb_[j] : lb_[j] - ub_[j];
      for (const auto& [row, coef] : cols_[j]) v[row] += coef * move;
      x_[j] = to_upper ? ub_[j] : lb_[j];
      state_[j] = to_upper ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
    }
    basis_->Ftran(&v);
    for (int r = 0; r < m_; ++r) x_[basic_[r]] -= v[r];
  }

  /// Makes `entering` basic at position `row` (its column's Ftran image is
  /// in w_), refactorizing when the eta update is unsafe or the eta file is
  /// full. The caller has moved the leaving variable to its bound.
  void Pivot(int row, int entering) {
    basic_[row] = entering;
    state_[entering] = BasisStatus::kBasic;
    ++stats_.pivots;
    const bool stable = basis_->Update(row, w_);
    if (basis_->eta_length() > stats_.max_eta_length) {
      stats_.max_eta_length = basis_->eta_length();
    }
    if (!stable || basis_->eta_length() >= options_.refactor_interval) {
      Factorize();
    }
  }

  /// Validates and adopts a warm-start basis. Returns false (cold start) when
  /// the snapshot is absent, differently shaped, or internally inconsistent.
  bool AdoptWarmBasis(const SimplexBasis* warm) {
    if (warm == nullptr || warm->empty()) return false;
    if (static_cast<int>(warm->basic.size()) != m_ ||
        static_cast<int>(warm->status.size()) != n_) {
      return false;
    }
    std::vector<char> in_basis(n_, 0);
    for (int j : warm->basic) {
      if (j < 0 || j >= n_ || in_basis[j] != 0) return false;
      in_basis[j] = 1;
    }
    basic_ = warm->basic;
    state_ = warm->status;
    for (int j = 0; j < n_; ++j) {
      if (in_basis[j] != 0) {
        state_[j] = BasisStatus::kBasic;
        continue;
      }
      // Sanitize nonbasic states against the (possibly changed) bounds: a
      // status whose bound is gone, or a free variable parked at zero that
      // has since gained a bound, moves to the default placement.
      if (state_[j] == BasisStatus::kBasic ||
          (state_[j] == BasisStatus::kAtLower && lb_[j] <= -kInfinity) ||
          (state_[j] == BasisStatus::kAtUpper && ub_[j] >= kInfinity) ||
          (state_[j] == BasisStatus::kAtZero &&
           (lb_[j] > -kInfinity || ub_[j] < kInfinity))) {
        SetNonbasicAtBound(j);
      }
    }
    return true;
  }

  /// Default nonbasic placement for variable j: lower bound if finite, else
  /// upper bound, else parked free at zero.
  void SetNonbasicAtBound(int j) {
    if (lb_[j] > -kInfinity) {
      state_[j] = BasisStatus::kAtLower;
    } else if (ub_[j] < kInfinity) {
      state_[j] = BasisStatus::kAtUpper;
    } else {
      state_[j] = BasisStatus::kAtZero;
    }
  }

  /// Rebuilds the basis representation from basic_, repairing dependent
  /// columns (ejected variables move to a bound, replacement slacks become
  /// basic), and refreshes the basic values.
  void Factorize() {
    std::vector<int> ejected;
    basis_->Factorize(cols_, n_struct_, &basic_, &ejected);
    ++stats_.refactorizations;
    stats_.basis_repairs += static_cast<long long>(ejected.size());
    if (!ejected.empty()) {
      for (int j : ejected) {
        SetNonbasicAtBound(j);
        x_[j] = state_[j] == BasisStatus::kAtLower   ? lb_[j]
                : state_[j] == BasisStatus::kAtUpper ? ub_[j]
                                                     : 0.0;
      }
      for (int r = 0; r < m_; ++r) state_[basic_[r]] = BasisStatus::kBasic;
    }
    RecomputeBasics();
  }

  /// Picks the entering variable; returns -1 when none is eligible (optimal
  /// for the phase-1 costs). `direction` is +1 (increase) or -1.
  int SelectEntering(bool bland, int* direction) {
    auto eligible = [&](int j, double* d_out, int* dir_out) {
      if (state_[j] == BasisStatus::kBasic) return false;
      const double d = phase1_cost_[j] - ColumnDual(j);
      int dir;
      if (state_[j] == BasisStatus::kAtLower && d < -options_.tol) {
        dir = +1;
      } else if (state_[j] == BasisStatus::kAtUpper && d > options_.tol) {
        dir = -1;
      } else if (state_[j] == BasisStatus::kAtZero &&
                 std::abs(d) > options_.tol) {
        dir = d < 0 ? +1 : -1;
      } else {
        return false;
      }
      *d_out = d;
      *dir_out = dir;
      return true;
    };

    if (bland) {  // anti-cycling: first eligible index, always a full rule
      for (int j = 0; j < n_; ++j) {
        double d;
        int dir;
        if (eligible(j, &d, &dir)) {
          *direction = dir;
          return j;
        }
      }
      return -1;
    }

    // Partial Dantzig: scan fixed-size segments from a rotating cursor and
    // take the best candidate of the first segment holding any; a full wrap
    // with no candidate is the same optimality certificate as a full scan.
    int scanned = 0;
    while (scanned < n_) {
      const int len = std::min(segment_, n_ - scanned);
      int best = -1;
      int best_dir = 0;
      double best_score = options_.tol;
      for (int t = 0; t < len; ++t) {
        int j = cursor_ + t;
        if (j >= n_) j -= n_;
        double d;
        int dir;
        if (!eligible(j, &d, &dir)) continue;
        if (std::abs(d) > best_score) {
          best_score = std::abs(d);
          best = j;
          best_dir = dir;
        }
      }
      cursor_ += len;
      if (cursor_ >= n_) cursor_ -= n_;
      scanned += len;
      if (best >= 0) {
        *direction = best_dir;
        return best;
      }
    }
    return -1;
  }

  /// Phase 1's feasibility rule for variable i: -1 when it lies more than
  /// feas_tol_ below its lower bound, +1 when more than feas_tol_ above its
  /// upper bound, 0 otherwise.
  int Violation(int i) const {
    if (x_[i] < lb_[i] - feas_tol_) return -1;
    if (x_[i] > ub_[i] + feas_tol_) return 1;
    return 0;
  }

  /// Fills phase1_cost_ from current basic violations; returns true when any
  /// basic variable is out of bounds (phase 1 needed).
  bool ComputePhase1Costs() {
    bool any = false;
    phase1_cost_.assign(n_, 0.0);
    for (int r = 0; r < m_; ++r) {
      const int i = basic_[r];
      const int violation = Violation(i);
      if (violation != 0) {
        phase1_cost_[i] = violation;
        any = true;
      }
    }
    return any;
  }

  bool AnyBasicInfeasible() const {
    for (int r = 0; r < m_; ++r) {
      if (Violation(basic_[r]) != 0) return true;
    }
    return false;
  }

  /// y = B^-T c_B over the phase-1 costs.
  void ComputeDuals() {
    y_.resize(m_);
    for (int r = 0; r < m_; ++r) y_[r] = phase1_cost_[basic_[r]];
    basis_->Btran(&y_);
  }

  /// y . A_j over the sparse column.
  double ColumnDual(int j) const {
    double dual = 0.0;
    for (const auto& [row, coef] : cols_[j]) dual += y_[row] * coef;
    return dual;
  }

  /// x_B = -B^-1 (A_N x_N)  (right-hand side is 0).
  void RecomputeBasics() {
    std::vector<double> v(m_, 0.0);
    for (int j = 0; j < n_; ++j) {
      if (state_[j] == BasisStatus::kBasic || x_[j] == 0.0) continue;
      for (const auto& [row, coef] : cols_[j]) v[row] += coef * x_[j];
    }
    basis_->Ftran(&v);
    for (int r = 0; r < m_; ++r) x_[basic_[r]] = -v[r];
    basics_fresh_ = true;
  }

  void Extract(LpResult* result) const {
    result->x.assign(x_.begin(), x_.begin() + n_struct_);
    result->basis.basic = basic_;
    result->basis.status = state_;
    result->stats = stats_;
    result->warm_started = warm_started_;
  }

  const SimplexOptions options_;
  const double feas_tol_;
  const int n_struct_;
  const int m_;
  const int n_;
  const int segment_;  // partial-pricing segment size
  // The primal turns to Bland's rule after this many iterations; the dual
  // hands its basis to the primal there.
  const int bland_after_;

  const std::vector<Constraint>& rows_;  // A row-wise, for the pivot row
  SparseColumns cols_;  // (row, coef) per column of [A | -I]
  std::vector<double> lb_, ub_, phase1_cost_;
  std::vector<int> basic_;
  std::vector<BasisStatus> state_;
  std::unique_ptr<BasisRep> basis_;
  std::vector<double> x_;
  std::vector<double> y_, w_;
  LpEngineStats stats_;
  bool warm_started_ = false;
  int cursor_ = 0;  // partial-pricing rotating cursor
  // No step since the basics were last recomputed from the factorization.
  bool basics_fresh_ = false;

  // Dual simplex state: reduced costs of the perturbed objective, the pivot
  // row alpha (dense, zero outside alpha_index_, with in_alpha_ marking the
  // listed columns), B^-T e_r, the ratio-test candidates and bound flips.
  std::vector<double> d_, alpha_, rho_;
  std::vector<char> in_alpha_;
  std::vector<int> alpha_index_, flips_;
  std::vector<DualCandidate> candidates_;
  bool dual_infeasible_ = false;
};

/// True when x lies within kAuditFeasTol of the bounds (the overrides when
/// given) and of every row's range.
bool MeetsBoundsAndRows(const Model& model, const std::vector<double>* lower,
                        const std::vector<double>* upper,
                        const std::vector<double>& x) {
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const double lo = lower ? (*lower)[j] : model.variable(j).lower;
    const double hi = upper ? (*upper)[j] : model.variable(j).upper;
    if (x[j] < lo - kAuditFeasTol || x[j] > hi + kAuditFeasTol) return false;
  }
  for (const Constraint& c : model.constraints()) {
    double activity = 0.0;
    for (const LinTerm& t : c.terms) activity += t.coef * x[t.var];
    if (activity < c.lower - kAuditFeasTol ||
        activity > c.upper + kAuditFeasTol) {
      return false;
    }
  }
  return true;
}

}  // namespace

LpResult SolveLp(const Model& model, const SimplexOptions& options,
                 const std::vector<double>* lower,
                 const std::vector<double>* upper) {
  if (lower != nullptr) {
    RDFSR_CHECK_EQ(lower->size(), model.num_variables());
  }
  if (upper != nullptr) {
    RDFSR_CHECK_EQ(upper->size(), model.num_variables());
  }
  // Trivially check for empty variable domains (branch bounds may cross).
  for (std::size_t j = 0; j < model.num_variables(); ++j) {
    const double lo = lower ? (*lower)[j] : model.variable(j).lower;
    const double hi = upper ? (*upper)[j] : model.variable(j).upper;
    if (lo > hi) {
      LpResult result;
      result.status = LpStatus::kInfeasible;
      return result;
    }
  }
  Simplex solver(model, options, lower, upper);
  LpResult result = solver.Run();
  if constexpr (audit_enabled()) {
    if (solver.dual_infeasible()) {
      // Audit builds: the primal re-solves every LP the dual called
      // infeasible, cold, and must neither find a point nor fail
      // numerically (a verdict the primal cannot reach is unconfirmed).
      SimplexOptions cold = options;
      cold.warm_start = nullptr;
      const LpResult check = Simplex(model, cold, lower, upper).Run();
      RDFSR_CHECK(check.status != LpStatus::kOptimal ||
                  !MeetsBoundsAndRows(model, lower, upper, check.x))
          << "the dual simplex called a feasible LP infeasible ("
          << model.num_constraints() << " rows, " << model.num_variables()
          << " columns)";
      RDFSR_CHECK(check.status != LpStatus::kNumericalFailure)
          << "the dual simplex called infeasible an LP the primal fails on ("
          << model.num_constraints() << " rows, " << model.num_variables()
          << " columns)";
    }
  }
  return result;
}

}  // namespace rdfsr::ilp
