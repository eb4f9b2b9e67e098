#include "ilp/simplex.h"

#include <algorithm>
#include <cmath>
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
/// Basic values are recomputed from the factorization every this many
/// iterations, so drift from the incremental step updates stays bounded.
constexpr int kRefreshInterval = 128;

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
    LpResult result;
    util::PeriodicCheck check(options_.cancel, 128);
    const int bland_after = 2000 + 20 * (m_ + n_);
    for (int iter = 0; iter < options_.max_iterations; ++iter) {
      if (check.ShouldStop()) {
        result.status = LpStatus::kCancelled;
        result.iterations = iter;
        Extract(&result);
        return result;
      }
      if (iter > 0 && iter % kRefreshInterval == 0) RecomputeBasics();
      // Every verdict uses phase 1's own rule on refreshed basics: a basic is
      // infeasible when it alone violates a bound by more than feas_tol_ (a
      // sum of violations would call many tiny, tolerated ones infeasible).
      if (!ComputePhase1Costs()) {
        // Feasible by the incremental values. If the refresh moves a basic
        // out of its box, the next iteration restores feasibility.
        RecomputeBasics();
        if (AnyBasicInfeasible()) continue;
        result.status = LpStatus::kOptimal;
        result.iterations = iter;
        Extract(&result);
        return result;
      }

      // Pricing: y = B^-T c_B, then reduced costs for nonbasic columns.
      ComputeDuals();
      const bool bland = iter >= bland_after;
      int direction = 0;
      const int entering = SelectEntering(bland, &direction);

      if (entering < 0) {
        // No column reduces the violations. Infeasible unless the refresh
        // shows they were within tolerance after all.
        RecomputeBasics();
        if (!AnyBasicInfeasible()) continue;
        result.status = LpStatus::kInfeasible;
        result.iterations = iter;
        Extract(&result);
        return result;
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
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iter;
        Extract(&result);
        return result;
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
      basic_[blocking_row] = entering;
      state_[entering] = BasisStatus::kBasic;
      ++stats_.pivots;
      const bool stable = basis_->Update(blocking_row, w_);
      if (basis_->eta_length() > stats_.max_eta_length) {
        stats_.max_eta_length = basis_->eta_length();
      }
      if (!stable || basis_->eta_length() >= options_.refactor_interval) {
        Factorize();
      }
    }

    result.status = LpStatus::kIterationLimit;
    result.iterations = options_.max_iterations;
    Extract(&result);
    return result;
  }

 private:
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
};

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
  return solver.Run();
}

}  // namespace rdfsr::ilp
