#include "ilp/presolve.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace rdfsr::ilp {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kFeasTol = 1e-9;

/// Minimum improvement before an implied bound is applied — keeps the
/// tightening fixpoint from looping on epsilon-sized moves.
constexpr double kTightenTol = 1e-7;

/// Working copy of the model during reduction rounds.
struct Working {
  std::vector<double> lb, ub;
  std::vector<bool> is_integer;
  std::vector<bool> removed_row;
  std::vector<Constraint> rows;  // terms rewritten in place
  bool infeasible = false;
};

/// Rounds integer bounds inward; detects empty domains.
void TightenIntegerBounds(Working* w) {
  for (std::size_t j = 0; j < w->lb.size(); ++j) {
    if (!w->is_integer[j]) continue;
    if (w->lb[j] > -kInfinity) w->lb[j] = std::ceil(w->lb[j] - kFeasTol);
    if (w->ub[j] < kInfinity) w->ub[j] = std::floor(w->ub[j] + kFeasTol);
    if (w->lb[j] > w->ub[j] + kFeasTol) w->infeasible = true;
  }
}

/// Activity range [min, max] of a row under current bounds.
void ActivityRange(const Working& w, const Constraint& row, double* lo,
                   double* hi) {
  *lo = 0;
  *hi = 0;
  for (const LinTerm& t : row.terms) {
    const double l = w.lb[t.var];
    const double u = w.ub[t.var];
    if (t.coef > 0) {
      *lo += (l <= -kInfinity) ? -kInfinity : t.coef * l;
      *hi += (u >= kInfinity) ? kInfinity : t.coef * u;
    } else {
      *lo += (u >= kInfinity) ? -kInfinity : t.coef * u;
      *hi += (l <= -kInfinity) ? kInfinity : t.coef * l;
    }
    if (*lo <= -kInfinity && *hi >= kInfinity) return;
  }
}

enum TightenOutcome : int {
  kTightenInfeasible = -1,
  kTightenNoChange = 0,
  kTightenChanged = 1,
};

/// Activity-based implied bounds from one row: each variable's contribution
/// plus the worst-case activity of the *other* terms must fit inside
/// [row_lo, row_hi]. Tightens lb/ub in place (only on improvements beyond
/// kTightenTol); residuals use the bounds from loop entry, which stays valid
/// because those are relaxations of any tightened bound. Shared by the
/// presolve rounds and the branch-and-bound root propagation.
int TightenFromRow(const std::vector<LinTerm>& terms, double row_lo,
                   double row_hi, std::vector<double>* lb_io,
                   std::vector<double>* ub_io) {
  std::vector<double>& lb = *lb_io;
  std::vector<double>& ub = *ub_io;
  double sum_lo = 0;
  double sum_hi = 0;
  int inf_lo = 0;
  int inf_hi = 0;
  for (const LinTerm& t : terms) {
    const double l = lb[t.var];
    const double u = ub[t.var];
    if (t.coef > 0) {
      if (l <= -kInfinity) ++inf_lo; else sum_lo += t.coef * l;
      if (u >= kInfinity) ++inf_hi; else sum_hi += t.coef * u;
    } else {
      if (u >= kInfinity) ++inf_lo; else sum_lo += t.coef * u;
      if (l <= -kInfinity) ++inf_hi; else sum_hi += t.coef * l;
    }
  }
  if (inf_lo == 0 && row_hi < kInfinity && sum_lo > row_hi + kFeasTol) {
    return kTightenInfeasible;
  }
  if (inf_hi == 0 && row_lo > -kInfinity && sum_hi < row_lo - kFeasTol) {
    return kTightenInfeasible;
  }
  int outcome = kTightenNoChange;
  for (const LinTerm& t : terms) {
    const double l = lb[t.var];
    const double u = ub[t.var];
    bool cmin_inf, cmax_inf;
    double cmin, cmax;
    if (t.coef > 0) {
      cmin_inf = l <= -kInfinity;
      cmin = cmin_inf ? 0 : t.coef * l;
      cmax_inf = u >= kInfinity;
      cmax = cmax_inf ? 0 : t.coef * u;
    } else {
      cmin_inf = u >= kInfinity;
      cmin = cmin_inf ? 0 : t.coef * u;
      cmax_inf = l <= -kInfinity;
      cmax = cmax_inf ? 0 : t.coef * l;
    }
    // Residual activity of the other terms; finite only when this term holds
    // the row's sole infinite contribution (or there is none).
    const bool res_lo_finite = inf_lo == (cmin_inf ? 1 : 0);
    const bool res_hi_finite = inf_hi == (cmax_inf ? 1 : 0);
    const double res_lo = sum_lo - cmin;
    const double res_hi = sum_hi - cmax;
    if (row_hi < kInfinity && res_lo_finite) {
      const double limit = (row_hi - res_lo) / t.coef;
      if (t.coef > 0) {
        if (limit < ub[t.var] - kTightenTol) {
          ub[t.var] = limit;
          outcome = kTightenChanged;
        }
      } else if (limit > lb[t.var] + kTightenTol) {
        lb[t.var] = limit;
        outcome = kTightenChanged;
      }
    }
    if (row_lo > -kInfinity && res_hi_finite) {
      const double limit = (row_lo - res_hi) / t.coef;
      if (t.coef > 0) {
        if (limit > lb[t.var] + kTightenTol) {
          lb[t.var] = limit;
          outcome = kTightenChanged;
        }
      } else if (limit < ub[t.var] - kTightenTol) {
        ub[t.var] = limit;
        outcome = kTightenChanged;
      }
    }
    if (lb[t.var] > ub[t.var] + kFeasTol) return kTightenInfeasible;
  }
  return outcome;
}

/// One reduction round; returns whether anything changed.
bool Round(Working* w) {
  bool changed = false;
  for (std::size_t r = 0; r < w->rows.size() && !w->infeasible; ++r) {
    if (w->removed_row[r]) continue;
    Constraint& row = w->rows[r];

    // Drop fixed variables from the row into its bounds.
    std::vector<LinTerm> kept;
    double shift = 0;
    for (const LinTerm& t : row.terms) {
      if (w->lb[t.var] == w->ub[t.var]) {
        shift += t.coef * w->lb[t.var];
      } else {
        kept.push_back(t);
      }
    }
    if (kept.size() != row.terms.size()) {
      row.terms = std::move(kept);
      if (row.lower > -kInfinity) row.lower -= shift;
      if (row.upper < kInfinity) row.upper -= shift;
      changed = true;
    }

    // Empty row.
    if (row.terms.empty()) {
      if (row.lower > kFeasTol || row.upper < -kFeasTol) {
        w->infeasible = true;
      }
      w->removed_row[r] = true;
      changed = true;
      continue;
    }

    // Singleton row: fold into variable bounds. Infinities flip sign when
    // divided by a negative coefficient (-inf / -1 == +inf).
    if (row.terms.size() == 1) {
      const LinTerm t = row.terms[0];
      RDFSR_CHECK_NE(t.coef, 0.0);
      const double lo_div =
          row.lower <= -kInfinity ? (t.coef > 0 ? -kInfinity : kInfinity)
                                  : row.lower / t.coef;
      const double hi_div =
          row.upper >= kInfinity ? (t.coef > 0 ? kInfinity : -kInfinity)
                                 : row.upper / t.coef;
      const double new_lb = std::min(lo_div, hi_div);
      const double new_ub = std::max(lo_div, hi_div);
      if (new_lb > w->lb[t.var] + kFeasTol) {
        w->lb[t.var] = new_lb;
        changed = true;
      }
      if (new_ub < w->ub[t.var] - kFeasTol) {
        w->ub[t.var] = new_ub;
        changed = true;
      }
      if (w->lb[t.var] > w->ub[t.var] + kFeasTol) w->infeasible = true;
      w->removed_row[r] = true;
      changed = true;
      continue;
    }

    // Activity-based redundancy / infeasibility.
    double act_lo, act_hi;
    ActivityRange(*w, row, &act_lo, &act_hi);
    if (act_lo > row.upper + kFeasTol || act_hi < row.lower - kFeasTol) {
      w->infeasible = true;
      continue;
    }
    if (act_lo >= row.lower - kFeasTol && act_hi <= row.upper + kFeasTol) {
      w->removed_row[r] = true;
      changed = true;
      continue;
    }

    // Implied variable bounds from this row's activity.
    const int tightened =
        TightenFromRow(row.terms, row.lower, row.upper, &w->lb, &w->ub);
    if (tightened == kTightenInfeasible) {
      w->infeasible = true;
    } else if (tightened == kTightenChanged) {
      changed = true;
    }
  }
  TightenIntegerBounds(w);
  return changed;
}

}  // namespace

bool PropagateBounds(const Model& model, std::vector<double>* lb,
                     std::vector<double>* ub, int max_rounds,
                     long long* budget) {
  RDFSR_CHECK_EQ(lb->size(), model.num_variables());
  RDFSR_CHECK_EQ(ub->size(), model.num_variables());
  for (int round = 0; round < max_rounds; ++round) {
    bool changed = false;
    for (std::size_t r = 0; r < model.num_constraints(); ++r) {
      if (budget != nullptr) {
        if (*budget <= 0) return true;  // out of budget, bounds still valid
        *budget -= static_cast<long long>(model.constraint(r).terms.size());
      }
      const Constraint& row = model.constraint(r);
      const int outcome = TightenFromRow(row.terms, row.lower, row.upper, lb, ub);
      if (outcome == kTightenInfeasible) return false;
      if (outcome == kTightenChanged) changed = true;
    }
    for (std::size_t j = 0; j < model.num_variables(); ++j) {
      if (!model.variable(j).is_integer) continue;
      if ((*lb)[j] > -kInfinity) (*lb)[j] = std::ceil((*lb)[j] - kFeasTol);
      if ((*ub)[j] < kInfinity) (*ub)[j] = std::floor((*ub)[j] + kFeasTol);
      if ((*lb)[j] > (*ub)[j] + kFeasTol) return false;
    }
    if (!changed) break;
  }
  return true;
}

std::vector<double> PresolveResult::RestoreSolution(
    const std::vector<double>& reduced_x) const {
  RDFSR_CHECK_EQ(reduced_x.size(), variable_map.size());
  std::vector<double> x = fixed_values;
  for (std::size_t j = 0; j < reduced_x.size(); ++j) {
    x[variable_map[j]] = reduced_x[j];
  }
  for (double& v : x) {
    RDFSR_CHECK(!std::isnan(v)) << "unassigned variable after restore";
  }
  return x;
}

PresolveResult Presolve(const Model& model, int max_rounds) {
  Working w;
  const std::size_t n = model.num_variables();
  w.lb.resize(n);
  w.ub.resize(n);
  w.is_integer.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    w.lb[j] = model.variable(j).lower;
    w.ub[j] = model.variable(j).upper;
    w.is_integer[j] = model.variable(j).is_integer;
  }
  w.rows = model.constraints();
  w.removed_row.assign(w.rows.size(), false);

  TightenIntegerBounds(&w);
  for (int round = 0; round < max_rounds && !w.infeasible; ++round) {
    if (!Round(&w)) break;
  }

  PresolveResult result;
  result.fixed_values.assign(n, kNaN);
  if (w.infeasible) {
    result.proven_infeasible = true;
    return result;
  }

  // Partition variables into fixed and surviving.
  std::vector<int> new_index(n, -1);
  for (std::size_t j = 0; j < n; ++j) {
    if (w.lb[j] == w.ub[j]) {
      result.fixed_values[j] = w.lb[j];
    } else {
      new_index[j] = static_cast<int>(result.variable_map.size());
      result.variable_map.push_back(static_cast<int>(j));
      result.reduced.AddVariable(model.variable(j).name, w.lb[j], w.ub[j],
                                 w.is_integer[j]);
    }
  }

  // Surviving rows, remapped. Fixed variables were already folded into the
  // row bounds during the rounds; guard for ones fixed in the final round.
  for (std::size_t r = 0; r < w.rows.size(); ++r) {
    if (w.removed_row[r]) continue;
    const Constraint& row = w.rows[r];
    std::vector<LinTerm> terms;
    double shift = 0;
    for (const LinTerm& t : row.terms) {
      if (new_index[t.var] >= 0) {
        terms.push_back({new_index[t.var], t.coef});
      } else {
        shift += t.coef * result.fixed_values[t.var];
      }
    }
    const double lower =
        row.lower <= -kInfinity ? -kInfinity : row.lower - shift;
    const double upper = row.upper >= kInfinity ? kInfinity : row.upper - shift;
    if (terms.empty()) {
      if (lower > kFeasTol || upper < -kFeasTol) {
        result.proven_infeasible = true;
        return result;
      }
      continue;
    }
    result.reduced.AddConstraint(row.name, std::move(terms), lower, upper);
  }
  return result;
}

}  // namespace rdfsr::ilp
