#include "ilp/basis.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rdfsr::ilp {
namespace {

/// Pivot magnitudes at or below this are treated as structural zeros: the
/// column is declared dependent and repaired.
constexpr double kSingularTol = 1e-10;

/// Threshold partial pivoting: rows within this factor of the column's max
/// are numerically acceptable, and among them the sparsest row (smallest
/// static count) wins — trading a bounded amount of growth for less fill.
constexpr double kRelPivotTol = 0.1;

/// Smallest eta / replacement pivot the product-form update accepts; below
/// this Update() reports failure and the caller refactorizes.
constexpr double kUpdatePivotTol = 1e-9;

struct Entry {
  int idx;
  double val;
};

// ---------------------------------------------------------------------------
// Sparse LU (left-looking Gilbert–Peierls style elimination).
// ---------------------------------------------------------------------------

class LuFactorization final : public BasisRep {
 public:
  explicit LuFactorization(int m) : m_(m), is_nonzero_(m, 0) {
    nonzeros_.reserve(m);
  }

  void Factorize(const SparseColumns& cols, int n_struct,
                 std::vector<int>* basic, std::vector<int>* ejected) override;
  void Ftran(std::vector<double>* v) const override;
  void FtranColumn(const std::vector<std::pair<int, double>>& column,
                   std::vector<double>* w) const override;
  void Btran(std::vector<double>* v) const override;
  bool Update(int pos, const std::vector<double>& w) override;
  int eta_length() const override { return static_cast<int>(etas_.size()); }

 private:
  // Eliminates one basis column (basis position `p`). Returns false when the
  // column is dependent on the already-pivoted set (caller repairs it).
  bool FactorColumn(const std::vector<std::pair<int, double>>& col, int p,
                    const std::vector<int>& row_count, int* done,
                    std::vector<double>* work, std::vector<int>* touched);

  int m_;
  // Factor storage, indexed by elimination order k:
  //   col_order_[k]  basis position eliminated k-th       (k -> position)
  //   pivot_row_[k]  matrix row chosen as pivot           (k -> row)
  //   row_pos_[r]    inverse of pivot_row_                (row -> k)
  //   l_cols_[k]     L multipliers (matrix row, l)        (unit diagonal)
  //   u_cols_[k]     U off-diagonals (position k' < k, value)
  //   u_diag_[k]     U diagonal
  //   l_steps_       the k whose L column is non-empty, ascending (slack and
  //                  singleton pivots have none, and the L passes skip them)
  std::vector<int> col_order_, pivot_row_, row_pos_, l_steps_;
  std::vector<std::vector<Entry>> l_cols_, u_cols_;
  std::vector<double> u_diag_;

  // Product-form updates since the last factorization, oldest first, in
  // basis-position space. Eta e's column is the dense slice
  // eta_cols_[e * m_, (e + 1) * m_): the entering column's Ftran image with
  // its pivot slot zeroed.
  struct Eta {
    int pos;
    double pivot;
  };
  std::vector<Eta> etas_;
  std::vector<double> eta_cols_;

  mutable std::vector<double> scratch_;
  // Btran's eta sweep state: the positions of y that may be nonzero,
  // ascending, and a membership mark per position (all 0 between calls).
  mutable std::vector<int> nonzeros_;
  mutable std::vector<char> is_nonzero_;
};

void LuFactorization::Factorize(const SparseColumns& cols, int n_struct,
                                std::vector<int>* basic,
                                std::vector<int>* ejected) {
  etas_.clear();
  eta_cols_.clear();
  l_steps_.clear();
  l_cols_.assign(m_, {});
  u_cols_.assign(m_, {});
  u_diag_.assign(m_, 0.0);
  col_order_.assign(m_, -1);
  pivot_row_.assign(m_, -1);
  row_pos_.assign(m_, -1);

  // Static row counts over the basis columns: the Markowitz-style tie-break.
  std::vector<int> row_count(m_, 0);
  for (int p = 0; p < m_; ++p) {
    for (const auto& [row, coef] : cols[(*basic)[p]]) {
      (void)coef;
      ++row_count[row];
    }
  }

  // Eliminate sparsest columns first; stable sort keeps ties deterministic.
  std::vector<int> order(m_);
  for (int p = 0; p < m_; ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return cols[(*basic)[a]].size() < cols[(*basic)[b]].size();
  });

  std::vector<double> work(m_, 0.0);
  std::vector<int> touched;
  touched.reserve(m_);
  std::vector<int> deferred;
  int done = 0;
  for (int p : order) {
    if (!FactorColumn(cols[(*basic)[p]], p, row_count, &done, &work,
                      &touched)) {
      deferred.push_back(p);
    }
  }

  if (!deferred.empty()) {
    // Repair: dependent columns are swapped for the slacks of rows the
    // elimination never pivoted. A slack column -e_r is untouched by the
    // L-pass (it is zero on every pivot row), so it pivots trivially at r.
    std::sort(deferred.begin(), deferred.end());
    std::vector<int> free_rows;
    for (int r = 0; r < m_; ++r) {
      if (row_pos_[r] < 0) free_rows.push_back(r);
    }
    std::size_t next = 0;
    for (int p : deferred) {
      const int r = free_rows[next++];
      ejected->push_back((*basic)[p]);
      (*basic)[p] = n_struct + r;
      const int k = done++;
      col_order_[k] = p;
      pivot_row_[k] = r;
      row_pos_[r] = k;
      u_diag_[k] = -1.0;
    }
  }
}

bool LuFactorization::FactorColumn(
    const std::vector<std::pair<int, double>>& col, int p,
    const std::vector<int>& row_count, int* done, std::vector<double>* work_io,
    std::vector<int>* touched_io) {
  std::vector<double>& work = *work_io;
  std::vector<int>& touched = *touched_io;
  touched.clear();
  for (const auto& [row, coef] : col) {
    if (work[row] == 0.0) touched.push_back(row);
    work[row] += coef;
  }

  // Apply the already-computed L columns in elimination order; each op can
  // spread the column into new rows, so the scan walks every finished step
  // that has an L column.
  for (const int k : l_steps_) {
    const double val = work[pivot_row_[k]];
    if (val == 0.0) continue;
    for (const Entry& e : l_cols_[k]) {
      if (work[e.idx] == 0.0) touched.push_back(e.idx);
      work[e.idx] -= e.val * val;
    }
  }

  // Pivot choice among unpivoted rows: numerically acceptable (threshold
  // partial pivoting), then sparsest row, then largest magnitude, then
  // smallest row index for determinism.
  double maxabs = 0.0;
  for (int i : touched) {
    if (row_pos_[i] >= 0) continue;
    const double a = std::fabs(work[i]);
    if (a > maxabs) maxabs = a;
  }
  if (maxabs <= kSingularTol) {
    for (int i : touched) work[i] = 0.0;
    return false;
  }
  const double accept = std::max(kSingularTol, kRelPivotTol * maxabs);
  int pivot = -1;
  int best_count = std::numeric_limits<int>::max();
  double best_abs = 0.0;
  for (int i : touched) {
    if (row_pos_[i] >= 0) continue;
    const double a = std::fabs(work[i]);
    if (a < accept) continue;
    const bool better =
        pivot < 0 || row_count[i] < best_count ||
        (row_count[i] == best_count &&
         (a > best_abs || (a == best_abs && i < pivot)));
    if (better) {
      pivot = i;
      best_count = row_count[i];
      best_abs = a;
    }
  }

  const int k = (*done)++;
  col_order_[k] = p;
  pivot_row_[k] = pivot;
  row_pos_[pivot] = k;
  const double diag = work[pivot];
  u_diag_[k] = diag;
  work[pivot] = 0.0;
  for (int i : touched) {
    const double v = work[i];
    work[i] = 0.0;  // duplicates in `touched` read 0.0 and are skipped
    if (v == 0.0) continue;
    if (row_pos_[i] >= 0) {
      u_cols_[k].push_back({row_pos_[i], v});
    } else {
      l_cols_[k].push_back({i, v / diag});
    }
  }
  if (!l_cols_[k].empty()) l_steps_.push_back(k);
  return true;
}

// Every skip below drops only a product with an exactly-zero factor, and
// every sum keeps the full loop's order, so nonzero results stay
// bit-identical (see basis.h).

void LuFactorization::Ftran(std::vector<double>* v) const {
  std::vector<double>& x = *v;
  // L pass in elimination order, in row space.
  for (const int k : l_steps_) {
    const double val = x[pivot_row_[k]];
    if (val == 0.0) continue;
    for (const Entry& e : l_cols_[k]) x[e.idx] -= e.val * val;
  }
  // Gather to elimination order and back-substitute through U.
  std::vector<double>& z = scratch_;
  z.resize(m_);
  for (int k = 0; k < m_; ++k) z[k] = x[pivot_row_[k]];
  for (int k = m_ - 1; k >= 0; --k) {
    if (z[k] == 0.0) continue;
    const double xk = z[k] / u_diag_[k];
    z[k] = xk;
    for (const Entry& e : u_cols_[k]) z[e.idx] -= e.val * xk;
  }
  // Scatter to basis-position space, then sweep the eta file oldest-first:
  // B_new = B_old * E, so B_new^-1 applies E^-1 after the base solve. The
  // dense column's zeroed pivot slot leaves x[pos] = piv untouched.
  for (int k = 0; k < m_; ++k) x[col_order_[k]] = z[k];
  double* xs = x.data();
  const double* col = eta_cols_.data();
  for (const Eta& eta : etas_) {
    const double piv = xs[eta.pos] / eta.pivot;
    xs[eta.pos] = piv;
    if (piv != 0.0) {
      for (int i = 0; i < m_; ++i) xs[i] -= col[i] * piv;
    }
    col += m_;
  }
}

void LuFactorization::FtranColumn(
    const std::vector<std::pair<int, double>>& column,
    std::vector<double>* w) const {
  w->assign(m_, 0.0);
  for (const auto& [row, coef] : column) (*w)[row] += coef;
  Ftran(w);
}

void LuFactorization::Btran(std::vector<double>* v) const {
  std::vector<double>& y = *v;
  // Eta file newest-first: B_new^-T applies E^-T before the base solve. Each
  // step is a dot product of the eta column with y, and y is hyper-sparse
  // here (a phase-1 cost vector has a handful of nonzeros), so the sum runs
  // over y's nonzero positions only, ascending. A step can make y[pos]
  // nonzero, and y[pos] can also cancel to exactly 0 and come back at a later
  // step on the same position, so membership is tracked by mark, never by
  // y[pos]'s previous value: a position listed twice would count twice.
  if (!etas_.empty()) {
    nonzeros_.clear();
    for (int i = 0; i < m_; ++i) {
      if (y[i] != 0.0) {
        nonzeros_.push_back(i);
        is_nonzero_[i] = 1;
      }
    }
    for (std::size_t e = etas_.size(); e-- > 0;) {
      const Eta& eta = etas_[e];
      const double* col = &eta_cols_[e * m_];
      double acc = y[eta.pos];
      for (const int i : nonzeros_) acc -= col[i] * y[i];
      y[eta.pos] = acc / eta.pivot;
      if (acc != 0.0 && is_nonzero_[eta.pos] == 0) {
        is_nonzero_[eta.pos] = 1;
        nonzeros_.insert(
            std::upper_bound(nonzeros_.begin(), nonzeros_.end(), eta.pos),
            eta.pos);
      }
    }
    for (const int i : nonzeros_) is_nonzero_[i] = 0;
  }
  // Gather to elimination order, solve U^T forward. A zero accumulator is
  // stored as is: it replaces z[k]'s pre-subtraction value.
  std::vector<double>& z = scratch_;
  z.resize(m_);
  for (int k = 0; k < m_; ++k) z[k] = y[col_order_[k]];
  for (int k = 0; k < m_; ++k) {
    double acc = z[k];
    for (const Entry& e : u_cols_[k]) acc -= e.val * z[e.idx];
    z[k] = acc == 0.0 ? acc : acc / u_diag_[k];
  }
  // Scatter to row space, then apply the transposed L ops in reverse order:
  // each op adjusts only its own pivot row from rows eliminated later.
  for (int k = 0; k < m_; ++k) y[pivot_row_[k]] = z[k];
  for (auto it = l_steps_.rbegin(); it != l_steps_.rend(); ++it) {
    const int k = *it;
    double acc = y[pivot_row_[k]];
    for (const Entry& e : l_cols_[k]) acc -= e.val * y[e.idx];
    y[pivot_row_[k]] = acc;
  }
}

bool LuFactorization::Update(int pos, const std::vector<double>& w) {
  const double piv = w[pos];
  if (std::fabs(piv) < kUpdatePivotTol) return false;
  etas_.push_back({pos, piv});
  eta_cols_.insert(eta_cols_.end(), w.begin(), w.end());
  eta_cols_[eta_cols_.size() - m_ + pos] = 0.0;
  return true;
}

}  // namespace

std::unique_ptr<BasisRep> MakeLuFactorization(int m) {
  return std::make_unique<LuFactorization>(m);
}

}  // namespace rdfsr::ilp
