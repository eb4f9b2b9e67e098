// Basis representations for the bounded-variable revised simplex.
//
// The simplex iterates over a square basis matrix B whose columns are drawn
// from [A | -I] (structural columns of the model plus one slack column per
// row). Each iteration needs four operations:
//   * Ftran:  w = B^-1 a        (pivot column, basic-value refresh)
//   * Btran:  y = B^-T c_B      (duals for pricing)
//   * Update: replace the column at one basis position after a pivot
//   * Factorize: rebuild the representation from the basic variable list
//
// The library's implementation (MakeLuFactorization) is a sparse LU of B via
// a left-looking column-by-column elimination: columns are processed in
// ascending-nonzero order and the pivot row is chosen among numerically
// acceptable candidates (within a threshold of the column's max) by smallest
// static row count — a Markowitz-style choice that controls fill. Pivots
// append product-form eta matrices to the factorization; the simplex
// refactorizes periodically (SimplexOptions::refactor_interval) or when an
// update pivot is too small to be stable. Ftran/Btran are triangular solves
// plus an eta sweep. The explicit dense inverse lives in
// tests/dense_inverse_oracle.h as the differential oracle for this interface.
//
// The kernel does only the arithmetic that can be nonzero (Hall & McKinnon
// 2005, "Hyper-sparsity in the revised simplex method"):
//   * Eta columns are dense: m doubles each, the Ftran image of the entering
//     column with the pivot slot zeroed. Ftran's eta step is then one
//     streaming x -= d * piv over m rows. Dense storage costs 8 bytes per
//     row against 16 per stored (index, value) entry, so it is the smaller
//     one above 50% density; the Section 6 encodings' eta columns run at
//     55-68%.
//   * Btran's eta sweep is hyper-sparse. A dual vector enters it with one or
//     two nonzeros (a phase-1 cost vector) where an eta column holds
//     hundreds, so each eta's dot product runs over y's nonzero positions
//     only, ascending, and a position joins that list when its entry turns
//     nonzero.
//   * Slack and singleton pivots have an empty L column; the elimination
//     scan and both L passes walk only the steps that have one. U's solves
//     skip a division whose numerator is exactly 0.
// Each skipped term is a product with an exactly-zero factor, and each sum
// still visits its nonzero products in the full loop's order, so every
// nonzero value is bit-identical to the full computation (a zero may change
// sign, which nothing downstream reads): the simplex takes the same pivots.
//
// Warm starts from an arbitrary SimplexBasis are supported: Factorize repairs
// a structurally or numerically singular basis by replacing dependent columns
// with the slacks of unpivoted rows (the ejected variables are reported so
// the caller can move them to a bound).

#ifndef RDFSR_ILP_BASIS_H_
#define RDFSR_ILP_BASIS_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace rdfsr::ilp {

/// Column-major sparse view of [A | -I]: cols[j] lists (row, coef) of
/// variable j's constraint-matrix column.
using SparseColumns = std::vector<std::vector<std::pair<int, double>>>;

/// Where a variable sits in a basis snapshot.
enum class BasisStatus : std::uint8_t {
  kBasic = 0,
  kAtLower = 1,
  kAtUpper = 2,
  kAtZero = 3,  ///< free nonbasic, parked at 0
};

/// A restartable basis snapshot: the warm-start contract between LP solves.
/// `basic` holds one variable index per row (basis position order) and
/// `status` one entry per variable (structural then slack, model order).
/// SolveLp validates shape and contents; a snapshot from a differently-sized
/// model is silently ignored (cold start), and a stale-but-well-shaped one is
/// repaired during factorization.
struct SimplexBasis {
  std::vector<int> basic;
  std::vector<BasisStatus> status;

  bool empty() const { return basic.empty(); }
};

/// Solve-internals counters surfaced through LpResult / MipResult and the
/// bench JSON: how much pivoting, refactorization, and warm-start reuse a
/// solve actually did.
struct LpEngineStats {
  long long pivots = 0;            ///< basis changes (bound flips excluded)
  long long refactorizations = 0;  ///< from-scratch basis factorizations
  long long basis_repairs = 0;     ///< dependent columns replaced by slacks
  long long basis_reuses = 0;      ///< LP solves adopting a warm basis
  int max_eta_length = 0;          ///< longest eta file between refactorizations

  void MergeWith(const LpEngineStats& other) {
    pivots += other.pivots;
    refactorizations += other.refactorizations;
    basis_repairs += other.basis_repairs;
    basis_reuses += other.basis_reuses;
    if (other.max_eta_length > max_eta_length) {
      max_eta_length = other.max_eta_length;
    }
  }
};

/// Abstract basis representation. All vectors are dense of length m; Ftran
/// maps row space -> basis-position space, Btran the transpose direction.
class BasisRep {
 public:
  virtual ~BasisRep() = default;

  /// Rebuilds the representation for the basis `*basic` (variable indices
  /// into `cols`). Dependent columns are repaired in place: basic[p] is
  /// replaced with the slack of a row the elimination never pivoted, and the
  /// ejected variable index is appended to *ejected (the caller re-states
  /// it nonbasic). After return the representation is nonsingular.
  virtual void Factorize(const SparseColumns& cols, int n_struct,
                         std::vector<int>* basic,
                         std::vector<int>* ejected) = 0;

  /// v := B^-1 v. Input indexed by matrix row, output by basis position.
  virtual void Ftran(std::vector<double>* v) const = 0;

  /// w := B^-1 a for a sparse column (the pivot-column hot path; an
  /// implementation may exploit the column's sparsity directly).
  virtual void FtranColumn(const std::vector<std::pair<int, double>>& column,
                           std::vector<double>* w) const = 0;

  /// v := B^-T v. Input indexed by basis position, output by matrix row.
  virtual void Btran(std::vector<double>* v) const = 0;

  /// Records the basis change at position `pos`, where `w` is the Ftran image
  /// of the entering column. Returns false when the update is numerically
  /// unsafe (|w[pos]| below the smallest accepted pivot) — the caller must
  /// refactorize. The eta file has no length cap of its own; the caller
  /// refactorizes at SimplexOptions::refactor_interval.
  virtual bool Update(int pos, const std::vector<double>& w) = 0;

  /// Current eta-file length (0 for representations without one).
  virtual int eta_length() const { return 0; }
};

std::unique_ptr<BasisRep> MakeLuFactorization(int m);

}  // namespace rdfsr::ilp

#endif  // RDFSR_ILP_BASIS_H_
