// Sparse-basis simplex tests: the LU factorization + eta-file basis against
// the dense-inverse oracle (tests/dense_inverse_oracle.h) at the basis level,
// the default engine against refactorization after every pivot on randomized
// bounded-variable LPs, warm starts, degenerate fixtures, refactorization
// stats, and pinned pivot trajectories.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/ilp_builder.h"
#include "dense_inverse_oracle.h"
#include "eval/enumerator.h"
#include "gen/random_graph.h"
#include "ilp/basis.h"
#include "ilp/branch_and_bound.h"
#include "ilp/simplex.h"
#include "objective_bound.h"
#include "rules/builtins.h"

namespace rdfsr::ilp {
namespace {

using testutil::WithObjectiveBound;

/// The tolerance branch-and-bound accepts a point at.
constexpr double kFeasTol = 1e-5;

// A random bounded-variable LP: mixed bound patterns (two-sided, one-sided,
// free), mixed row types (<=, >=, ==, two-sided range), sparse rows.
Model RandomLp(std::mt19937_64* rng) {
  std::uniform_int_distribution<int> n_dist(3, 9);
  std::uniform_int_distribution<int> m_dist(2, 7);
  std::uniform_real_distribution<double> coef(-3.0, 3.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  Model m;
  const int n = n_dist(*rng);
  const int rows = m_dist(*rng);
  for (int j = 0; j < n; ++j) {
    const double p = unit(*rng);
    double lb = 0.0, ub = 4.0 * unit(*rng) + 0.5;
    if (p < 0.15) {
      lb = -kInfinity;  // one-sided from above
    } else if (p < 0.25) {
      ub = kInfinity;  // one-sided from below
    } else if (p < 0.30) {
      lb = -kInfinity;
      ub = kInfinity;  // free
    } else if (p < 0.45) {
      lb = -2.0 * unit(*rng) - 0.5;  // two-sided straddling zero
    }
    m.AddVariable("x", lb, ub, false);
  }
  for (int r = 0; r < rows; ++r) {
    std::uniform_int_distribution<int> nnz_dist(1, std::min(4, n));
    const int nnz = nnz_dist(*rng);
    std::vector<LinTerm> terms;
    std::vector<char> used(n, 0);
    for (int t = 0; t < nnz; ++t) {
      std::uniform_int_distribution<int> var_dist(0, n - 1);
      int j = var_dist(*rng);
      if (used[j]) continue;
      used[j] = 1;
      double c = coef(*rng);
      if (std::abs(c) < 0.1) c = 0.5;
      terms.push_back({j, c});
    }
    const double kind = unit(*rng);
    const double mid = 4.0 * coef(*rng) / 3.0;
    if (kind < 0.35) {
      m.AddConstraint("r", std::move(terms), -kInfinity, mid);
    } else if (kind < 0.70) {
      m.AddConstraint("r", std::move(terms), mid, kInfinity);
    } else if (kind < 0.85) {
      m.AddConstraint("r", std::move(terms), mid, mid);
    } else {
      m.AddConstraint("r", std::move(terms), mid - 1.0, mid + 1.0);
    }
  }
  return m;
}

// `m` with its variable bounds replaced by [lower, upper].
Model WithBounds(const Model& m, const std::vector<double>& lower,
                 const std::vector<double>& upper) {
  Model out;
  for (std::size_t j = 0; j < m.num_variables(); ++j) {
    const Variable& v = m.variable(static_cast<int>(j));
    out.AddVariable(v.name, lower[j], upper[j], v.is_integer);
  }
  for (const Constraint& c : m.constraints()) {
    out.AddConstraint(c.name, c.terms, c.lower, c.upper);
  }
  return out;
}

// A branch-and-bound child of `m` after the solve `parent`: the first basic
// structural strictly inside its box gets a bound that cuts off the parent
// point. The up-branch raises its lower bound to the midpoint of its value
// and its upper bound (the value + 1 when the upper bound is infinite); the
// down-branch lowers its upper bound to the midpoint of its lower bound and
// its value (the value - 1 when the lower bound is infinite). Returns false
// when no basic structural sits strictly inside its box.
bool CutChild(const Model& m, const LpResult& parent, bool up,
              std::vector<double>* lower, std::vector<double>* upper) {
  const int n = static_cast<int>(m.num_variables());
  lower->resize(n);
  upper->resize(n);
  for (int j = 0; j < n; ++j) {
    (*lower)[j] = m.variable(j).lower;
    (*upper)[j] = m.variable(j).upper;
  }
  for (int j = 0; j < n; ++j) {
    const double x = parent.x[j];
    const double lo = (*lower)[j];
    const double hi = (*upper)[j];
    if (parent.basis.status[j] != BasisStatus::kBasic || x <= lo || x >= hi) {
      continue;
    }
    if (up) {
      (*lower)[j] = hi < kInfinity ? (x + hi) / 2 : x + 1;
    } else {
      (*upper)[j] = lo > -kInfinity ? (lo + x) / 2 : x - 1;
    }
    return true;
  }
  return false;
}

// The columns of [A | -I] for `m`, as the simplex lays them out: structural
// variables in model order, then one slack per row.
SparseColumns ColumnsOf(const Model& m) {
  const int n_struct = static_cast<int>(m.num_variables());
  const int rows = static_cast<int>(m.num_constraints());
  SparseColumns cols(n_struct + rows);
  for (int r = 0; r < rows; ++r) {
    for (const LinTerm& t : m.constraint(r).terms) {
      cols[t.var].push_back({r, t.coef});
    }
    cols[n_struct + r].push_back({r, -1.0});
  }
  return cols;
}

// Largest |a_i - b_i| relative to the larger magnitude (at least 1).
double MaxRelDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::abs(a[i]), std::abs(b[i])});
    diff = std::max(diff, std::abs(a[i] - b[i]) / scale);
  }
  return diff;
}

TEST(SimplexSparseTest, LuBasisMatchesDenseInverseOracle) {
  // Both representations run the same chains: Factorize a random basis of
  // [A | -I], then FtranColumn -> Update pivots, refactorizing both whenever
  // either reports an unsafe update, and compare the Ftran / FtranColumn /
  // Btran images after every step. Most leaving positions are numerically
  // safe (within 10x of the largest |w|, as threshold pivoting would pick);
  // now and then one the entering column does not touch, which makes the
  // update unsafe and the new basis singular, so the refactorization has to
  // repair it.
  constexpr double kTol = 1e-7;
  std::mt19937_64 rng(20140814);
  // Draws the sparse right-hand sides, so `rng`'s chain stays as it was.
  std::mt19937_64 sparse_rng(4669201);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::uniform_int_distribution<int> one_in_eight(0, 7);
  long long updates = 0;
  long long unsafe_updates = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Model m = RandomLp(&rng);
    const int n_struct = static_cast<int>(m.num_variables());
    const int rows = static_cast<int>(m.num_constraints());
    const int n = n_struct + rows;
    const SparseColumns cols = ColumnsOf(m);

    std::vector<int> order(n);
    for (int j = 0; j < n; ++j) order[j] = j;
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<int> basic(order.begin(), order.begin() + rows);
    std::vector<int> oracle_basic = basic;

    const std::unique_ptr<BasisRep> lu = MakeLuFactorization(rows);
    oracle::DenseInverse dense(rows);
    const auto factorize = [&] {
      std::vector<int> ejected, oracle_ejected;
      lu->Factorize(cols, n_struct, &basic, &ejected);
      dense.Factorize(cols, n_struct, &oracle_basic, &oracle_ejected);
      // The oracle factorizes through the LU, so repairs must coincide.
      ASSERT_EQ(basic, oracle_basic) << "trial " << trial;
      ASSERT_EQ(ejected, oracle_ejected) << "trial " << trial;
    };
    factorize();
    if (HasFatalFailure()) return;

    for (int step = 0; step < 3 * rows; ++step) {
      std::vector<double> v(rows), v_dense;
      for (double& x : v) x = unit(rng);
      v_dense = v;
      lu->Ftran(&v);
      dense.Ftran(&v_dense);
      EXPECT_LT(MaxRelDiff(v, v_dense), kTol) << "Ftran, trial " << trial;
      for (double& x : v) x = unit(rng);
      v_dense = v;
      lu->Btran(&v);
      dense.Btran(&v_dense);
      EXPECT_LT(MaxRelDiff(v, v_dense), kTol) << "Btran, trial " << trial;

      // Sparse right-hand sides, the simplex's usual case (a phase-1 cost
      // vector has a handful of nonzeros): every unit vector, then vectors
      // with two or three nonzeros.
      std::vector<std::vector<double>> sparse;
      for (int i = 0; i < rows; ++i) {
        sparse.emplace_back(rows, 0.0);
        sparse.back()[i] = 1.0;
      }
      for (const int nnz : {2, 3}) {
        if (nnz > rows) break;
        std::vector<int> at(rows);
        for (int i = 0; i < rows; ++i) at[i] = i;
        std::shuffle(at.begin(), at.end(), sparse_rng);
        sparse.emplace_back(rows, 0.0);
        for (int t = 0; t < nnz; ++t) sparse.back()[at[t]] = unit(sparse_rng);
      }
      for (const std::vector<double>& rhs : sparse) {
        v = rhs;
        v_dense = rhs;
        lu->Ftran(&v);
        dense.Ftran(&v_dense);
        EXPECT_LT(MaxRelDiff(v, v_dense), kTol) << "sparse Ftran, " << trial;
        v = rhs;
        v_dense = rhs;
        lu->Btran(&v);
        dense.Btran(&v_dense);
        EXPECT_LT(MaxRelDiff(v, v_dense), kTol) << "sparse Btran, " << trial;
      }

      // A random nonbasic column enters.
      std::vector<char> in_basis(n, 0);
      for (int j : basic) in_basis[j] = 1;
      std::vector<int> candidates;
      for (int j = 0; j < n; ++j) {
        if (in_basis[j] == 0) candidates.push_back(j);
      }
      if (candidates.empty()) break;
      const int entering = candidates[std::uniform_int_distribution<int>(
          0, static_cast<int>(candidates.size()) - 1)(rng)];
      std::vector<double> w, w_dense;
      lu->FtranColumn(cols[entering], &w);
      dense.FtranColumn(cols[entering], &w_dense);
      EXPECT_LT(MaxRelDiff(w, w_dense), kTol) << "FtranColumn, trial " << trial;

      double w_max = 0.0;
      for (double x : w) w_max = std::max(w_max, std::abs(x));
      std::vector<int> safe, untouched;
      for (int r = 0; r < rows; ++r) {
        if (w_max > 1e-6 && std::abs(w[r]) >= 0.1 * w_max) {
          safe.push_back(r);
        } else if (w[r] == 0.0) {
          untouched.push_back(r);
        }
      }
      const bool pick_untouched =
          !untouched.empty() && (safe.empty() || one_in_eight(rng) == 0);
      const std::vector<int>& pool = pick_untouched ? untouched : safe;
      if (pool.empty()) continue;
      const int pos = pool[std::uniform_int_distribution<int>(
          0, static_cast<int>(pool.size()) - 1)(rng)];
      basic[pos] = entering;
      oracle_basic[pos] = entering;
      const bool lu_stable = lu->Update(pos, w);
      const bool dense_stable = dense.Update(pos, w_dense);
      if (lu_stable && dense_stable) {
        ++updates;
      } else {
        ++unsafe_updates;
        factorize();
        if (HasFatalFailure()) return;
      }
    }
  }
  // The chains must exercise both the eta updates and the repair path.
  EXPECT_GT(updates, 1000);
  EXPECT_GT(unsafe_updates, 100);
}

TEST(SimplexSparseTest, BtranCountsARepositionedDualOnce) {
  // A fixed chain on three rows whose arithmetic is exact in binary. From the
  // slack basis (B = -I), column c0 = (1, 1, 0) enters at position 1, then
  // c1 = (3, 1, 0) and c2 = (3.5, 1.5, 0) both enter at position 0, so one
  // eta file replaces position 0 twice. Btran of y = (1, 2, 0) runs the etas
  // newest first: c2's eta cancels y[0] to exactly 1 - 0.5 * 2 = 0, c1's eta
  // makes it nonzero again, and c0's eta must then read y[0] once. Counting
  // it twice gives y = (-1, 4, 0) instead of (-1, 3, 0).
  const SparseColumns cols = {
      {{0, 1.0}, {1, 1.0}},  {{0, 3.0}, {1, 1.0}}, {{0, 3.5}, {1, 1.5}},
      {{0, -1.0}},           {{1, -1.0}},          {{2, -1.0}},
  };
  constexpr int kRows = 3;
  constexpr int kStructurals = 3;
  std::vector<int> basic = {3, 4, 5};
  std::vector<int> oracle_basic = basic;
  std::vector<int> ejected;
  const std::unique_ptr<BasisRep> lu = MakeLuFactorization(kRows);
  oracle::DenseInverse dense(kRows);
  lu->Factorize(cols, kStructurals, &basic, &ejected);
  dense.Factorize(cols, kStructurals, &oracle_basic, &ejected);
  ASSERT_TRUE(ejected.empty());

  const std::pair<int, int> chain[] = {{0, 1}, {1, 0}, {2, 0}};
  const std::vector<double> images[] = {{-1, -1, 0}, {-2, 1, 0}, {1, 0.5, 0}};
  for (int step = 0; step < 3; ++step) {
    const auto [entering, pos] = chain[step];
    std::vector<double> w, w_dense;
    lu->FtranColumn(cols[entering], &w);
    dense.FtranColumn(cols[entering], &w_dense);
    EXPECT_EQ(w, images[step]) << "step " << step;
    EXPECT_EQ(w_dense, images[step]) << "step " << step;
    ASSERT_TRUE(lu->Update(pos, w));
    ASSERT_TRUE(dense.Update(pos, w_dense));
  }
  ASSERT_EQ(lu->eta_length(), 3);

  std::vector<double> y = {1, 2, 0};
  std::vector<double> y_dense = y;
  lu->Btran(&y);
  dense.Btran(&y_dense);
  EXPECT_EQ(y, (std::vector<double>{-1, 3, 0}));
  EXPECT_EQ(y_dense, (std::vector<double>{-1, 3, 0}));

  // The same basis through Ftran: B x = (1, 2, 0) has x = (-0.5, 2.75, 0)
  // over the basis positions (c2, c0, slack 2).
  std::vector<double> x = {1, 2, 0};
  lu->Ftran(&x);
  EXPECT_EQ(x, (std::vector<double>{-0.5, 2.75, 0}));
}

TEST(SimplexSparseTest, RandomizedLpsMatchRefactorizationEveryPivot) {
  // The eta file against a fresh LU after every pivot: same statuses and
  // feasible points, and the default run must actually grow its eta file.
  std::mt19937_64 rng(20140814);
  SimplexOptions eager;
  eager.refactor_interval = 1;
  int grown = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult lazy = SolveLp(m);
    const LpResult fresh = SolveLp(m, eager);
    ASSERT_EQ(lazy.status, fresh.status)
        << "trial " << trial << ": default " << LpStatusName(lazy.status)
        << " vs refactor-every-pivot " << LpStatusName(fresh.status);
    if (lazy.status == LpStatus::kOptimal) {
      EXPECT_TRUE(m.IsFeasible(lazy.x, kFeasTol)) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(fresh.x, kFeasTol)) << "trial " << trial;
    }
    EXPECT_LE(fresh.stats.max_eta_length, 1) << "trial " << trial;
    if (lazy.stats.max_eta_length > 1) ++grown;
  }
  EXPECT_GT(grown, 100);
}

TEST(SimplexSparseTest, WarmStartFromOwnOptimumNeedsNoPivots) {
  std::mt19937_64 rng(57721566);
  int warm_solves = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult cold = SolveLp(m);
    if (cold.status != LpStatus::kOptimal) continue;
    SimplexOptions options;
    options.warm_start = &cold.basis;
    const LpResult warm = SolveLp(m, options);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_TRUE(warm.warm_started) << "trial " << trial;
    EXPECT_EQ(warm.iterations, 0) << "trial " << trial;
    EXPECT_EQ(warm.stats.basis_reuses, 1) << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(warm.x, kFeasTol)) << "trial " << trial;
    ++warm_solves;
  }
  // The generator must produce enough optimal instances for the test to mean
  // anything.
  ASSERT_GT(warm_solves, 20);
}

TEST(SimplexSparseTest, WarmStartAfterBoundPerturbationMatchesColdStart) {
  std::mt19937_64 rng(16180339);
  std::uniform_real_distribution<double> nudge(0.0, 0.25);
  int compared = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult base = SolveLp(m);
    if (base.status != LpStatus::kOptimal) continue;
    // Perturb the finite variable bounds a little (the branch-and-bound /
    // Reweight situation: same structure, slightly different box).
    const int n = static_cast<int>(m.num_variables());
    std::vector<double> lb(n), ub(n);
    for (int j = 0; j < n; ++j) {
      const Variable& v = m.variable(j);
      lb[j] = v.lower > -kInfinity ? v.lower - nudge(rng) : v.lower;
      ub[j] = v.upper < kInfinity ? v.upper + nudge(rng) : v.upper;
    }
    const LpResult cold = SolveLp(m, {}, &lb, &ub);
    SimplexOptions options;
    options.warm_start = &base.basis;
    const LpResult warm = SolveLp(m, options, &lb, &ub);
    ASSERT_EQ(warm.status, cold.status) << "trial " << trial;
    EXPECT_TRUE(warm.warm_started) << "trial " << trial;
    if (cold.status == LpStatus::kOptimal) {
      EXPECT_TRUE(WithBounds(m, lb, ub).IsFeasible(warm.x, kFeasTol))
          << "trial " << trial;
    }
    ++compared;
  }
  ASSERT_GT(compared, 20);
}

TEST(SimplexSparseTest, WarmDualMatchesColdPrimalOnBranchChildren) {
  // Children shaped like branch-and-bound's: each optimal draw is cut both
  // ways on its first interior basic structural, and every child is solved
  // warm from the parent's basis (the dual simplex) and cold (the primal).
  // The draws mix free, one-sided and straddling bounds.
  std::mt19937_64 rng(14142135);
  int children = 0;
  int infeasible = 0;
  int dual_steps = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult parent = SolveLp(m);
    if (parent.status != LpStatus::kOptimal) continue;
    for (const bool up : {true, false}) {
      std::vector<double> lb, ub;
      if (!CutChild(m, parent, up, &lb, &ub)) break;
      const LpResult cold = SolveLp(m, {}, &lb, &ub);
      SimplexOptions options;
      options.warm_start = &parent.basis;
      const LpResult warm = SolveLp(m, options, &lb, &ub);
      const std::string where = "trial " + std::to_string(trial) +
                                (up ? " up" : " down");
      ASSERT_TRUE(warm.warm_started) << where;
      for (const LpResult* r : {&cold, &warm}) {
        EXPECT_NE(r->status, LpStatus::kNumericalFailure) << where;
        EXPECT_NE(r->status, LpStatus::kIterationLimit) << where;
        if (r->status == LpStatus::kOptimal) {
          EXPECT_TRUE(WithBounds(m, lb, ub).IsFeasible(r->x, kFeasTol))
              << where;
        }
      }
      EXPECT_EQ(warm.status, cold.status)
          << where << ": warm " << LpStatusName(warm.status) << ", cold "
          << LpStatusName(cold.status);
      ++children;
      if (cold.status == LpStatus::kInfeasible) ++infeasible;
      if (warm.iterations > 0) ++dual_steps;
    }
  }
  // Enough children of both verdicts, and dual iterations, to mean anything.
  EXPECT_GT(children, 300);
  EXPECT_GT(infeasible, 30);
  EXPECT_GT(children - infeasible, 30);
  EXPECT_GT(dual_steps, 200);
}

TEST(SimplexSparseTest, WarmBasisMovesParkedFreeVariableOntoItsNewBound) {
  // x is free in the first solve, so it ends nonbasic parked at 0. The
  // re-solve boxes it into [1, 2]; the warm start must move it onto a bound
  // rather than report a point outside its box.
  Model m;
  const int x = m.AddVariable("x", -kInfinity, kInfinity, false);
  const int y = m.AddVariable("y", 0, 3, false);
  m.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, -10, kInfinity);
  m.AddConstraint("cap", {{y, 1.0}}, 0, 3);
  const LpResult first = SolveLp(m);
  ASSERT_EQ(first.status, LpStatus::kOptimal);

  const std::vector<double> lower = {1.0, 0.0};
  const std::vector<double> upper = {2.0, 3.0};
  const LpResult cold = SolveLp(m, {}, &lower, &upper);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  SimplexOptions options;
  options.warm_start = &first.basis;
  const LpResult warm = SolveLp(m, options, &lower, &upper);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_GE(warm.x[x], 1.0);
  EXPECT_LE(warm.x[x], 2.0);
  EXPECT_NEAR(warm.x[x], cold.x[x], 1e-6);
}

TEST(SimplexSparseTest, MismatchedWarmBasisFallsBackToColdStart) {
  Model m;
  const int x = m.AddVariable("x", 0, 2, false);
  const int y = m.AddVariable("y", 0, 2, false);
  m.AddConstraint("c", {{x, 1.0}, {y, 1.0}}, 1, 3);
  SimplexBasis wrong_shape;
  wrong_shape.basic = {0, 1, 2};  // three rows' worth for a one-row model
  wrong_shape.status = {BasisStatus::kAtLower};
  SimplexOptions options;
  options.warm_start = &wrong_shape;
  const LpResult r = SolveLp(m, options);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_FALSE(r.warm_started);
  EXPECT_EQ(r.stats.basis_reuses, 0);
  EXPECT_TRUE(m.IsFeasible(r.x, kFeasTol));
}

TEST(SimplexSparseTest, HighlyDegenerateVertexTerminates) {
  // Many redundant hyperplanes through the optimum: zero-length steps galore.
  // max x + y + z is 2 (every "cut" row is x + y + z <= 2), so x + y + z >= 2
  // is feasible exactly on the degenerate face and x + y + z >= 2 + 1e-3 not.
  Model m;
  const int x = m.AddVariable("x", 0, kInfinity, false);
  const int y = m.AddVariable("y", 0, kInfinity, false);
  const int z = m.AddVariable("z", 0, kInfinity, false);
  for (int s = 1; s <= 6; ++s) {
    m.AddConstraint("cut",
                    {{x, 1.0 * s}, {y, 1.0 * s}, {z, 1.0 * s}}, -kInfinity,
                    2.0 * s);
    m.AddConstraint("mix", {{x, 1.0 * s}, {y, 2.0 * s}}, -kInfinity, 2.0 * s);
  }
  const std::vector<LinTerm> c = {{x, -1.0}, {y, -1.0}, {z, -1.0}};
  const LpResult at = SolveLp(WithObjectiveBound(m, c, -2.0));
  ASSERT_EQ(at.status, LpStatus::kOptimal) << LpStatusName(at.status);
  EXPECT_NEAR(testutil::Dot(c, at.x), -2.0, kFeasTol);
  const LpResult below = SolveLp(WithObjectiveBound(m, c, -2.0 - 1e-3));
  EXPECT_EQ(below.status, LpStatus::kInfeasible) << LpStatusName(below.status);

  // The dual simplex from the degenerate vertex after a bound cut, both
  // ways: zero reduced costs everywhere, so only the cost perturbation keeps
  // it from stalling.
  const Model model = WithObjectiveBound(m, c, -2.0);
  const int cap = 5 * static_cast<int>(model.num_variables() +
                                       model.num_constraints());
  for (const bool up : {true, false}) {
    std::vector<double> lb, ub;
    ASSERT_TRUE(CutChild(model, at, up, &lb, &ub));
    SimplexOptions options;
    options.warm_start = &at.basis;
    options.max_iterations = cap;
    const LpResult warm = SolveLp(model, options, &lb, &ub);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_NE(warm.status, LpStatus::kIterationLimit) << (up ? "up" : "down");
    EXPECT_EQ(warm.status, SolveLp(model, {}, &lb, &ub).status)
        << (up ? "up" : "down");
  }
}

// Rows x_r + y_r in [5e-7, 1] over continuous x_r, y_r in [0, 1]: the slack
// start violates each row's lower bound by 5e-7, inside the 1e-6 feasibility
// tolerance, while the violations sum past it.
Model TinyViolationRows(int rows) {
  Model m;
  for (int r = 0; r < rows; ++r) {
    const int x = m.AddVariable("x", 0, 1, false);
    const int y = m.AddVariable("y", 0, 1, false);
    m.AddConstraint("r", {{x, 1.0}, {y, 1.0}}, 5e-7, 1);
  }
  return m;
}

TEST(SimplexSparseTest, ManyToleratedViolationsAreFeasible) {
  // Feasibility is judged per variable, as phase 1 judges it: three rows
  // each within tolerance are as feasible as two.
  for (const int rows : {2, 3, 8}) {
    const LpResult r = SolveLp(TinyViolationRows(rows));
    EXPECT_EQ(r.status, LpStatus::kOptimal)
        << rows << " rows: " << LpStatusName(r.status);
  }
}

TEST(SimplexSparseTest, RefactorizationEveryPivotStaysExactAndCounts) {
  // refactor_interval = 1 forces a fresh LU after every pivot: slow but a
  // strong consistency check, and the stats must reflect it. The model is
  // the 4x4 assignment relaxation with its minimum cost 13 as a row: cost
  // <= 13 is feasible, cost <= 13 - 1e-3 is not, under either engine.
  const double cost[4][4] = {{9, 2, 7, 8}, {6, 4, 3, 7}, {5, 8, 1, 8},
                             {7, 6, 9, 4}};
  Model m;
  int var[4][4];
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) var[i][j] = m.AddVariable("x", 0, 1, false);
  }
  for (int i = 0; i < 4; ++i) {
    std::vector<LinTerm> row, col;
    for (int j = 0; j < 4; ++j) {
      row.push_back({var[i][j], 1.0});
      col.push_back({var[j][i], 1.0});
    }
    m.AddConstraint("row", std::move(row), 1, 1);
    m.AddConstraint("col", std::move(col), 1, 1);
  }
  std::vector<LinTerm> obj;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) obj.push_back({var[i][j], cost[i][j]});
  }
  const Model at = WithObjectiveBound(m, obj, 13.0);
  const Model below = WithObjectiveBound(m, obj, 13.0 - 1e-3);

  SimplexOptions eager;
  eager.refactor_interval = 1;
  const LpResult r = SolveLp(at, eager);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_TRUE(at.IsFeasible(r.x, kFeasTol));
  EXPECT_GT(r.stats.pivots, 0);
  EXPECT_GT(r.stats.refactorizations, 1);
  EXPECT_LE(r.stats.max_eta_length, 1);
  EXPECT_EQ(SolveLp(below, eager).status, LpStatus::kInfeasible);

  const LpResult lazy = SolveLp(at);
  ASSERT_EQ(lazy.status, LpStatus::kOptimal);
  EXPECT_TRUE(at.IsFeasible(lazy.x, kFeasTol));
  EXPECT_EQ(SolveLp(below).status, LpStatus::kInfeasible);
}

TEST(SimplexSparseTest, StatsSurfaceThroughLpResult) {
  // The first optimal draw from the generator (not every draw is feasible).
  std::mt19937_64 rng(31415926);
  for (int trial = 0;; ++trial) {
    ASSERT_LT(trial, 100) << "generator produced no optimal instance";
    const Model m = RandomLp(&rng);
    const LpResult r = SolveLp(m);
    if (r.status != LpStatus::kOptimal) continue;
    EXPECT_EQ(r.stats.pivots, r.iterations);
    EXPECT_GE(r.stats.refactorizations, 1);  // the initial factorization
    EXPECT_GE(r.stats.max_eta_length, 0);
    EXPECT_EQ(r.stats.basis_reuses, 0);
    EXPECT_FALSE(r.warm_started);
    break;
  }
}

// One solve's observable trajectory. `steps` is LpResult::iterations for an
// LP and MipResult::nodes for a MIP; `x_hash` fingerprints the solution bits.
struct Trajectory {
  int status;
  long long steps;
  long long pivots;
  long long refactorizations;
  std::uint64_t x_hash;

  bool operator==(const Trajectory&) const = default;
};

// FNV-1a over the bit patterns of x, with -0.0 read as +0.0: a kernel that
// skips exact-zero arithmetic may flip the sign of a zero and nothing else.
std::uint64_t HashBits(const std::vector<double>& x) {
  std::uint64_t h = 14695981039346656037ULL;
  for (double v : x) {
    if (v == 0.0) v = 0.0;
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

// The row as it would appear in the pinned tables below.
std::string ToRow(const Trajectory& t) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "{%d, %lld, %lld, %lld, 0x%016" PRIx64 "ULL},",
                t.status, t.steps, t.pivots, t.refactorizations, t.x_hash);
  return buf;
}

// The first 50 draws of RandomLp(mt19937_64(27182818)) under SolveLp.
constexpr Trajectory kPinnedLps[] = {
    {1, 2, 1, 1, 0x30003bba6d57abc3ULL},
    {1, 6, 5, 1, 0x7ee4f4d1f2f9d195ULL},
    {1, 1, 1, 1, 0xc74b86285e03eba3ULL},
    {1, 0, 0, 1, 0x95a69d4602c051a1ULL},
    {1, 3, 3, 1, 0x90d713800709b6b8ULL},
    {1, 3, 2, 1, 0x7d62e00ca161d767ULL},
    {1, 1, 1, 1, 0x0aec97b0efb87a9eULL},
    {1, 4, 3, 1, 0xbe87c984573cf426ULL},
    {1, 1, 1, 1, 0x5cc2ad19c923d0c1ULL},
    {1, 3, 3, 1, 0x62fa03e904006e9bULL},
    {1, 1, 0, 1, 0x60b639899ed47317ULL},
    {0, 1, 1, 1, 0xee37229d7c97d817ULL},
    {1, 4, 4, 1, 0x1626332457fe20dcULL},
    {0, 5, 5, 1, 0x893a6cf097333cb8ULL},
    {1, 3, 3, 1, 0xc5c59ef9dd500ebfULL},
    {0, 0, 0, 1, 0x7d9c6e0fb2702c0fULL},
    {1, 1, 0, 1, 0xce6e1bde99f038e2ULL},
    {1, 4, 2, 1, 0x208abed1e4d112c0ULL},
    {1, 0, 0, 1, 0x38bf0c771a2aad4aULL},
    {1, 3, 2, 1, 0x4de4fd25e722b617ULL},
    {0, 2, 2, 1, 0xc6ea55b064de18ffULL},
    {1, 2, 2, 1, 0x26bb117aefeacf3fULL},
    {1, 1, 1, 1, 0xd06a30e8a22960d7ULL},
    {1, 2, 2, 1, 0xc91280cb680976b2ULL},
    {0, 2, 2, 1, 0xe978e75a1f60d083ULL},
    {0, 3, 3, 1, 0x94a57959bb8b1344ULL},
    {1, 6, 5, 1, 0x301faa614393d343ULL},
    {0, 2, 2, 1, 0x97f1842b538ac789ULL},
    {0, 7, 7, 1, 0x5ac3f6c82cc37fddULL},
    {1, 3, 3, 1, 0x169b7761899fcccdULL},
    {1, 4, 3, 1, 0x3a0fe445b3696113ULL},
    {1, 1, 1, 1, 0x31842f53d32c2211ULL},
    {1, 5, 5, 1, 0x93e0cb52b72a4dc0ULL},
    {1, 1, 1, 1, 0x933af7c16fafe258ULL},
    {0, 2, 2, 1, 0xf02bf4f9fd99d9b4ULL},
    {1, 1, 1, 1, 0xa492ce019618a25aULL},
    {1, 1, 1, 1, 0xe2b207749da20c7fULL},
    {1, 2, 1, 1, 0x9868aeb872f747f1ULL},
    {0, 3, 3, 1, 0x61c573cd32755250ULL},
    {0, 3, 2, 1, 0xb6988c530331ea16ULL},
    {1, 7, 5, 1, 0x73c0a56903f2eac9ULL},
    {1, 3, 3, 1, 0x13f25ef3fd8da100ULL},
    {0, 5, 5, 1, 0x2325acab5e64d933ULL},
    {0, 4, 4, 1, 0x13bf9cbcfd5b2e89ULL},
    {1, 4, 3, 1, 0x1368252c6c31ce4dULL},
    {0, 3, 3, 1, 0x5deee00169e3d33fULL},
    {0, 3, 3, 1, 0x22e6dddf54cdaeecULL},
    {1, 1, 0, 1, 0x30ad9f58a1ce1eedULL},
    {1, 2, 2, 1, 0x12396fc47f7ab4acULL},
    {0, 2, 2, 1, 0x716b5831c96c57c0ULL},
};

// The up-branch child (CutChild) of each optimal draw among those 50, solved
// warm from the draw's cold basis: the dual simplex's trajectory.
constexpr Trajectory kPinnedWarmLps[] = {
    {0, 1, 1, 1, 0x81238a7d6fd97734ULL},
    {0, 1, 1, 1, 0x151a6a241ebcdef4ULL},
    {1, 0, 0, 1, 0x3b5d85b1e1050703ULL},
    {0, 1, 1, 1, 0x1ad47a30ea9ad441ULL},
    {0, 1, 1, 1, 0x4a4c16303c539967ULL},
    {1, 0, 0, 1, 0x97f1842b538ac789ULL},
    {1, 0, 0, 1, 0xeb44b740de2ac6aeULL},
    {0, 2, 2, 1, 0x0ad340879bcf245aULL},
    {1, 0, 0, 1, 0x61c573cd32755250ULL},
    {0, 1, 1, 1, 0xe215863083b635acULL},
    {1, 2, 1, 1, 0x91e56b177c3cc139ULL},
    {1, 0, 0, 1, 0xaaca7c5d012f76eeULL},
    {0, 1, 1, 1, 0xaeceacab97d9ababULL},
    {0, 1, 1, 1, 0x5b4c6a529bed7babULL},
    {1, 0, 0, 1, 0x47854bd166d7ef45ULL},
};

// SolveMip on the Section 6 Cov encodings of one random index (18
// signatures, 6 properties, seed 1) at k = 3: theta = 7/10 has no
// refinement (an infeasibility proof), theta = 6/10 has one (a dive).
constexpr Trajectory kPinnedMips[] = {
    {2, 23, 1315, 26, 0xcbf29ce484222325ULL},
    {1, 20, 609, 22, 0x5148b248316dc67aULL},
};

TEST(SimplexSparseTest, PinnedTrajectoriesStayBitIdentical) {
  // The basis kernel may skip arithmetic that is exactly zero, but every
  // nonzero value it computes must stay bit-identical, so branch-and-bound
  // takes the same pivots. These pins hold the statuses, iteration and node
  // counts, pivot and refactorization counts, and solution bits of a fixed
  // set of solves to their recorded values: cold LPs (the primal simplex),
  // warm-started children (the dual simplex), and MIPs (both). A change that
  // moves the pivot sequence on purpose re-records them from the rows
  // printed on failure.
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "pins record x86-64 SSE2 arithmetic without FMA contraction";
#endif
  const auto trajectory = [](const LpResult& r) {
    return Trajectory{static_cast<int>(r.status), r.iterations,
                      r.stats.pivots, r.stats.refactorizations, HashBits(r.x)};
  };
  std::mt19937_64 rng(27182818);
  std::vector<Trajectory> lps, warm_lps;
  for (int trial = 0; trial < 50; ++trial) {
    const Model m = RandomLp(&rng);
    const LpResult r = SolveLp(m);
    lps.push_back(trajectory(r));
    // The up-branch child of each optimal draw, warm from its cold basis:
    // the dual simplex's path.
    std::vector<double> lb, ub;
    if (r.status != LpStatus::kOptimal || !CutChild(m, r, true, &lb, &ub)) {
      continue;
    }
    SimplexOptions options;
    options.warm_start = &r.basis;
    warm_lps.push_back(trajectory(SolveLp(m, options, &lb, &ub)));
  }

  gen::RandomIndexSpec spec;
  spec.num_signatures = 18;
  spec.num_properties = 6;
  spec.seed = 1;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  const auto taus = eval::EnumerateTauCounts(rules::CovRule(), index);
  std::vector<Trajectory> mips;
  for (const Rational theta : {Rational(7, 10), Rational(6, 10)}) {
    const core::IlpEncoding enc =
        core::BuildRefinementIlp(index, taus, 3, theta);
    const MipResult r = SolveMip(enc.model);
    mips.push_back({static_cast<int>(r.status), r.nodes, r.lp_stats.pivots,
                    r.lp_stats.refactorizations, HashBits(r.x)});
  }
  EXPECT_EQ(mips[0].status, static_cast<int>(MipStatus::kInfeasible));
  EXPECT_EQ(mips[1].status, static_cast<int>(MipStatus::kFeasible));

  const auto check = [](const char* what, const std::vector<Trajectory>& got,
                        const Trajectory* want, std::size_t n) {
    std::string rows;
    for (const Trajectory& t : got) rows += "\n    " + ToRow(t);
    ASSERT_EQ(got.size(), n) << what << ", got:" << rows;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(got[i] == want[i])
          << what << " " << i << ": got " << ToRow(got[i]) << " want "
          << ToRow(want[i]);
    }
  };
  check("LP", lps, kPinnedLps, std::size(kPinnedLps));
  check("warm LP", warm_lps, kPinnedWarmLps, std::size(kPinnedWarmLps));
  check("MIP", mips, kPinnedMips, std::size(kPinnedMips));
}

}  // namespace
}  // namespace rdfsr::ilp
