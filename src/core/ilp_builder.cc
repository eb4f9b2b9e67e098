#include "core/ilp_builder.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "eval/counts.h"
#include "util/check.h"

namespace rdfsr::core {

std::vector<TauShape> AnalyzeTaus(const std::vector<eval::TauCount>& tau_counts,
                                  const schema::SignatureIndex& index) {
  std::vector<TauShape> shapes;
  shapes.reserve(tau_counts.size());
  for (const eval::TauCount& tc : tau_counts) {
    TauShape shape;
    // Distinct member signatures (first-appearance order) and the union of
    // their supports: a property is "covered" when some member signature's
    // support word already contains it.
    schema::PropertySet seen_sigs(index.num_signatures());
    schema::PropertySet covered(index.num_properties());
    for (const auto& [sig, prop] : tc.tau.cells) {
      (void)prop;
      if (!seen_sigs.Contains(sig)) {
        seen_sigs.Insert(sig);
        shape.sigs.push_back(sig);
        covered.UnionWith(index.signature(sig).props());
      }
    }
    schema::PropertySet linked(index.num_properties());
    for (const auto& [sig, prop] : tc.tau.cells) {
      (void)sig;
      if (!covered.Contains(prop) && !linked.Contains(prop)) {
        linked.Insert(prop);
        shape.linked_props.push_back(prop);
      }
    }
    shape.total = tc.total;
    shape.favorable = tc.favorable;
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

namespace {

/// A tau touching one signature whose properties all lie in its support has
/// T == X_{i,mu}: no T variable, its weight folds into the X term.
bool IsSubstituted(const TauShape& shape) {
  return shape.sigs.size() == 1 && shape.linked_props.empty();
}

/// Shared accounting for the two row counters: `link_rows_per_tau` maps a
/// materialized tau's linked-variable count to its contribution to (4).
std::size_t CountRows(const schema::SignatureIndex& index,
                      const std::vector<TauShape>& shapes, int k,
                      const std::function<std::size_t(std::size_t)>&
                          link_rows_per_tau) {
  const std::size_t n = index.num_signatures();
  std::size_t support_links = 0;
  for (std::size_t mu = 0; mu < n; ++mu) {
    support_links += index.signature(mu).props().Popcount();
  }
  std::size_t tau_links = 0;
  for (const TauShape& shape : shapes) {
    if (IsSubstituted(shape)) continue;
    tau_links +=
        link_rows_per_tau(shape.sigs.size() + shape.linked_props.size());
  }
  return n +  // assignment rows (1)
         static_cast<std::size_t>(k) *
             (support_links + index.num_properties() +  // (2) + (3)
              tau_links +                               // linking rows (4)
              1) +                                      // threshold row (5)
         static_cast<std::size_t>(k - 1) * n;           // precedence rows (6)
}

}  // namespace

std::size_t RefinementIlpRows(const schema::SignatureIndex& index,
                              const std::vector<TauShape>& shapes, int k) {
  // The skeleton always carries both directions: |linked| upper + 1 lower.
  return CountRows(index, shapes, k,
                   [](std::size_t linked) { return linked + 1; });
}

std::size_t RefinementIlpActiveRows(const schema::SignatureIndex& index,
                                    const std::vector<TauShape>& shapes,
                                    int k) {
  // Sign-directed: at any theta a tau keeps at most one side — the |linked|
  // upper rows (positive weight) or the single lower row (negative weight).
  return CountRows(index, shapes, k, [](std::size_t linked) {
    return std::max<std::size_t>(linked, 1);
  });
}

SortRefinement IlpEncoding::Decode(const std::vector<double>& x) const {
  SortRefinement refinement;
  for (int i = 0; i < k; ++i) {
    std::vector<int> members;
    for (int mu = 0; mu < num_signatures; ++mu) {
      // lint:allow(float-compare: rounding an integral 0/1 LP variable)
      if (x[x_var[i][mu]] > 0.5) members.push_back(mu);
    }
    if (!members.empty()) refinement.sorts.push_back(std::move(members));
  }
  return refinement;
}

RefinementIlpInstance::RefinementIlpInstance(
    const schema::SignatureIndex& index, std::vector<TauShape> shapes, int k,
    const IlpBuildOptions&)
    : shapes_(std::move(shapes)) {
  RDFSR_CHECK_GT(k, 0);

  enc_.k = k;
  enc_.num_signatures = static_cast<int>(index.num_signatures());
  const int num_props = static_cast<int>(index.num_properties());

  ilp::Model& model = enc_.model;

  // --- X variables -----------------------------------------------------
  enc_.x_var.assign(k, std::vector<int>(enc_.num_signatures, -1));
  for (int i = 0; i < k; ++i) {
    for (int mu = 0; mu < enc_.num_signatures; ++mu) {
      enc_.x_var[i][mu] = model.AddBinary("X_" + std::to_string(i) + "_" +
                                          std::to_string(mu));
    }
  }

  // --- U variables -------------------------------------------------------
  // Constraints (2)+(3) pin U to its exact 0/1 value once X is integral, so U
  // may be continuous (see header).
  std::vector<std::vector<int>> u_var(k, std::vector<int>(num_props, -1));
  for (int i = 0; i < k; ++i) {
    for (int p = 0; p < num_props; ++p) {
      u_var[i][p] =
          model.AddVariable("U_" + std::to_string(i) + "_" + std::to_string(p),
                            0, 1, false);
    }
  }

  // (1) each signature placed exactly once.
  for (int mu = 0; mu < enc_.num_signatures; ++mu) {
    std::vector<ilp::LinTerm> terms;
    for (int i = 0; i < k; ++i) terms.push_back({enc_.x_var[i][mu], 1.0});
    model.AddConstraint("assign_" + std::to_string(mu), std::move(terms), 1, 1);
  }

  // (2) X_{i,mu} <= U_{i,p} for p in supp(mu);
  // (3) U_{i,p} <= sum of supporting X.
  // Column generation from the support words: one pass over the packed
  // signature supports yields, per property, the ascending list of supporting
  // signatures, instead of probing every (mu, p) pair per sort.
  std::vector<std::vector<int>> sigs_with(num_props);
  for (int mu = 0; mu < enc_.num_signatures; ++mu) {
    index.signature(mu).props().ForEach(
        [&](int p) { sigs_with[p].push_back(mu); });
  }
  for (int i = 0; i < k; ++i) {
    for (int p = 0; p < num_props; ++p) {
      std::vector<ilp::LinTerm> supporters;
      for (int mu : sigs_with[p]) {
        model.AddConstraint(
            "use_lo_" + std::to_string(i) + "_" + std::to_string(mu) + "_" +
                std::to_string(p),
            {{enc_.x_var[i][mu], 1.0}, {u_var[i][p], -1.0}}, -ilp::kInfinity,
            0);
        supporters.push_back({enc_.x_var[i][mu], 1.0});
      }
      supporters.push_back({u_var[i][p], -1.0});
      model.AddConstraint(
          "use_hi_" + std::to_string(i) + "_" + std::to_string(p),
          std::move(supporters), 0, ilp::kInfinity);
    }
  }

  // --- T variables, linking rows (4), threshold rows (5) ------------------
  // The skeleton materializes every non-substituted tau with BOTH linking
  // directions; link rows start vacuous (both bounds infinite) and threshold
  // rows empty — Reweight activates the theta-dependent parts per instance.
  t_var_.assign(k, std::vector<int>(shapes_.size(), -1));
  link_row_.assign(k, std::vector<int>(shapes_.size(), -1));
  threshold_row_.assign(k, -1);
  for (int i = 0; i < k; ++i) {
    for (std::size_t t = 0; t < shapes_.size(); ++t) {
      const TauShape& shape = shapes_[t];
      if (IsSubstituted(shape)) {
        if (i == 0) ++enc_.num_tau_substituted;
        continue;  // T == X_{i,mu}; folded into the threshold row
      }
      const int t_var = enc_.model.AddVariable(
          "T_" + std::to_string(i) + "_" + std::to_string(t), 0, 1, false);
      if (i == 0) ++enc_.num_tau_variables;
      t_var_[i][t] = t_var;

      // The variables T is the conjunction of.
      std::vector<int> linked;
      for (int mu : shape.sigs) linked.push_back(enc_.x_var[i][mu]);
      for (int p : shape.linked_props) linked.push_back(u_var[i][p]);

      // Upper envelope rows: T <= each linked variable.
      link_row_[i][t] = static_cast<int>(model.num_constraints());
      for (int lv : linked) {
        model.AddConstraint("t_ub", {{t_var, 1.0}, {lv, -1.0}},
                            -ilp::kInfinity, ilp::kInfinity);
      }
      // Lower envelope row: T >= sum(linked) - (n-1).
      std::vector<ilp::LinTerm> lower{{t_var, 1.0}};
      for (int lv : linked) lower.push_back({lv, -1.0});
      model.AddConstraint("t_lb", std::move(lower), -ilp::kInfinity,
                          ilp::kInfinity);
    }
    threshold_row_[i] = model.AddConstraint("theta_" + std::to_string(i), {},
                                            0, ilp::kInfinity);
  }

  // --- (6) symmetry breaking by precedence ---------------------------------
  // Signature mu may open sort i (> 0) only if some earlier signature is in
  // sort i-1; equivalently X_{i,mu} <= sum_{mu' < mu} X_{i-1,mu'}. For mu < i
  // the right-hand side chain is structurally empty, fixing X to 0.
  for (int i = 1; i < k; ++i) {
    for (int mu = 0; mu < enc_.num_signatures; ++mu) {
      std::vector<ilp::LinTerm> terms{{enc_.x_var[i][mu], 1.0}};
      for (int prev = 0; prev < mu; ++prev) {
        terms.push_back({enc_.x_var[i - 1][prev], -1.0});
      }
      model.AddConstraint(
          "prec_" + std::to_string(i) + "_" + std::to_string(mu),
          std::move(terms), -ilp::kInfinity, 0);
    }
  }
}

void RefinementIlpInstance::Reweight(Rational theta) {
  RDFSR_CHECK_GE(theta.num(), 0);
  ilp::Model& model = enc_.model;

  // Exact per-tau weights w = theta2*cF - theta1*cT, and the scale keeping
  // threshold coefficients O(1) for the double simplex regardless of dataset
  // size.
  std::vector<eval::BigCount> weight(shapes_.size(), 0);
  double max_weight = 1.0;
  for (std::size_t t = 0; t < shapes_.size(); ++t) {
    weight[t] =
        static_cast<eval::BigCount>(theta.den()) * shapes_[t].favorable -
        static_cast<eval::BigCount>(theta.num()) * shapes_[t].total;
    max_weight =
        std::max(max_weight, std::abs(static_cast<double>(weight[t])));
  }

  const int k = enc_.k;
  for (int i = 0; i < k; ++i) {
    std::vector<ilp::LinTerm> threshold;  // sum w(tau) T_{i,tau} >= 0
    for (std::size_t t = 0; t < shapes_.size(); ++t) {
      const TauShape& shape = shapes_[t];
      const bool materialized = t_var_[i][t] >= 0;
      if (weight[t] != 0) {
        const double w = static_cast<double>(weight[t]) / max_weight;
        threshold.push_back(
            {materialized ? t_var_[i][t] : enc_.x_var[i][shape.sigs[0]], w});
      }
      if (!materialized) continue;

      // Sign-directed activation: a positive-weight tau only needs the upper
      // links (the row pushes T up), a negative-weight one only the lower
      // link; a zero-weight tau is absent from the row, so both sides relax
      // (its T is free and unused).
      const bool need_upper = weight[t] > 0;
      const bool need_lower = weight[t] < 0;
      const int first = link_row_[i][t];
      const int n_linked =
          static_cast<int>(shape.sigs.size() + shape.linked_props.size());
      for (int r = 0; r < n_linked; ++r) {
        model.SetConstraintBounds(first + r,
                                  -ilp::kInfinity,
                                  need_upper ? 0.0 : ilp::kInfinity);
      }
      model.SetConstraintBounds(first + n_linked,
                                need_lower ? 1.0 - n_linked : -ilp::kInfinity,
                                ilp::kInfinity);
    }
    model.SetConstraintTerms(threshold_row_[i], std::move(threshold), 0,
                             ilp::kInfinity);
  }

  RDFSR_AUDIT_CHECK_INVARIANTS(*this);
}

void RefinementIlpInstance::CheckInvariants() const {
  const ilp::Model& model = enc_.model;
  model.CheckInvariants();

  const std::size_t k = static_cast<std::size_t>(enc_.k);
  const std::size_t num_vars = model.num_variables();
  const std::size_t num_rows = model.num_constraints();
  RDFSR_CHECK_EQ(enc_.x_var.size(), k);
  RDFSR_CHECK_EQ(t_var_.size(), k);
  RDFSR_CHECK_EQ(link_row_.size(), k);
  RDFSR_CHECK_EQ(threshold_row_.size(), k);

  std::vector<char> own_var(num_vars, 0);  // sort i's X and T variables
  for (std::size_t i = 0; i < k; ++i) {
    RDFSR_CHECK_EQ(enc_.x_var[i].size(),
                   static_cast<std::size_t>(enc_.num_signatures));
    RDFSR_CHECK_EQ(t_var_[i].size(), shapes_.size());
    RDFSR_CHECK_EQ(link_row_[i].size(), shapes_.size());

    std::fill(own_var.begin(), own_var.end(), 0);
    for (int v : enc_.x_var[i]) {
      RDFSR_CHECK_GE(v, 0);
      RDFSR_CHECK_LT(static_cast<std::size_t>(v), num_vars);
      own_var[v] = 1;
    }

    for (std::size_t t = 0; t < shapes_.size(); ++t) {
      const TauShape& shape = shapes_[t];
      const int t_var = t_var_[i][t];
      RDFSR_CHECK_EQ(t_var < 0, IsSubstituted(shape))
          << "substitution decision out of sync with the T map";
      if (t_var < 0) {
        RDFSR_CHECK_EQ(link_row_[i][t], -1);
        RDFSR_CHECK_EQ(shape.sigs.size(), 1u)
            << "substituted tau must touch a single signature";
        continue;
      }
      RDFSR_CHECK_LT(static_cast<std::size_t>(t_var), num_vars);
      own_var[t_var] = 1;

      // Rows [first, first + n_linked] exist and carry exactly the bound
      // shapes Reweight toggles between (upper: -inf <= . <= {0, inf};
      // lower: {1 - n, -inf} <= . <= inf).
      const int first = link_row_[i][t];
      const int n_linked =
          static_cast<int>(shape.sigs.size() + shape.linked_props.size());
      RDFSR_CHECK_GE(first, 0);
      RDFSR_CHECK_LT(static_cast<std::size_t>(first + n_linked), num_rows);
      for (int r = 0; r < n_linked; ++r) {
        const ilp::Constraint& row = model.constraint(first + r);
        RDFSR_CHECK_EQ(row.lower, -ilp::kInfinity);
        RDFSR_CHECK(row.upper == 0.0 || row.upper == ilp::kInfinity)
            << "upper link row bound is neither active nor vacuous";
      }
      const ilp::Constraint& lower_row = model.constraint(first + n_linked);
      RDFSR_CHECK_EQ(lower_row.upper, ilp::kInfinity);
      // lint:allow(float-compare: audit check of an exactly-stored sentinel)
      RDFSR_CHECK(lower_row.lower == 1.0 - n_linked ||
                  lower_row.lower == -ilp::kInfinity)
          << "lower link row bound is neither active nor vacuous";
    }

    // The threshold row sum w(tau) T >= 0 may only mention sort i's own
    // X/T variables — a cross-sort term would couple the blocks.
    const int theta_row = threshold_row_[i];
    RDFSR_CHECK_GE(theta_row, 0);
    RDFSR_CHECK_LT(static_cast<std::size_t>(theta_row), num_rows);
    const ilp::Constraint& theta = model.constraint(theta_row);
    RDFSR_CHECK_EQ(theta.lower, 0.0);
    RDFSR_CHECK_EQ(theta.upper, ilp::kInfinity);
    for (const ilp::LinTerm& term : theta.terms) {
      RDFSR_CHECK(own_var[term.var])
          << "threshold row " << i << " mentions another sort's variable";
    }
  }
}

IlpEncoding BuildRefinementIlp(const schema::SignatureIndex& index,
                               const std::vector<eval::TauCount>& tau_counts,
                               int k, Rational theta) {
  RefinementIlpInstance instance(index, AnalyzeTaus(tau_counts, index), k);
  instance.Reweight(theta);
  return std::move(instance).ReleaseEncoding();
}

}  // namespace rdfsr::core
