#include "ilp/model.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace rdfsr::ilp {

int Model::AddVariable(std::string name, double lower, double upper,
                       bool is_integer) {
  RDFSR_CHECK_LE(lower, upper) << "variable '" << name << "' has empty domain";
  Variable v;
  v.name = std::move(name);
  v.lower = lower;
  v.upper = upper;
  v.is_integer = is_integer;
  variables_.push_back(std::move(v));
  return static_cast<int>(variables_.size()) - 1;
}

namespace {

std::vector<LinTerm> MergeTerms(std::vector<LinTerm> terms,
                                std::size_t num_variables) {
  std::map<int, double> merged;
  for (const LinTerm& t : terms) {
    RDFSR_CHECK_GE(t.var, 0);
    RDFSR_CHECK_LT(static_cast<std::size_t>(t.var), num_variables);
    merged[t.var] += t.coef;
  }
  std::vector<LinTerm> out;
  out.reserve(merged.size());
  for (const auto& [var, coef] : merged) {
    if (coef != 0.0) out.push_back({var, coef});
  }
  return out;
}

}  // namespace

int Model::AddConstraint(std::string name, std::vector<LinTerm> terms,
                         double lower, double upper) {
  RDFSR_CHECK_LE(lower, upper) << "constraint '" << name << "' is empty";
  Constraint c;
  c.name = std::move(name);
  c.terms = MergeTerms(std::move(terms), variables_.size());
  c.lower = lower;
  c.upper = upper;
  constraints_.push_back(std::move(c));
  return static_cast<int>(constraints_.size()) - 1;
}

void Model::SetConstraintTerms(int r, std::vector<LinTerm> terms, double lower,
                               double upper) {
  RDFSR_CHECK_GE(r, 0);
  RDFSR_CHECK_LT(static_cast<std::size_t>(r), constraints_.size());
  RDFSR_CHECK_LE(lower, upper)
      << "constraint '" << constraints_[r].name << "' is empty";
  Constraint& c = constraints_[r];
  c.terms = MergeTerms(std::move(terms), variables_.size());
  c.lower = lower;
  c.upper = upper;
}

void Model::SetConstraintBounds(int r, double lower, double upper) {
  RDFSR_CHECK_GE(r, 0);
  RDFSR_CHECK_LT(static_cast<std::size_t>(r), constraints_.size());
  RDFSR_CHECK_LE(lower, upper)
      << "constraint '" << constraints_[r].name << "' is empty";
  constraints_[r].lower = lower;
  constraints_[r].upper = upper;
}

bool Model::IsFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) return false;
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    if (x[j] < v.lower - tol || x[j] > v.upper + tol) return false;
    if (v.is_integer && std::abs(x[j] - std::round(x[j])) > tol) return false;
  }
  for (const Constraint& c : constraints_) {
    double sum = 0.0;
    for (const LinTerm& t : c.terms) sum += t.coef * x[t.var];
    // Scale the tolerance by the constraint's magnitude so rows with large
    // counts (threshold rows) are judged relatively.
    double scale = 1.0;
    for (const LinTerm& t : c.terms) scale = std::max(scale, std::abs(t.coef));
    if (sum < c.lower - tol * scale || sum > c.upper + tol * scale) {
      return false;
    }
  }
  return true;
}

void Model::CheckInvariants() const {
  for (std::size_t j = 0; j < variables_.size(); ++j) {
    const Variable& v = variables_[j];
    RDFSR_CHECK_LE(v.lower, v.upper)
        << "variable '" << v.name << "' has an empty domain";
    RDFSR_CHECK(v.lower == v.lower && v.upper == v.upper)
        << "variable '" << v.name << "' has a NaN bound";
  }
  for (const Constraint& c : constraints_) {
    RDFSR_CHECK_LE(c.lower, c.upper)
        << "constraint '" << c.name << "' has an empty range";
    RDFSR_CHECK(c.lower == c.lower && c.upper == c.upper)
        << "constraint '" << c.name << "' has a NaN bound";
    int prev_var = -1;
    for (const LinTerm& t : c.terms) {
      RDFSR_CHECK_GE(t.var, 0) << c.name;
      RDFSR_CHECK_LT(static_cast<std::size_t>(t.var), variables_.size())
          << c.name << " references a variable past the model";
      RDFSR_CHECK_LT(prev_var, t.var)
          << c.name << " mentions a variable twice (terms must stay merged)";
      RDFSR_CHECK(t.coef != 0.0 && t.coef == t.coef)
          << c.name << " holds a zero or NaN coefficient";
      prev_var = t.var;
    }
  }
}

std::string Model::ToString() const {
  std::ostringstream out;
  out << "model: " << variables_.size() << " vars, " << constraints_.size()
      << " constraints\n";
  for (const Constraint& c : constraints_) {
    out << c.name << ": ";
    if (c.lower > -kInfinity) out << c.lower << " <= ";
    for (std::size_t i = 0; i < c.terms.size(); ++i) {
      if (i > 0) out << " + ";
      out << c.terms[i].coef << "*" << variables_[c.terms[i].var].name;
    }
    if (c.upper < kInfinity) out << " <= " << c.upper;
    out << "\n";
  }
  return out.str();
}

}  // namespace rdfsr::ilp
