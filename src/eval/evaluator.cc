#include "eval/evaluator.h"

#include "rules/builtins.h"
#include "util/check.h"

namespace rdfsr::eval {

GenericEvaluator::GenericEvaluator(rules::Rule rule,
                                   const schema::SignatureIndex* index)
    : rule_(std::move(rule)), index_(index) {
  RDFSR_CHECK(index_ != nullptr);
}

SigmaCounts Evaluator::Counts(const std::vector<int>& sig_ids) const {
  SortStats stats = MakeStats();
  for (int sig : sig_ids) stats.Add(sig);
  return CountsFromStats(stats);
}

SigmaCounts GenericEvaluator::CountsFromStats(const SortStats& stats) const {
  return EvaluateRuleOnIndex(rule_,
                             index_->Restrict(stats.members().ToVector()));
}

ClosedFormEvaluator::ClosedFormEvaluator(Kind kind, rules::Rule rule,
                                         const schema::SignatureIndex* index,
                                         const std::vector<std::string>& params)
    : kind_(kind), rule_(std::move(rule)), index_(index) {
  RDFSR_CHECK(index_ != nullptr);
  switch (kind_) {
    case Kind::kDep:
    case Kind::kSymDep:
    case Kind::kDepDisj:
      dep_id1_ = index_->FindProperty(params[0]);
      dep_id2_ = index_->FindProperty(params[1]);
      break;
    case Kind::kCovIgnoring:
      ignored_mask_ = schema::PropertySet(index_->num_properties());
      for (const std::string& name : params) {
        const int p = index_->FindProperty(name);
        if (p >= 0) ignored_mask_.Insert(static_cast<std::size_t>(p));
      }
      break;
    case Kind::kCov:
    case Kind::kSim:
      break;
  }
}

SortStats ClosedFormEvaluator::MakeStats() const {
  return SortStats(index_, dep_id1_, dep_id2_);
}

SigmaCounts ClosedFormEvaluator::CountsFromStats(const SortStats& stats) const {
  switch (kind_) {
    case Kind::kCov:
      return CovCountsFromStats(stats);
    case Kind::kCovIgnoring:
      return CovIgnoringCountsFromStats(stats, ignored_mask_);
    case Kind::kSim:
      return SimCountsFromStats(stats);
    case Kind::kDep:
      return DepCountsFromStats(stats);
    case Kind::kSymDep:
      return SymDepCountsFromStats(stats);
    case Kind::kDepDisj:
      return DepDisjCountsFromStats(stats);
  }
  return {};
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::Cov(
    const schema::SignatureIndex* index) {
  return std::unique_ptr<ClosedFormEvaluator>(
      new ClosedFormEvaluator(Kind::kCov, rules::CovRule(), index, {}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::CovIgnoring(
    const schema::SignatureIndex* index,
    const std::vector<std::string>& ignored) {
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kCovIgnoring, rules::CovRuleIgnoring(ignored), index, ignored));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::Sim(
    const schema::SignatureIndex* index) {
  return std::unique_ptr<ClosedFormEvaluator>(
      new ClosedFormEvaluator(Kind::kSim, rules::SimRule(), index, {}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::Dep(
    const schema::SignatureIndex* index, const std::string& p1,
    const std::string& p2) {
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kDep, rules::DepRule(p1, p2), index, {p1, p2}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::SymDep(
    const schema::SignatureIndex* index, const std::string& p1,
    const std::string& p2) {
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kSymDep, rules::SymDepRule(p1, p2), index, {p1, p2}));
}

std::unique_ptr<ClosedFormEvaluator> ClosedFormEvaluator::DepDisj(
    const schema::SignatureIndex* index, const std::string& p1,
    const std::string& p2) {
  return std::unique_ptr<ClosedFormEvaluator>(new ClosedFormEvaluator(
      Kind::kDepDisj, rules::DepDisjunctiveRule(p1, p2), index, {p1, p2}));
}

SigmaCounts ClosedFormEvaluator::CountsFromMergedStats(
    const SortStats& a, const SortStats& b) const {
  switch (kind_) {
    case Kind::kCov:
      return CovCountsFromMergedStats(a, b);
    case Kind::kCovIgnoring:
      return CovIgnoringCountsFromMergedStats(a, b, ignored_mask_);
    case Kind::kSim:
      return SimCountsFromMergedStats(a, b);
    case Kind::kDep:
      return DepCountsFromMergedStats(a, b);
    case Kind::kSymDep:
      return SymDepCountsFromMergedStats(a, b);
    case Kind::kDepDisj:
      return DepDisjCountsFromMergedStats(a, b);
  }
  return {};
}

namespace {

/// The constant u of the prop(var) = u conjunct of `formula` ("" if none).
std::string PropConstantOf(const rules::FormulaPtr& formula,
                           const std::string& var) {
  if (formula == nullptr) return "";
  if (formula->kind == rules::FormulaKind::kPropEqConst &&
      formula->var1 == var) {
    return formula->constant;
  }
  if (formula->kind != rules::FormulaKind::kAnd) return "";
  std::string found = PropConstantOf(formula->left, var);
  return found.empty() ? PropConstantOf(formula->right, var) : found;
}

/// Whether `name` is the display name of a `family[...]` builtin.
bool HasFamilyName(const std::string& name, const std::string& family) {
  return name.rfind(family + "[", 0) == 0 && name.back() == ']';
}

}  // namespace

std::unique_ptr<Evaluator> MakeEvaluator(const rules::Rule& rule,
                                         const schema::SignatureIndex* index) {
  const std::string& name = rule.name();
  if (name == "Cov") return ClosedFormEvaluator::Cov(index);
  if (name == "Sim") return ClosedFormEvaluator::Sim(index);
  // Parameters come from the AST, not the display name: property IRIs may
  // contain commas, which the name's comma-joined list cannot round-trip.
  if (HasFamilyName(name, "CovIgnoring")) {
    // The ignored properties are the prop(c) = p constants of the antecedent.
    std::vector<std::string> ignored;
    rules::CollectPropertyConstants(rule.antecedent(), &ignored);
    return ClosedFormEvaluator::CovIgnoring(index, ignored);
  }
  // The Dep families pin c1 and c2 with prop(c1) = p1 and prop(c2) = p2.
  const std::string p1 = PropConstantOf(rule.antecedent(), "c1");
  const std::string p2 = PropConstantOf(rule.antecedent(), "c2");
  if (!p1.empty() && !p2.empty()) {
    if (HasFamilyName(name, "Dep")) {
      return ClosedFormEvaluator::Dep(index, p1, p2);
    }
    if (HasFamilyName(name, "SymDep")) {
      return ClosedFormEvaluator::SymDep(index, p1, p2);
    }
    if (HasFamilyName(name, "DepDisj")) {
      return ClosedFormEvaluator::DepDisj(index, p1, p2);
    }
  }
  return std::make_unique<GenericEvaluator>(rule, index);
}

}  // namespace rdfsr::eval
