#include "api/rdfsr.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/report.h"
#include "eval/evaluator.h"
#include "util/deadline.h"
#include "rules/printer.h"
#include "schema/ascii_view.h"

namespace rdfsr::api {

Analysis::Analysis(std::shared_ptr<const Dataset::Rep> rep, rules::Rule rule)
    : rep_(std::move(rep)),
      evaluator_(eval::MakeEvaluator(rule, &rep_->index)) {}

core::RefinementSolver& Analysis::Solver() {
  if (solver_ == nullptr) {
    solver_ =
        std::make_unique<core::RefinementSolver>(evaluator_.get(), options_);
  }
  return *solver_;
}

Analysis& Analysis::With(core::SolverOptions options) {
  options_ = std::move(options);
  solver_.reset();
  return *this;
}

Analysis& Analysis::TimeLimit(double seconds) {
  options_.mip.time_limit_seconds = seconds;
  solver_.reset();
  return *this;
}

Analysis& Analysis::Timeout(double seconds) {
  // Deliberately no solver_.reset(): the deadline is re-armed per query via
  // RefinementSolver::set_deadline, so the incremental caches survive.
  timeout_seconds_ = seconds;
  return *this;
}

Analysis& Analysis::MaxNodes(long long nodes) {
  options_.mip.max_nodes = nodes;
  solver_.reset();
  return *this;
}

Analysis& Analysis::HeuristicThreads(int threads) {
  options_.heuristic_threads = threads;
  solver_.reset();
  return *this;
}

Analysis& Analysis::ThetaStep(double step) {
  // Clamp into the grid's representable range before it reaches the solver:
  // a step below 1/1000 would collapse to the zero rational (and once divided
  // the grid derivation), junk falls back to the paper's 0.01. MakeThetaGrid
  // re-validates, but clamping here keeps options() honest about what runs.
  if (!std::isfinite(step) || step <= 0) {
    step = 0.01;
  }
  options_.theta_step = std::clamp(step, 0.001, 1.0);
  solver_.reset();
  return *this;
}

Analysis& Analysis::GreedyRestarts(int restarts) {
  options_.greedy.restarts = restarts;
  solver_.reset();
  return *this;
}

Analysis& Analysis::Seed(std::uint64_t seed) {
  options_.greedy.seed = seed;
  solver_.reset();
  return *this;
}

double Analysis::Sigma() const { return evaluator_->SigmaAll(); }

double Analysis::Sigma(const std::vector<int>& sort) const {
  return evaluator_->Sigma(sort);
}

core::RefinementSolver& Analysis::ArmedSolver() {
  core::RefinementSolver& solver = Solver();
  // Re-arm the whole-query budget every call: a Deadline is an absolute time
  // point, so reusing the previous query's would charge it for elapsed time.
  solver.set_deadline(timeout_seconds_ > 0
                          ? util::Deadline::After(timeout_seconds_)
                          : util::Deadline());
  return solver;
}

Result<Refinement> Analysis::HighestTheta(int k) {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " + std::to_string(k));
  }
  const core::HighestThetaResult result = ArmedSolver().FindHighestTheta(k);
  Refinement refinement;
  refinement.sorts = result.refinement.sorts;
  refinement.theta = result.theta;
  refinement.optimal = result.ceiling_proven;
  refinement.timed_out = result.timed_out;
  refinement.instances = result.instances;
  refinement.seconds = result.seconds;
  return refinement;
}

Result<Refinement> Analysis::LowestK(double theta, int max_k) {
  // Written so NaN fails too: every comparison with it is false.
  if (!(theta >= 0.0 && theta <= 1.0)) {
    return Status::InvalidArgument("theta must be in [0, 1], got " +
                                   std::to_string(theta));
  }
  return LowestK(Rational::FromDouble(theta), max_k);
}

Result<Refinement> Analysis::LowestK(Rational theta, int max_k) {
  if (theta < Rational(0) || theta > Rational(1)) {
    return Status::InvalidArgument("theta must be in [0, 1], got " +
                                   theta.ToString());
  }
  auto result = ArmedSolver().FindLowestK(theta, max_k);
  if (!result.ok()) return result.status();
  Refinement refinement;
  refinement.sorts = result->refinement.sorts;
  refinement.theta = theta;
  refinement.optimal = result->proven_minimal;
  refinement.timed_out = result->timed_out;
  refinement.instances = result->instances;
  refinement.seconds = result->seconds;
  return refinement;
}

std::string Analysis::Summary(const Refinement& refinement) const {
  const core::SortRefinement sorts{refinement.sorts};
  std::string out = sorts.Summary(rep_->index);
  out += ", sigma >= " + refinement.theta.ToString();
  if (refinement.optimal) out += " (optimal)";
  return out;
}

std::string Analysis::Render(const Refinement& refinement,
                             std::size_t max_rows) const {
  schema::AsciiViewOptions options;
  options.max_rows = max_rows;
  return schema::RenderRefinementView(rep_->index, refinement.sorts, options);
}

std::string Analysis::Report(const Refinement& refinement) const {
  return core::RenderReport(rep_->index,
                            core::SortRefinement{refinement.sorts});
}

const rules::Rule& Analysis::rule() const { return evaluator_->rule(); }

std::string Analysis::RuleText() const { return rules::ToString(rule()); }

}  // namespace rdfsr::api
