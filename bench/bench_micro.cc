// Micro benchmarks (google-benchmark): evaluator throughput (closed form vs
// generic enumerator), count() kernels, ILP encoding, and LP solves.

#include <benchmark/benchmark.h>

#include "core/ilp_builder.h"
#include "eval/counting.h"
#include "eval/enumerator.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "gen/random_graph.h"
#include "ilp/simplex.h"
#include "rules/builtins.h"

namespace rdfsr {
namespace {

const schema::SignatureIndex& PersonsIndex() {
  static const schema::SignatureIndex* index =
      new schema::SignatureIndex(gen::GeneratePersons());
  return *index;
}

void BM_CovClosedForm(benchmark::State& state) {
  const auto cov = eval::ClosedFormEvaluator::Cov(&PersonsIndex());
  for (auto _ : state) {
    benchmark::DoNotOptimize(cov->CountsAll());
  }
}
BENCHMARK(BM_CovClosedForm);

void BM_SimClosedForm(benchmark::State& state) {
  const auto sim = eval::ClosedFormEvaluator::Sim(&PersonsIndex());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim->CountsAll());
  }
}
BENCHMARK(BM_SimClosedForm);

void BM_CovGenericEnumerator(benchmark::State& state) {
  const auto& index = PersonsIndex();
  const rules::Rule rule = rules::CovRule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateRuleOnIndex(rule, index));
  }
}
BENCHMARK(BM_CovGenericEnumerator);

void BM_SimGenericEnumerator(benchmark::State& state) {
  const auto& index = PersonsIndex();
  const rules::Rule rule = rules::SimRule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EvaluateRuleOnIndex(rule, index));
  }
}
BENCHMARK(BM_SimGenericEnumerator);

void BM_CountCompatible(benchmark::State& state) {
  const auto& index = PersonsIndex();
  const rules::Rule rule = rules::SimRule();
  eval::RoughAssignment tau;
  tau.cells = {{0, 3}, {1, 3}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::CountRuleCases(
        rule.antecedent(), rule.consequent(), rule.variables(), tau, index));
  }
}
BENCHMARK(BM_CountCompatible);

void BM_EnumerateTaus(benchmark::State& state) {
  const auto& index = PersonsIndex();
  const rules::Rule rule = rules::CovRule();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::EnumerateTauCounts(rule, index));
  }
}
BENCHMARK(BM_EnumerateTaus);

void BM_BuildIlp(benchmark::State& state) {
  const auto& index = PersonsIndex();
  const rules::Rule rule = rules::CovRule();
  const auto taus = eval::EnumerateTauCounts(rule, index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildRefinementIlp(
        index, taus, static_cast<int>(state.range(0)), Rational(9, 10)));
  }
}
BENCHMARK(BM_BuildIlp)->Arg(2)->Arg(4);

void BM_SimplexAssignment(benchmark::State& state) {
  // n x n assignment polytope: a feasible point of the doubly stochastic
  // rows.
  const int n = static_cast<int>(state.range(0));
  ilp::Model m;
  std::vector<std::vector<int>> var(n, std::vector<int>(n));
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) var[i][j] = m.AddVariable("x", 0, 1, false);
  }
  for (int i = 0; i < n; ++i) {
    std::vector<ilp::LinTerm> row, col;
    for (int j = 0; j < n; ++j) {
      row.push_back({var[i][j], 1.0});
      col.push_back({var[j][i], 1.0});
    }
    m.AddConstraint("r", std::move(row), 1, 1);
    m.AddConstraint("c", std::move(col), 1, 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ilp::SolveLp(m));
  }
}
BENCHMARK(BM_SimplexAssignment)->Arg(8)->Arg(16)->Arg(32);

void BM_RestrictIndex(benchmark::State& state) {
  const auto& index = PersonsIndex();
  std::vector<int> half;
  for (std::size_t i = 0; i < index.num_signatures(); i += 2) {
    half.push_back(static_cast<int>(i));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Restrict(half));
  }
}
BENCHMARK(BM_RestrictIndex);

}  // namespace
}  // namespace rdfsr
