// bench_solver — the two solver measurements the end-to-end benchmark
// (bench/e2e) does not cover; it already times the searches from file to
// answer.
//
// Configs:
//   encode_only     no solving at all: one RefinementIlpInstance reweighted
//                   across the whole theta grid FindHighestTheta would walk vs
//                   BuildRefinementIlp per grid point, on a clustered index —
//                   the O(k|P|n) skeleton-rebuild saving that justifies
//                   Reweight. Spot-checks that the reweighted model equals a
//                   fresh build (metric `match`) and exits non-zero if not.
//   exact_frontier  one stock-options Exists(k = 2, theta = 3/4) on a large
//                   random index — tracks the max_mip_rows default against
//                   the measured solvable frontier (metric `decided`).
//
// Usage: bench_solver [--json <path>] [--signatures N]
//                     [--frontier-signatures N]   (0 skips the frontier)

#include <cstring>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rdfsr::bench {
namespace {

std::string FormatSeconds(double seconds) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(3) << seconds;
  return out.str();
}

/// Clustered index: `families` property blocks of `block` columns plus one
/// shared column; the first signature of each family takes its whole block
/// (so every property is used), later ones draw ~80% of it. Family merges
/// stay above moderate thresholds, so the theta grid has real depth to climb.
schema::SignatureIndex MakeClusteredIndex(int n, std::uint64_t seed) {
  constexpr int families = 8;
  constexpr int block = 8;
  RDFSR_CHECK_GE(n, families);
  const int num_props = 1 + families * block;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  int stall = 0;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % families;
    const bool full = static_cast<int>(sigs.size()) < families;
    std::vector<int> support{0};
    const int base = 1 + family * block;
    for (int p = 0; p < block; ++p) {
      if (full || rng.Chance(0.8)) support.push_back(base + p);
    }
    if (!seen.insert(support).second) {
      RDFSR_CHECK_LT(++stall, 1000000) << "cannot draw distinct supports";
      continue;
    }
    sigs.emplace_back(std::move(support), rng.Range(1, 20));
  }
  std::vector<std::string> names;
  for (int p = 0; p < num_props; ++p) {
    names.push_back("http://bench/p" + std::to_string(p));
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

/// Simplex/B&B engine counters of one exact solve, as JSON metrics.
std::vector<std::pair<std::string, double>> EngineMetrics(
    long long mip_nodes, const ilp::LpEngineStats& s) {
  return {{"mip_nodes", static_cast<double>(mip_nodes)},
          {"lp_pivots", static_cast<double>(s.pivots)},
          {"lp_refactorizations", static_cast<double>(s.refactorizations)},
          {"lp_basis_reuses", static_cast<double>(s.basis_reuses)},
          {"lp_basis_repairs", static_cast<double>(s.basis_repairs)},
          {"lp_max_eta_length", static_cast<double>(s.max_eta_length)}};
}

/// Exact-frontier probe: one Exists(k = 2, theta = 3/4) on a large random
/// index with STOCK solver options — the config that keeps the
/// SolverOptions::max_mip_rows default honest. The encoding must pass the
/// default gate and the decision must land inside the default MIP budget;
/// the record tracks rows, wall time, and engine counters.
void ReportFrontier(TextTable* table, int frontier_n) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = frontier_n;
  spec.num_properties = 10;
  spec.seed = 42;
  const schema::SignatureIndex index = gen::GenerateRandomIndex(spec);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  const auto taus = eval::EnumerateTauCounts(evaluator->rule(), index);
  const auto shapes = core::AnalyzeTaus(taus, index);
  const std::size_t rows = core::RefinementIlpActiveRows(index, shapes, 2);

  core::SolverOptions options;  // stock defaults on purpose
  options.greedy_first = false;
  core::RefinementSolver solver(evaluator.get(), options);
  WallTimer timer;
  const core::DecisionResult r = solver.Exists(2, Rational(3, 4));
  const double seconds = timer.Seconds();
  const bool decided = r.decision != core::Decision::kUnknown;

  table->AddRow({"exact_frontier", "Cov", std::to_string(frontier_n), "1",
                 FormatSeconds(seconds), "-",
                 std::string(core::DecisionName(r.decision)) + " @" +
                     std::to_string(rows) + " rows",
                 decided ? "yes" : "undecided"});
  std::vector<std::pair<std::string, double>> metrics =
      EngineMetrics(r.mip_nodes, r.lp_stats);
  metrics.emplace_back("signatures", static_cast<double>(frontier_n));
  metrics.emplace_back("active_rows", static_cast<double>(rows));
  metrics.emplace_back("decided", decided ? 1.0 : 0.0);
  Json().Record("solver/exact_frontier/Cov",
                {{"config", "exact_frontier"},
                 {"rule", "Cov"},
                 {"signatures", std::to_string(frontier_n)}},
                seconds, metrics, /*timed_out=*/!decided);
}

/// Reweight across the theta grid vs a fresh BuildRefinementIlp per grid
/// point. Returns false when a reweighted model differs from a fresh build.
bool ReportEncodeOnly(TextTable* table, int n, int k) {
  const schema::SignatureIndex index = MakeClusteredIndex(n, 42);
  auto evaluator = eval::MakeEvaluator(rules::CovRule(), &index);
  const auto taus = eval::EnumerateTauCounts(evaluator->rule(), index);
  const auto shapes = core::AnalyzeTaus(taus, index);
  // The same grid FindHighestTheta would walk, from the dataset's sigma up.
  const eval::SigmaCounts all = evaluator->CountsAll();
  Rational sigma_all(1);
  if (all.total > 0) {
    sigma_all = Rational(static_cast<std::int64_t>(all.favorable),
                         static_cast<std::int64_t>(all.total));
  }
  const core::ThetaGrid grid = core::MakeThetaGrid(sigma_all, 0.01);
  const int instances = static_cast<int>(grid.last - grid.first + 1);

  WallTimer reweight_timer;
  core::RefinementIlpInstance instance(index, shapes, k);
  for (std::int64_t g = grid.first; g <= grid.last; ++g) {
    instance.Reweight(grid.Theta(g));
  }
  const double reweight_seconds = reweight_timer.Seconds();

  std::size_t rows = 0;
  WallTimer rebuild_timer;
  for (std::int64_t g = grid.first; g <= grid.last; ++g) {
    const core::IlpEncoding enc =
        core::BuildRefinementIlp(index, taus, k, grid.Theta(g));
    rows = enc.model.num_constraints();
  }
  const double rebuild_seconds = rebuild_timer.Seconds();

  // Identity spot-check at the grid's ends and middle (a full per-point
  // comparison would itself cost a rebuild per point).
  bool match = true;
  for (std::int64_t g : {grid.first, (grid.first + grid.last) / 2, grid.last}) {
    instance.Reweight(grid.Theta(g));
    const core::IlpEncoding fresh =
        core::BuildRefinementIlp(index, taus, k, grid.Theta(g));
    if (instance.model().ToString() != fresh.model.ToString()) match = false;
  }

  table->AddRow({"encode_only", "Cov", std::to_string(n),
                 std::to_string(instances), FormatSeconds(reweight_seconds),
                 FormatSeconds(rebuild_seconds),
                 std::to_string(rows) + " rows", match ? "yes" : "MISMATCH"});
  if (!match) {
    std::cerr << "FAIL: a reweighted encoding differs from a fresh build at n = "
              << n << "\n";
  }
  Json().Record("solver/encode_only/Cov",
                {{"config", "encode_only"},
                 {"rule", "Cov"},
                 {"signatures", std::to_string(n)}},
                reweight_seconds,
                {{"signatures", static_cast<double>(n)},
                 {"instances", static_cast<double>(instances)},
                 {"rows", static_cast<double>(rows)},
                 {"rebuild_seconds", rebuild_seconds},
                 {"match", match ? 1.0 : 0.0}});
  return match;
}

int Run(int n, int frontier_n) {
  Banner("Solver encoding reuse and exact frontier",
         "Sections 6-7; Figures 4-7 search modes");

  TextTable table({"config", "rule", "n", "instances", "seconds", "rebuild_s",
                   "result", "ok"});
  const bool ok = ReportEncodeOnly(&table, n, /*k=*/4);
  if (frontier_n > 0) ReportFrontier(&table, frontier_n);

  std::cout << table.ToString();
  std::cout << "\nencode_only: seconds = one encoding reweighted per theta, "
               "rebuild_s = a fresh\n  encoding per theta; ok = the two "
               "models are identical. exact_frontier:\n  ok = decided inside "
               "the default MIP budget.\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rdfsr::bench

int main(int argc, char** argv) {
  int n = 128;
  int frontier_n = 512;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      rdfsr::bench::Json().Open(argv[++i], "bench_solver");
    } else if (std::strcmp(argv[i], "--signatures") == 0 && i + 1 < argc) {
      n = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--frontier-signatures") == 0 &&
               i + 1 < argc) {
      frontier_n = std::stoi(argv[++i]);  // 0 skips the frontier probe
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--signatures N]"
                   " [--frontier-signatures N]\n";
      return 2;
    }
  }
  return rdfsr::bench::Run(n, frontier_n);
}
