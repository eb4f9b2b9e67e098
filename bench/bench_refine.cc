// bench_refine — refinement-search throughput of the incremental SortStats
// engines.
//
// The paper spends its experiments (Sections 6-7) deciding Exists(k, theta)
// over signature indices; the heuristic ladder in core/greedy.cc is the part
// of that search that scales with the signature count. This harness times it
// at n = 256 / 1k / 4k signatures on two index shapes:
//
//   clustered   8 property families + 2 shared columns; most within-family
//               merges stay above theta, so agglomerative lowest-k runs
//               ~n - 8 merge rounds (the deep-merge regime)
//   random      gen::GenerateRandomIndex; almost no merge passes theta, so
//               the cost is the O(n^2) first-round scan
//
// The engines: per-part/per-slot SortStats, closed-form extraction, lazy
// best-pair heap. Merge round O(n log n + n * |P|/64); greedy trial
// O(|supp| + k log k). refine_regression_test checks them against the seed's
// scratch-evaluation heuristics on these shapes at n = 256.
//
// `--threads N` runs the agglomerative side on N worker threads (0 = one per
// hardware thread). For sizes up to --parallel-check-max the harness re-runs
// the search serially and on >= 2 threads and asserts all three refinements
// are bit-identical (exit non-zero otherwise); every record carries the
// thread count and the process peak RSS, so large runs (--signatures 100000)
// document the sparse-SortStats memory footprint.
//
// Usage: bench_refine [--json <path>] [--signatures N[,N...]] [--threads N]
//                     [--parallel-check-max N]    (default sizes 256, 1000)

#include <cmath>
#include <cstring>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/greedy.h"
#include "eval/evaluator.h"
#include "gen/random_graph.h"
#include "rules/builtins.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rdfsr::bench {
namespace {

/// Clustered index: `families` property blocks of `block` columns plus two
/// shared columns; signatures draw ~85% of their family block. Distinct
/// supports, counts uniform in [1, 50].
schema::SignatureIndex MakeClusteredIndex(int n, std::uint64_t seed) {
  constexpr int kFamilies = 8;
  constexpr int kShared = 2;
  // At the 0.85 draw density each block column contributes only ~0.6 bits
  // of support entropy, so a family's draws concentrate on ~2^(0.6*kBlock)
  // typical sets. 12 columns cover the default sizes (<= 4k signatures);
  // widen the blocks for larger n so the distinct-support draw cannot
  // stall (kept at 12 below 4k so the small shapes stay bit-identical).
  int kBlock = 12;
  while (n > 4096 &&
         0.6 * kBlock < std::log2(16.0 * static_cast<double>(n) / kFamilies)) {
    ++kBlock;
  }
  const int num_props = kShared + kFamilies * kBlock;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  std::vector<schema::Signature> sigs;
  int stall = 0;
  while (static_cast<int>(sigs.size()) < n) {
    const int family = static_cast<int>(sigs.size()) % kFamilies;
    std::vector<int> support;
    for (int p = 0; p < kShared; ++p) support.push_back(p);
    const int base = kShared + family * kBlock;
    for (int p = 0; p < kBlock; ++p) {
      if (rng.Chance(0.85)) support.push_back(base + p);
    }
    if (!seen.insert(support).second) {
      RDFSR_CHECK_LT(++stall, 1000000) << "cannot draw distinct supports";
      continue;
    }
    sigs.emplace_back(std::move(support), rng.Range(1, 50));
  }
  std::vector<std::string> names;
  for (int p = 0; p < num_props; ++p) {
    names.push_back("http://bench/p" + std::to_string(p));
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(sigs));
}

schema::SignatureIndex MakeRandomIndex(int n, std::uint64_t seed) {
  gen::RandomIndexSpec spec;
  spec.num_signatures = n;
  spec.num_properties = 64;
  spec.density = 0.3;
  spec.seed = seed;
  return gen::GenerateRandomIndex(spec);
}

bool SameRefinement(const core::SortRefinement& a,
                    const core::SortRefinement& b) {
  return a.sorts == b.sorts;
}

struct Measurement {
  double seconds = 0;
  std::size_t sorts = 0;
  int threads = 1;             // worker threads of the timed run
  std::size_t peak_rss = 0;    // process high-water RSS after the run
  bool parallel_checked = false;
  bool parallel_match = true;  // serial == parallel refinement
};

void Report(TextTable* table, bool* ok, const std::string& config,
            const std::string& algo, const std::string& rule, int n,
            const Measurement& m) {
  std::ostringstream seconds;
  seconds << std::fixed << std::setprecision(3) << m.seconds;
  table->AddRow({config, algo, rule, std::to_string(n), seconds.str(),
                 std::to_string(m.sorts), std::to_string(m.threads),
                 m.parallel_checked ? (m.parallel_match ? "yes" : "MISMATCH")
                                    : "-"});
  if (!m.parallel_match) {
    std::cerr << "FAIL: parallel and serial agglomerative refinements differ "
              << "for " << config << "/" << algo << "/" << rule << " at n = "
              << n << "\n";
    *ok = false;
  }
  std::vector<std::pair<std::string, double>> metrics = {
      {"signatures", static_cast<double>(n)},
      {"sorts", static_cast<double>(m.sorts)},
      {"threads", static_cast<double>(m.threads)},
      {"peak_rss_bytes", static_cast<double>(m.peak_rss)},
  };
  if (m.parallel_checked) {
    // Emitted only when the serial-vs-parallel comparison ran, so a CI
    // assertion on it never passes vacuously.
    metrics.emplace_back("parallel_match", m.parallel_match ? 1.0 : 0.0);
  }
  Json().Record(
      "refine/" + config + "/" + algo + "/" + rule,
      {{"config", config}, {"algo", algo}, {"rule", rule},
       {"signatures", std::to_string(n)}},
      m.seconds, metrics);
}

int Run(const std::vector<int>& sizes, int threads, int parallel_check_max) {
  Banner("Refinement heuristics: incremental SortStats engines",
         "Sections 6-7 Exists(k, theta) search; Figure 8 runtime shape");

  TextTable table({"config", "algo", "rule", "n", "seconds", "sorts",
                   "threads", "serial == parallel"});
  bool ok = true;
  const Rational theta(3, 4);
  const Rational theta_random(9, 10);
  core::GreedyOptions greedy_options;
  greedy_options.restarts = 2;
  greedy_options.max_passes = 3;
  constexpr int kGreedySlots = 8;

  for (int n : sizes) {
    // Clustered shape: deep-merge agglomerative regime, cov and sim.
    const schema::SignatureIndex clustered = MakeClusteredIndex(n, 42);
    for (const auto& rule : {rules::CovRule(), rules::SimRule()}) {
      auto evaluator = eval::MakeEvaluator(rule, &clustered);
      Measurement m;
      WallTimer timer;
      const core::SortRefinement incr =
          core::AgglomerativeLowestK(*evaluator, theta, threads);
      m.seconds = timer.Seconds();
      m.sorts = incr.num_sorts();
      m.threads = threads;
      m.peak_rss = PeakRssBytes();
      if (n <= parallel_check_max) {
        const core::SortRefinement serial =
            core::AgglomerativeLowestK(*evaluator, theta, 1);
        const core::SortRefinement parallel =
            threads > 1 ? incr
                        : core::AgglomerativeLowestK(*evaluator, theta, 2);
        m.parallel_checked = true;
        m.parallel_match =
            SameRefinement(serial, parallel) && SameRefinement(serial, incr);
      }
      Report(&table, &ok, "clustered", "agglo", rule.name(), n, m);
    }

    // Random shape: the first-round O(n^2) scan dominates.
    const schema::SignatureIndex random_index = MakeRandomIndex(n, 7);
    {
      auto evaluator = eval::MakeEvaluator(rules::CovRule(), &random_index);
      Measurement m;
      WallTimer timer;
      const core::SortRefinement incr =
          core::AgglomerativeLowestK(*evaluator, theta_random, threads);
      m.seconds = timer.Seconds();
      m.sorts = incr.num_sorts();
      m.threads = threads;
      m.peak_rss = PeakRssBytes();
      if (n <= parallel_check_max) {
        const core::SortRefinement serial =
            core::AgglomerativeLowestK(*evaluator, theta_random, 1);
        const core::SortRefinement parallel =
            threads > 1
                ? incr
                : core::AgglomerativeLowestK(*evaluator, theta_random, 2);
        m.parallel_checked = true;
        m.parallel_match =
            SameRefinement(serial, parallel) && SameRefinement(serial, incr);
      }
      Report(&table, &ok, "random", "agglo", "Cov", n, m);
    }

    // Greedy + local search on the clustered shape.
    {
      auto evaluator = eval::MakeEvaluator(rules::CovRule(), &clustered);
      Measurement m;
      WallTimer timer;
      const core::SortRefinement incr =
          core::GreedyMaxMinSigma(*evaluator, kGreedySlots, greedy_options);
      m.seconds = timer.Seconds();
      m.sorts = incr.num_sorts();
      m.peak_rss = PeakRssBytes();
      Report(&table, &ok, "clustered", "greedy", "Cov", n, m);
    }
  }

  std::cout << table.ToString();
  std::cout << "\nserial == parallel: the refinement is bit-identical at 1, "
               "2 and --threads\n  worker threads ('-' above "
               "--parallel-check-max and for greedy, which is serial).\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rdfsr::bench

int main(int argc, char** argv) {
  std::vector<int> sizes;
  int threads = 1;
  int parallel_check_max = 4000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      rdfsr::bench::Json().Open(argv[++i], "bench_refine");
    } else if (std::strcmp(argv[i], "--signatures") == 0 && i + 1 < argc) {
      std::stringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) sizes.push_back(std::stoi(item));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--parallel-check-max") == 0 &&
               i + 1 < argc) {
      parallel_check_max = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--signatures N[,N...]]"
                   " [--threads N] [--parallel-check-max N]\n";
      return 2;
    }
  }
  if (sizes.empty()) sizes = {256, 1000};
  return rdfsr::bench::Run(sizes, threads, parallel_check_max);
}
