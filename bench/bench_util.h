// Shared helpers for the experiment harness binaries.
//
// Each bench binary regenerates one table or figure from Section 7 of the
// paper on the calibrated synthetic datasets, printing the paper's reported
// numbers next to ours.
//
// Every harness binary also accepts `--json <path>`: measurements are then
// appended as machine-readable records (a JSON array of
// {"bench", "name", "params", "seconds", "metrics"} objects) for the perf
// trajectory. Call InitHarness() first thing in main() and Json().Record()
// after each timed section.

#ifndef RDFSR_BENCH_BENCH_UTIL_H_
#define RDFSR_BENCH_BENCH_UTIL_H_

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/refinement.h"
#include "core/solver.h"
#include "eval/evaluator.h"
#include "util/table.h"

namespace rdfsr::bench {

/// Collects measurement records and mirrors them to a JSON file. The file is
/// rewritten after every Record() so that even an aborted run leaves a valid
/// JSON array behind.
class JsonRecorder {
 public:
  /// Starts recording to `path`; `bench` tags every record with the binary's
  /// short name.
  void Open(std::string path, std::string bench) {
    path_ = std::move(path);
    bench_ = std::move(bench);
    Rewrite();
  }

  bool enabled() const { return !path_.empty(); }

  /// Appends one record. `params` describe the configuration measured (string
  /// values), `seconds` the wall time of the section, `metrics` its numeric
  /// results. Pass `timed_out = true` for a deadline-cut section: the record
  /// then carries `"timed_out": true` next to whatever partial metrics the
  /// run produced, so trajectory tooling can separate cut runs from complete
  /// ones instead of averaging them together (complete runs omit the key).
  void Record(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& params,
      double seconds,
      const std::vector<std::pair<std::string, double>>& metrics = {},
      bool timed_out = false) {
    if (!enabled()) return;
    std::ostringstream row;
    row << "{\"bench\": " << Quote(bench_) << ", \"name\": " << Quote(name)
        << ", \"params\": {";
    for (std::size_t i = 0; i < params.size(); ++i) {
      if (i > 0) row << ", ";
      row << Quote(params[i].first) << ": " << Quote(params[i].second);
    }
    row << "}, \"seconds\": " << Number(seconds);
    if (timed_out) row << ", \"timed_out\": true";
    row << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) row << ", ";
      row << Quote(metrics[i].first) << ": " << Number(metrics[i].second);
    }
    row << "}}";
    rows_.push_back(row.str());
    Rewrite();
  }

 private:
  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      switch (c) {
        case '"':  out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n";  break;
        case '\t': out += "\\t";  break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out + "\"";
  }

  /// JSON has no NaN/Inf literals: non-finite values serialize as null (the
  /// former magnitude check also nulled finite values above 1e308 and would
  /// have let a plain `<<` print "inf"/"nan", invalidating the artifact).
  /// Finite values keep full round-trip precision — these records exist to
  /// be parsed back.
  static std::string Number(double value) {
    if (!std::isfinite(value)) return "null";
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
    return out.str();
  }

  void Rewrite() const {
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
      std::cerr << "warning: cannot write JSON records to " << path_ << "\n";
      return;
    }
    out << "[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i > 0 ? ",\n " : "\n ") << rows_[i];
    }
    out << (rows_.empty() ? "]" : "\n]") << "\n";
  }

  std::string path_;
  std::string bench_;
  std::vector<std::string> rows_;
};

/// The process-wide recorder (inert until InitHarness sees --json).
inline JsonRecorder& Json() {
  static JsonRecorder recorder;
  return recorder;
}

/// Peak resident set size of this process in bytes (getrusage; Linux
/// reports ru_maxrss in KiB, macOS in bytes). 0 when the platform offers no
/// reading. A high-water mark: it never decreases, so benches that compare
/// configurations should record it immediately after the section of
/// interest — later sections can only push it up.
inline std::size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

/// Parses the shared harness flags out of argv — currently `--json <path>` —
/// and prints usage on anything unrecognized. Call first thing in main().
inline void InitHarness(int argc, char** argv, const std::string& bench_name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      Json().Open(argv[++i], bench_name);
    } else {
      std::cerr << "usage: " << argv[0] << " [--json <path>]\n";
      std::exit(2);
    }
  }
}

/// Compact one-line rendering of a refinement's sort contents
/// ("0,2|1,3" — sorts separated by '|'), for identity comparisons and
/// failure messages in the harness binaries.
inline std::string RenderSorts(const core::SortRefinement& refinement) {
  std::ostringstream out;
  for (std::size_t i = 0; i < refinement.sorts.size(); ++i) {
    if (i) out << "|";
    for (std::size_t j = 0; j < refinement.sorts[i].size(); ++j) {
      if (j) out << ",";
      out << refinement.sorts[i][j];
    }
  }
  return out.str();
}

/// Prints the standard experiment banner.
inline void Banner(const std::string& experiment, const std::string& paper) {
  std::cout << "==================================================\n"
            << experiment << "\n"
            << "paper reference: " << paper << "\n"
            << "==================================================\n";
}

/// Prints per-sort statistics of a refinement in the style of Figures 4-7
/// captions: subjects, signatures, and sigma values under Cov and Sim.
inline void PrintRefinementStats(const schema::SignatureIndex& index,
                                 const core::SortRefinement& refinement) {
  const auto cov = eval::ClosedFormEvaluator::Cov(&index);
  const auto sim = eval::ClosedFormEvaluator::Sim(&index);
  TextTable table({"sort", "subjects", "signatures", "sigma_Cov", "sigma_Sim"});
  for (std::size_t i = 0; i < refinement.num_sorts(); ++i) {
    table.AddRow({std::to_string(i + 1),
                  FormatCount(refinement.SubjectsIn(index, static_cast<int>(i))),
                  std::to_string(refinement.sorts[i].size()),
                  FormatDouble(cov->Sigma(refinement.sorts[i])),
                  FormatDouble(sim->Sigma(refinement.sorts[i]))});
  }
  std::cout << table.ToString();
}

/// Bench-scale solver options: modest limits so every binary finishes in
/// seconds-to-minutes on a laptop; instances that exceed them surface as
/// kUnknown exactly like the paper's timed-out CPLEX runs.
inline core::SolverOptions BenchSolverOptions() {
  core::SolverOptions options;
  options.mip.time_limit_seconds = 15.0;
  options.mip.max_nodes = 400000;
  options.greedy.restarts = 4;
  options.greedy.max_passes = 20;
  return options;
}

}  // namespace rdfsr::bench

#endif  // RDFSR_BENCH_BENCH_UTIL_H_
