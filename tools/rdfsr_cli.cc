// rdfsr — command-line driver for the rdfsr façade API.
//
// The three subcommands mirror the paper's workflow (Arenas et al., PVLDB
// 2014): `measure` evaluates sigma_r over a dataset (Sections 2-3), `refine`
// searches for a sort refinement (Sections 4-7: highest-theta for fixed k, or
// lowest-k for fixed theta), and `report` interprets a refinement as per-sort
// schema profiles (Section 7.1.1). Everything goes through api/rdfsr.h — this
// file is the reference consumer of the public API.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "api/rdfsr.h"
#include "util/thread_pool.h"

namespace {

using rdfsr::api::Analysis;
using rdfsr::api::Dataset;
using rdfsr::api::DatasetOptions;
using rdfsr::api::Refinement;
using rdfsr::util::ThreadPool;

// The help text; the --threads bound is the library's lane bound.
const std::string& Usage() {
  static const std::string usage = [] {
    std::string text = R"(rdfsr — structuredness measurement and sort refinement for RDF datasets

usage: rdfsr <command> <file.nt> [options]

commands:
  measure   print sigma of the dataset under one or more rules
  refine    search for a sort refinement of the dataset
  report    refine, then print the per-sort schema report

common options:
  --sort <iri>      analyze only the subjects declared of this rdf:type
  --threads <n>     worker threads, at most )";
    text += std::to_string(ThreadPool::kMaxThreads);
    text += R"( (0 = one per hardware
                    thread). Parsing and the index build use at most one
                    per ~1 MiB input chunk; refine and report also run the
                    agglomerative heuristic on n threads. The result is
                    identical for any value
  --rule <spec>     cov (default) | sim | cov-ignoring:p1,... | dep:p1,p2 |
                    symdep:p1,p2 | depdisj:p1,p2 | free text in the rule
                    language; measure accepts --rule multiple times
  --max-errors <n>  tolerate up to n malformed N-Triples lines (skipped and
                    reported on stderr); default 0 = fail on the first
  --timeout <s>     wall-clock budget in seconds for the whole run (load +
                    search); a cut search still prints its best refinement
                    but the process exits 4
  --view            print the ASCII signature view of the dataset

refine / report options:
  --k <n>           implicit sorts for the highest-theta search (default 2)
  --theta <x>       threshold in [0,1] for the lowest-k search (overrides --k)
  --max-k <n>       cap for the lowest-k search
  --time-limit <s>  exact-solver budget per decision instance, seconds
  --report          (refine only) also print the schema report

exit codes:
  0  success
  2  usage error
  3  data error (unreadable/malformed input, unknown sort or rule)
  4  deadline or resource limit (--timeout, solver limits)
  5  internal error

examples:
  rdfsr measure data.nt --sort http://x/Person --rule cov --rule sim
  rdfsr refine data.nt --sort http://x/Person --k 2 --report
  rdfsr refine data.nt --rule 'c = c -> val(c) = 1' --theta 0.9
  rdfsr report data.nt --sort http://x/Person --k 3
)";
    return text;
  }();
  return usage;
}

// Exit-code taxonomy (documented in Usage()): scripts can tell bad input (3)
// from an expired budget (4) from a genuine bug (5) without parsing stderr.
constexpr int kExitUsage = 2;
constexpr int kExitDataError = 3;
constexpr int kExitLimit = 4;
constexpr int kExitInternal = 5;

int UsageError(const std::string& message) {
  std::cerr << "error: " << message << "\n\n" << Usage();
  return kExitUsage;
}

int ExitCodeFor(const rdfsr::Status& status) {
  switch (status.code()) {
    case rdfsr::StatusCode::kOk:
      return 0;
    case rdfsr::StatusCode::kInvalidArgument:
    case rdfsr::StatusCode::kParseError:
    case rdfsr::StatusCode::kNotFound:
    case rdfsr::StatusCode::kOutOfRange:
      return kExitDataError;
    case rdfsr::StatusCode::kResourceExhausted:
    case rdfsr::StatusCode::kDeadlineExceeded:
    case rdfsr::StatusCode::kCancelled:
      return kExitLimit;
    case rdfsr::StatusCode::kInternal:
      return kExitInternal;
  }
  return kExitInternal;
}

int Fail(const rdfsr::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return ExitCodeFor(status);
}

std::string FormatSigma(double value) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4) << value;
  return out.str();
}

// Strict numeric parsing: the whole string must convert, so typos fail loudly
// instead of silently becoming 0 (atoi/strtod leftovers), and to a finite
// value: strtod accepts "nan" and "inf" and turns overflowing input such as
// 1e400 into inf, and NaN slips past every range check.
bool ParseDouble(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

// A positive budget in seconds as whole milliseconds plus one, so that a
// sub-millisecond budget stays positive (0 means no deadline). Saturates at
// the int64 range, where a plain cast of the product is undefined behaviour.
std::int64_t DeadlineMillis(double seconds) {
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const double ms = seconds * 1000.0 + 1.0;
  if (ms >= static_cast<double>(kMax)) return kMax;
  return static_cast<std::int64_t>(ms);
}

bool ParseInt(const char* text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < INT_MIN || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

/// Parsed command line, shared by all subcommands.
struct Args {
  std::string command;
  std::string path;
  std::string sort;
  std::vector<std::string> rules;
  bool view = false;
  bool report = false;
  int k = 2;
  int threads = 1;      // 0 = auto (one per hardware thread)
  double theta = -1.0;  // < 0: highest-theta mode
  int max_k = -1;
  double time_limit = -1.0;
  double timeout = -1.0;  // whole-run wall-clock budget, seconds
  int max_errors = 0;     // tolerated malformed input lines
  /// Refine/report-only flags seen, for rejection under `measure`.
  std::vector<std::string> refine_flags;
};

/// Parses argv into Args; returns false (after printing) on bad input.
bool ParseArgs(int argc, char** argv, Args* args, int* exit_code) {
  auto need_value = [&](int i, const char* flag) {
    if (i + 1 < argc) return true;
    *exit_code = UsageError(std::string(flag) + " needs a value");
    return false;
  };
  auto bad_number = [&](const char* flag, const char* text) {
    *exit_code = UsageError(std::string(flag) + " needs a number, got '" +
                            text + "'");
    return false;
  };
  args->command = argv[1];
  if (argc < 3) {
    *exit_code = UsageError("missing <file.nt> argument");
    return false;
  }
  args->path = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--sort") {
      if (!need_value(i, "--sort")) return false;
      args->sort = argv[++i];
    } else if (flag == "--rule") {
      if (!need_value(i, "--rule")) return false;
      args->rules.push_back(argv[++i]);
    } else if (flag == "--threads") {
      if (!need_value(i, "--threads")) return false;
      if (!ParseInt(argv[++i], &args->threads)) {
        return bad_number("--threads", argv[i]);
      }
      if (args->threads > ThreadPool::kMaxThreads) {
        *exit_code = UsageError("--threads must be at most " +
                                std::to_string(ThreadPool::kMaxThreads) +
                                ", got '" + argv[i] + "'");
        return false;
      }
    } else if (flag == "--max-errors") {
      if (!need_value(i, "--max-errors")) return false;
      if (!ParseInt(argv[++i], &args->max_errors) || args->max_errors < 0) {
        *exit_code = UsageError(
            std::string("--max-errors must be a non-negative count, got '") +
            argv[i] + "'");
        return false;
      }
    } else if (flag == "--timeout") {
      if (!need_value(i, "--timeout")) return false;
      if (!ParseDouble(argv[++i], &args->timeout) || args->timeout <= 0) {
        *exit_code = UsageError(std::string("--timeout must be a positive "
                                            "number of seconds, got '") +
                                argv[i] + "'");
        return false;
      }
    } else if (flag == "--view") {
      args->view = true;
    } else if (flag == "--report") {
      args->report = true;
      args->refine_flags.push_back(flag);
    } else if (flag == "--k") {
      if (!need_value(i, "--k")) return false;
      if (!ParseInt(argv[++i], &args->k)) return bad_number("--k", argv[i]);
      args->refine_flags.push_back(flag);
    } else if (flag == "--theta") {
      if (!need_value(i, "--theta")) return false;
      // Range-checked here: a negative value would otherwise silently select
      // the highest-theta mode (the internal sentinel for "--theta unset").
      if (!ParseDouble(argv[++i], &args->theta) || args->theta < 0.0 ||
          args->theta > 1.0) {
        *exit_code = UsageError(
            std::string("--theta must be a number in [0, 1], got '") +
            argv[i] + "'");
        return false;
      }
      args->refine_flags.push_back(flag);
    } else if (flag == "--max-k") {
      if (!need_value(i, "--max-k")) return false;
      if (!ParseInt(argv[++i], &args->max_k)) {
        return bad_number("--max-k", argv[i]);
      }
      args->refine_flags.push_back(flag);
    } else if (flag == "--time-limit") {
      if (!need_value(i, "--time-limit")) return false;
      if (!ParseDouble(argv[++i], &args->time_limit) ||
          args->time_limit <= 0) {
        *exit_code = UsageError(std::string("--time-limit must be a positive "
                                            "number of seconds, got '") +
                                argv[i] + "'");
        return false;
      }
      args->refine_flags.push_back(flag);
    } else {
      *exit_code = UsageError("unknown option: " + flag);
      return false;
    }
  }
  if (args->command == "measure" && !args->refine_flags.empty()) {
    *exit_code = UsageError(args->refine_flags.front() +
                            " is a refine/report option; not valid for "
                            "measure");
    return false;
  }
  return true;
}

/// Loads the dataset named by the common arguments. Skipped-line diagnostics
/// (--max-errors) go to stderr so stdout stays machine-readable.
rdfsr::Result<Dataset> Load(const Args& args) {
  DatasetOptions options;
  options.sort = args.sort;
  // 0 (and any value < 1) means auto; the api clamps to the chunk count and
  // reports the resolved value via effective_parse_threads().
  options.parse_threads = args.threads;
  options.max_errors = static_cast<std::size_t>(args.max_errors);
  std::vector<rdfsr::rdf::ParseDiagnostic> diagnostics;
  if (args.max_errors > 0) options.diagnostics = &diagnostics;
  if (args.timeout > 0) {
    options.deadline_ms = DeadlineMillis(args.timeout);
  }
  auto dataset = Dataset::FromNTriplesFile(args.path, options);
  for (const auto& diag : diagnostics) {
    std::cerr << "warning: " << args.path << ":" << diag.line
              << ": skipped malformed line: " << diag.message << "\n";
  }
  return dataset;
}

int Measure(const Args& args) {
  auto dataset = Load(args);
  if (!dataset.ok()) return Fail(dataset.status());
  std::cout << "dataset: " << dataset->Describe() << "\n"
            << "parse threads: " << dataset->effective_parse_threads()
            << (args.threads == dataset->effective_parse_threads()
                    ? ""
                    : " (clamped)")
            << "\n";
  if (args.view) std::cout << "\n" << dataset->RenderView() << "\n";
  std::vector<std::string> rules = args.rules;
  if (rules.empty()) rules = {"cov", "sim"};
  for (const std::string& spec : rules) {
    auto analysis = dataset->Analyze(spec);
    if (!analysis.ok()) return Fail(analysis.status());
    std::cout << "rule " << spec << ": " << analysis->RuleText() << "\n"
              << "  sigma = " << FormatSigma(analysis->Sigma()) << "\n";
  }
  return 0;
}

int Refine(const Args& args, bool report_only) {
  if (args.rules.size() > 1) {
    return UsageError(args.command + " takes a single --rule");
  }
  const auto start = std::chrono::steady_clock::now();
  auto dataset = Load(args);
  if (!dataset.ok()) return Fail(dataset.status());
  std::cout << "dataset: " << dataset->Describe() << "\n";
  if (args.view) std::cout << "\n" << dataset->RenderView() << "\n";

  auto analysis =
      dataset->Analyze(args.rules.empty() ? "cov" : args.rules.front());
  if (!analysis.ok()) return Fail(analysis.status());
  if (args.time_limit > 0) analysis->TimeLimit(args.time_limit);
  if (args.timeout > 0) {
    // --timeout budgets the whole run: the search gets what the load left
    // over (floored above zero so an exhausted budget still cuts the search
    // through the anytime path instead of tripping mid-configuration).
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    analysis->Timeout(std::max(args.timeout - elapsed, 1e-3));
  }
  analysis->HeuristicThreads(args.threads);
  std::cout << "rule: " << analysis->RuleText() << "\n"
            << "sigma over the whole dataset: "
            << FormatSigma(analysis->Sigma()) << "\n\n";

  rdfsr::Result<Refinement> refinement =
      args.theta >= 0.0 ? analysis->LowestK(args.theta, args.max_k)
                        : analysis->HighestTheta(args.k);
  if (!refinement.ok()) return Fail(refinement.status());
  if (args.theta >= 0.0) {
    std::cout << "lowest k with sigma >= " << args.theta << ": "
              << refinement->num_sorts();
  } else {
    std::cout << "highest theta with k = " << args.k << ": "
              << FormatSigma(refinement->theta.ToDouble());
  }
  std::cout << (refinement->optimal ? " (proven optimal)" : "")
            << (refinement->timed_out ? " (timed out: best found before cut)"
                                      : "")
            << "\n"
            << analysis->Summary(*refinement) << "\n";
  if (!report_only) std::cout << "\n" << analysis->Render(*refinement);
  if (report_only || args.report) {
    std::cout << "\n" << analysis->Report(*refinement);
  }
  // A cut search still printed its incumbent, but the run did hit its budget:
  // exit 4 so scripts notice without parsing the banner.
  return refinement->timed_out ? kExitLimit : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    std::cout << Usage();
    return 0;
  }
  Args args;
  int exit_code = 0;
  if (!ParseArgs(argc, argv, &args, &exit_code)) return exit_code;
  if (command == "measure") return Measure(args);
  if (command == "refine") return Refine(args, /*report_only=*/false);
  if (command == "report") return Refine(args, /*report_only=*/true);
  return UsageError("unknown command: " + command);
}
