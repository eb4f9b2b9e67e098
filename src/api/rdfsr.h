// Public façade for the rdfsr library — the one header applications include.
//
// The paper's pipeline (Sections 2-7 of Arenas et al., PVLDB 2014) is: load
// RDF, slice a sort D_t, build the property-structure view M(D) and its
// signature index, evaluate sigma under a rule, and search for a sort
// refinement. Internally that spans six layers (rdf -> schema -> rules ->
// eval -> core/ilp); this header collapses it to two value types:
//
//   Dataset   owns the loading chain: N-Triples file/string ->
//             rdf::IncidenceSink (the subject/property pairs and rdf:type
//             triples; no other object is interned) -> optional sort slice
//             -> SignatureIndex (streamed through schema::IndexBuilder — no
//             dense matrix intermediate). Copies share the immutable state,
//             so Dataset is cheap to pass around and anything derived from
//             it (an Analysis) keeps the underlying index alive on its own —
//             no borrowed-pointer lifetime chains.
//
//   Analysis  binds one rule (builtin, spec string, or parsed custom text) to
//             one Dataset, owns the evaluator and solver it needs, and
//             answers Sigma(), HighestTheta(k), LowestK(theta) and Report()
//             with SolverOptions-backed fluent configuration.
//
// Fallible operations return Result<T> (util/status.h) instead of throwing.
//
//   auto people = api::Dataset::FromNTriplesFile("data.nt",
//                                                {.sort = "http://x/Person"});
//   if (!people.ok()) return Fail(people.status());
//   auto cov = people->Analyze("cov");
//   auto best = cov->TimeLimit(10).HighestTheta(2);
//   std::cout << cov->Render(*best) << cov->Report(*best);
//
// The `rdfsr` CLI (tools/rdfsr_cli.cc) is a thin shell over this API, and
// every program in examples/ uses it exclusively.

#ifndef RDFSR_API_RDFSR_H_
#define RDFSR_API_RDFSR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/solver.h"
#include "rdf/incidence_sink.h"
#include "rdf/ntriples.h"
#include "rules/ast.h"
#include "schema/signature_index.h"
#include "util/rational.h"
#include "util/status.h"

namespace rdfsr::api {

class Analysis;

/// Knobs for the Dataset loading chain.
struct DatasetOptions {
  /// When non-empty, analyze only the sort slice D_t of this type IRI
  /// (subjects declared via rdf:type; the type triples themselves are
  /// excluded from the view, as in the paper's datasets).
  std::string sort;
  /// Retain the subject-name -> signature map. Needed by rules mentioning
  /// subj(c) = <constant> and by SignatureOf(); costs one string per subject.
  bool keep_subject_names = true;
  /// Retain the loaded triples — the (subject, property) pairs and the
  /// rdf:type triples, not a graph — so Slice() / SortIris() work after
  /// loading. Turn off to drop them once the index is built.
  bool keep_graph = true;
  /// Parser threads for FromNTriplesFile / FromNTriplesText. The input is
  /// sharded at line boundaries into one chunk per thread (1, the default,
  /// is one chunk parsed on the calling thread) and the shards merge in
  /// chunk order, so every value produces the exact same dataset (index,
  /// num_triples(), SortIris(), diagnostics) — a pure throughput knob for
  /// multi-million-triple files. Values < 1 mean one thread per hardware
  /// thread, every value is capped at util::ThreadPool::kMaxThreads, and
  /// the count is capped so every chunk keeps at least ~1 MiB of input
  /// (tiny files parse on fewer threads). The clamped count the load
  /// actually used is Dataset::effective_parse_threads(); the same worker
  /// pool is reused for the signature-index build stages.
  int parse_threads = 1;
  /// Wall-clock budget for the load chain (parse, shard merge, index build)
  /// in milliseconds; <= 0 (the default) means unlimited. Overrun fails the
  /// load with kDeadlineExceeded — no partially built Dataset ever escapes.
  std::int64_t deadline_ms = 0;
  /// Tolerate up to this many malformed lines (0, the default, fails on the
  /// first): bad lines are skipped and the graph is bit-identical to parsing
  /// the pre-cleaned input. Exceeding the budget fails with kParseError.
  std::size_t max_errors = 0;
  /// When non-null and max_errors > 0, receives one line-numbered diagnostic
  /// per skipped line (at most max_errors entries, in input order).
  std::vector<rdf::ParseDiagnostic>* diagnostics = nullptr;
};

/// A sort refinement found by Analysis::HighestTheta or Analysis::LowestK:
/// a partition of the dataset's signature ids into implicit sorts, each with
/// sigma >= theta (Definition 4.2).
struct Refinement {
  /// Signature ids of the underlying Dataset, one vector per implicit sort.
  std::vector<std::vector<int>> sorts;
  /// The guaranteed threshold: every sort has sigma >= theta (exact).
  Rational theta;
  /// Whether the search proved optimality (highest-theta: the next step up
  /// was proven infeasible; lowest-k: all smaller k proven infeasible) rather
  /// than stopping at solver limits.
  bool optimal = false;
  /// The search was cut by Analysis::Timeout: the refinement is the best
  /// incumbent found before the cut (implies !optimal — thresholds/sizes
  /// beyond it were never decided).
  bool timed_out = false;
  int instances = 0;  ///< decision instances solved by the search
  double seconds = 0.0;

  std::size_t num_sorts() const { return sorts.size(); }
};

/// An immutable loaded dataset: the signature index plus (optionally) the
/// loaded triples it came from — the subject/property pairs and rdf:type
/// triples that Slice() and SortIris() read, not a graph. Value semantics —
/// copies share state.
class Dataset {
 public:
  /// Loads an N-Triples file from disk and builds the index. The file is
  /// mapped read-only, not copied, and the parse gives back each page once
  /// it has read it, so the file is never resident in full. Fails with
  /// NotFound when the file cannot be opened and InvalidArgument when it is
  /// not a regular file (a directory, FIFO or device). Limitation: if
  /// another process truncates the file while it loads, this process gets
  /// SIGBUS, not an error status.
  static Result<Dataset> FromNTriplesFile(const std::string& path,
                                          const DatasetOptions& options = {});

  /// Parses N-Triples text and builds the index.
  static Result<Dataset> FromNTriplesText(std::string_view text,
                                          const DatasetOptions& options = {});

  /// Wraps an existing signature index (synthetic generators, index IO).
  /// The dataset has no triples, so Slice() and SortIris() are unavailable.
  static Dataset FromIndex(schema::SignatureIndex index);

  /// The sort slice D_t as a new Dataset sharing this dataset's triples.
  /// Fails with NotFound when no subject has the sort, InvalidArgument when
  /// the triples were not retained. `options.sort` is ignored — the explicit
  /// `sort_iri` argument is the sort.
  Result<Dataset> Slice(const std::string& sort_iri,
                        const DatasetOptions& options = {}) const;

  /// All sort IRIs t appearing in (s, rdf:type, t) triples, or empty when the
  /// triples were not retained.
  std::vector<std::string> SortIris() const;

  /// Binds a rule to this dataset. The spec is either a builtin name —
  /// "cov", "sim", "cov-ignoring:p1,p2,...", "dep:p1,p2", "symdep:p1,p2",
  /// "depdisj:p1,p2" — or free text in the Section 3 rule language.
  Result<Analysis> Analyze(const std::string& rule_spec) const;

  /// Binds an already-constructed rule to this dataset.
  Analysis Analyze(rules::Rule rule) const;

  // --- shape ---------------------------------------------------------------
  /// Distinct triples of the dataset (of D_t for a slice); 0 when built
  /// FromIndex.
  std::size_t num_triples() const;
  std::int64_t num_subjects() const;
  std::size_t num_properties() const;
  std::size_t num_signatures() const;
  const std::vector<std::string>& property_names() const;
  /// The sort IRI this dataset was sliced to, or empty for the whole graph.
  const std::string& sort() const;

  /// Signature id of a named subject, or -1 when unknown (requires
  /// keep_subject_names).
  int SignatureOf(const std::string& subject_name) const;

  /// Parser threads the load actually used after clamping
  /// DatasetOptions::parse_threads (< 1 resolved to the hardware
  /// concurrency, at most util::ThreadPool::kMaxThreads, then capped at the
  /// input's chunk count). 1 for datasets built FromIndex or sliced from
  /// another dataset.
  int effective_parse_threads() const;

  /// One-line shape summary: "4 subjects, 3 properties, 2 signatures".
  std::string Describe() const;

  /// ASCII signature view (the Figure 2/3 bitmap rendering).
  std::string RenderView(std::size_t max_rows = 24) const;

  /// Escape hatch: the underlying index, for interop with internal layers.
  const schema::SignatureIndex& index() const;

 private:
  friend class Analysis;

  // Immutable shared state; Analyses take their own reference.
  struct Rep {
    schema::SignatureIndex index;
    // null when dropped (keep_graph = false) or FromIndex
    std::shared_ptr<const rdf::IncidenceSink> triples;
    std::string sort;  // sliced sort IRI, or empty
    std::size_t num_triples = 0;
    int parse_threads = 1;  // effective parser thread count of the load
  };

  explicit Dataset(std::shared_ptr<const Rep> rep) : rep_(std::move(rep)) {}

  /// Parses `input` and builds the dataset: the From* factories' chain.
  /// `input` is the caller's text (std::string_view) or a mapped file
  /// (util::MappedFile), whose pages the parse gives back as it reads them.
  /// Defined and instantiated in dataset.cc only.
  template <typename Input>
  static Result<Dataset> Load(const Input& input, const DatasetOptions& options);

  /// The one loading chain: slices `triples` to `sort` (when non-empty),
  /// builds the index, and assembles the Rep. Shared by the From* factories
  /// and Slice(). `pool`, when non-null, parallelizes the index build stages
  /// (same bit-identical result); `parse_threads` is recorded for
  /// effective_parse_threads().
  static Result<Dataset> Build(std::shared_ptr<const rdf::IncidenceSink> triples,
                               const std::string& sort,
                               const DatasetOptions& options,
                               util::ThreadPool* pool = nullptr,
                               int parse_threads = 1,
                               const util::CancellationToken& cancel = {});

  std::shared_ptr<const Rep> rep_;
};

/// One (dataset, rule) pair: owns the evaluator and refinement solver, and
/// answers structuredness and refinement queries. Created via
/// Dataset::Analyze; keeps the dataset state alive independently of the
/// originating Dataset. Fluent setters return *this so configuration chains:
///
///   analysis.TimeLimit(5).GreedyRestarts(8).HighestTheta(2)
class Analysis {
 public:
  Analysis(Analysis&&) = default;
  Analysis& operator=(Analysis&&) = default;

  // --- fluent configuration (SolverOptions-backed) -------------------------
  /// Replaces the whole solver configuration.
  Analysis& With(core::SolverOptions options);
  /// Exact-solver wall-clock budget per decision instance, in seconds.
  Analysis& TimeLimit(double seconds);
  /// Whole-query wall-clock budget in seconds (<= 0 disables). Anytime
  /// semantics: HighestTheta still succeeds with the best incumbent found
  /// before the cut (Refinement::timed_out set, never optimal); LowestK
  /// fails with kDeadlineExceeded. Unlike the other setters this does NOT
  /// rebuild the solver — the deadline is re-armed per query, so the
  /// incremental caches survive.
  Analysis& Timeout(double seconds);
  /// Exact-solver node budget per decision instance.
  Analysis& MaxNodes(long long nodes);
  /// Worker threads for the agglomerative heuristics (< 1 = one per
  /// hardware thread; at most util::ThreadPool::kMaxThreads). Results are
  /// bit-identical for every value; see core::SolverOptions::heuristic_threads.
  Analysis& HeuristicThreads(int threads);
  /// Step size of the sequential highest-theta search (paper: 0.01).
  /// Clamped into [0.001, 1]; non-finite or non-positive values fall back to
  /// 0.01 (the theta grid is derived in exact rationals with denominators up
  /// to 1000, so smaller steps are not representable).
  Analysis& ThetaStep(double step);
  /// Restarts of the greedy primal heuristic.
  Analysis& GreedyRestarts(int restarts);
  /// Deterministic seed for the greedy heuristic.
  Analysis& Seed(std::uint64_t seed);
  const core::SolverOptions& options() const { return options_; }

  // --- queries -------------------------------------------------------------
  /// sigma_r over the whole dataset.
  double Sigma() const;
  /// sigma_r over one implicit sort (signature ids of the dataset). The ids
  /// must be distinct and in range: a repeated or out-of-range id aborts
  /// with an RDFSR_CHECK failure.
  double Sigma(const std::vector<int>& sort) const;

  /// Best threshold achievable with k implicit sorts (the paper's
  /// highest-theta search). Fails with InvalidArgument when k < 1.
  Result<Refinement> HighestTheta(int k);

  /// Smallest k admitting a refinement with threshold theta; searches k
  /// upward to max_k (default: number of signatures). Fails with
  /// InvalidArgument on a theta outside [0, 1] (NaN included) and NotFound
  /// when no k up to the cap works.
  Result<Refinement> LowestK(double theta, int max_k = -1);
  Result<Refinement> LowestK(Rational theta, int max_k = -1);

  // --- rendering -----------------------------------------------------------
  /// One-line description: "{2 sorts: 1+1 signatures}, theta = 1".
  std::string Summary(const Refinement& refinement) const;
  /// ASCII rendering of the refinement (the Figure 4-7 bitmaps).
  std::string Render(const Refinement& refinement,
                     std::size_t max_rows = 24) const;
  /// The per-sort schema report (universal / common / absent /
  /// discriminating properties, Section 7.1.1 reading).
  std::string Report(const Refinement& refinement) const;

  /// The bound rule and its concrete syntax.
  const rules::Rule& rule() const;
  std::string RuleText() const;

  /// The dataset state this analysis is bound to.
  const schema::SignatureIndex& index() const { return rep_->index; }

 private:
  friend class Dataset;

  Analysis(std::shared_ptr<const Dataset::Rep> rep, rules::Rule rule);

  /// The solver, (re)built on demand after configuration changes.
  core::RefinementSolver& Solver();
  /// Solver() with the Timeout() deadline freshly armed for one query.
  core::RefinementSolver& ArmedSolver();

  std::shared_ptr<const Dataset::Rep> rep_;
  std::unique_ptr<const eval::Evaluator> evaluator_;
  core::SolverOptions options_;
  double timeout_seconds_ = 0.0;  // whole-query deadline; re-armed per query
  std::unique_ptr<core::RefinementSolver> solver_;  // lazy; reset by setters
};

/// Resolves a rule spec string — builtin name, builtin-family shorthand, or
/// Section 3 rule text — to a rule. Shared by Dataset::Analyze and the CLI.
Result<rules::Rule> ResolveRuleSpec(const std::string& spec);

}  // namespace rdfsr::api

#endif  // RDFSR_API_RDFSR_H_
