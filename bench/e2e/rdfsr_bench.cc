// rdfsr_bench — the end-to-end benchmark harness (driven by bench/e2e/run.py;
// see bench/e2e/README.md for the workloads and metric definitions).
//
//   rdfsr_bench gen --workload W --seed S --out FILE
//       Writes workload W's N-Triples input. The signature structure of each
//       workload is fixed (constant generator seeds below); S only picks the
//       spelling of every subject IRI and literal, so every seed poses the
//       same refinement problem and has the same reference answer.
//
//   rdfsr_bench run --workload W --file FILE --seconds T
//                   [--min-jobs N] [--warmup 0|1] [--trace-out FILE]
//       Runs jobs back to back (one client, closed loop) until T seconds have
//       passed and at least N jobs ran. A job is file -> answer through the
//       public façade: Dataset::FromNTriplesFile -> Analyze -> HighestTheta /
//       LowestK, with a fresh Dataset and Analysis each time. With
//       --trace-out, every untraced job is followed by a traced one that makes
//       the same calls through the layers' own functions with a span around
//       each, and probe spans time the heuristics and the ILP engine once
//       after the last job. Prints one JSON object (per-job samples, answer,
//       checks, per-layer metrics) on stdout; exits 1 when a check fails.
//
// Checks (all untimed): every job returns the same answer, that answer equals
// the workload's reference, it re-validates outside the solver (partition +
// per-sort counts from the generic rule enumerator, compared exactly against
// theta), traced answers equal untraced ones, and on gated workloads a job on
// up to 4 lanes (run after the timed jobs) gives the same index and answer as
// the timed 1-lane jobs.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "api/rdfsr.h"
#include "core/greedy.h"
#include "core/ilp_builder.h"
#include "core/solver.h"
#include "eval/cached_evaluator.h"
#include "eval/enumerator.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "gen/wordnet.h"
#include "ilp/branch_and_bound.h"
#include "ilp/presolve.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "rules/builtins.h"
#include "schema/index_builder.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef RDFSR_BENCH_BUILD_TYPE
#define RDFSR_BENCH_BUILD_TYPE "unknown"
#endif

namespace rdfsr::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- Workloads ----------------------------------------------------------------

constexpr const char* kClusteredSort = "http://example.org/clustered/Entity";

enum class Query { kHighestTheta, kLowestK };

struct Workload {
  const char* name;
  const char* sort;  // every job analyzes this sort slice
  Query query;
  int k;            // HighestTheta(k)
  Rational theta;   // LowestK(theta)
  // Also run the determinism gate: one untimed job on up to 4 lanes must
  // give the same index and answer as the timed 1-lane jobs.
  bool gate;
  // Reference answer (identical for every --seed; see the file comment).
  // For LowestK the found k equals `instances` (the ladder starts at k = 1).
  const char* ref_theta;
  int ref_instances;
  bool ref_optimal;
};

// Timed jobs run on one lane (one parser thread, one heuristic thread). On a
// shared virtual machine a job that waits for several vCPUs at every
// fork/join measures the host's scheduler more than rdfsr, and at these
// input sizes more lanes gained little.
constexpr int kTimedLanes = 1;
constexpr int kGateLanes = 4;  // capped at nproc

// Why each workload exists is recorded in bench/e2e/README.md: persons_ingest
// is the only one where rdf/schema matter (its query takes about a
// millisecond); wordnet_exact ends in an ILP
// infeasibility proof; persons_lowestk's dominant MIP is a feasible search
// over a fresh encoding per k; clustered_heuristic is gated out of the ILP
// (k = 4 encoding over max_mip_rows), so only the heuristics run.
const Workload kWorkloads[] = {
    {"persons_ingest", rdf::vocab::kFoafPerson, Query::kLowestK, 0,
     Rational(3, 5), true, "3/5", 2, true},
    {"wordnet_exact", rdf::vocab::kWnNounSynset, Query::kHighestTheta, 2,
     Rational(0), false, "57/100", 15, true},
    {"persons_lowestk", rdf::vocab::kFoafPerson, Query::kLowestK, 0,
     Rational(3, 4), false, "3/4", 3, true},
    {"clustered_heuristic", kClusteredSort, Query::kHighestTheta, 4,
     Rational(0), true, "19/50", 29, false},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The bench_solver clustered shape as a graph: 8 families of 8 properties
/// plus one shared property; the first signature of each family takes its
/// whole block, later ones ~80% of it; 1..20 subjects per signature.
rdf::Graph ClusteredGraph(int signatures, std::uint64_t seed) {
  constexpr int kFamilies = 8;
  constexpr int kBlock = 8;
  Rng rng(seed);
  std::set<std::vector<int>> seen;
  rdf::Graph graph;
  const std::string base = "http://example.org/clustered/";
  int drawn = 0;
  while (drawn < signatures) {
    const int family = drawn % kFamilies;
    const bool full = drawn < kFamilies;
    std::vector<int> support{0};
    for (int p = 0; p < kBlock; ++p) {
      if (full || rng.Chance(0.8)) support.push_back(1 + family * kBlock + p);
    }
    if (!seen.insert(support).second) continue;
    const std::int64_t count = rng.Range(1, 20);
    for (std::int64_t j = 0; j < count; ++j) {
      const std::string subject =
          base + "s" + std::to_string(drawn) + "_" + std::to_string(j);
      graph.AddIri(subject, rdf::vocab::kRdfType, kClusteredSort);
      for (int p : support) {
        graph.AddLiteral(subject, base + "p" + std::to_string(p), "v");
      }
    }
    ++drawn;
  }
  return graph;
}

/// Writes graphs as N-Triples with every subject IRI's local name and every
/// literal replaced by a seeded token. Tokens come from a bijective 64-bit
/// mix of a running ordinal, so distinct subjects stay distinct and the
/// signature structure (subject order, supports, property order) is exactly
/// the generated one; only the bytes the parser and dictionary see change.
class RespelledWriter {
 public:
  RespelledWriter(std::ostream* out, std::uint64_t seed)
      : out_(out), key_(Mix(seed ^ 0x5bd1e9955bd1e995ULL)) {}

  void Write(const rdf::Graph& graph) {
    const rdf::Dictionary& dict = graph.dict();
    std::vector<std::string> subject_name(dict.size());
    std::string line;
    for (const rdf::Triple& t : graph.triples()) {
      std::string& subject = subject_name[t.subject];
      if (subject.empty()) {
        const std::string& iri = dict.term(t.subject).lexical;
        subject = "<" + iri.substr(0, iri.rfind('/') + 1) +
                  Token(next_subject_++, 1) + ">";
      }
      const rdf::Term& object = dict.term(t.object);
      line = subject;
      line += " <" + dict.term(t.predicate).lexical + "> ";
      if (object.is_literal()) {
        line += "\"" + Token(next_literal_++, 2) + "\"";
      } else {
        line += "<" + object.lexical + ">";
      }
      line += " .\n";
      *out_ << line;
    }
  }

 private:
  // murmur3's 64-bit finalizer: a bijection on uint64.
  static std::uint64_t Mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  std::string Token(std::uint64_t ordinal, std::uint64_t stream) const {
    std::uint64_t v = Mix(ordinal ^ (key_ * stream));
    std::string token(13, 'a');
    for (char& c : token) {
      c = "abcdefghijklmnopqrstuvwxyz234567"[v & 31];
      v >>= 5;
    }
    return token;
  }

  std::ostream* out_;
  std::uint64_t key_;
  std::uint64_t next_subject_ = 0;
  std::uint64_t next_literal_ = 0;
};

int Generate(const Workload& w, std::uint64_t seed, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return 2;
  }
  RespelledWriter writer(&out, seed);
  const std::string name = w.name;
  // Generator seeds are constants: the structure (and hence the search cost
  // and the answer) must not depend on --seed. Search time on these twins
  // swings several-fold between generator seeds. The sizes keep every job
  // well under a second, so a run holds dozens of jobs.
  if (name == "persons_ingest") {
    writer.Write(gen::GeneratePersonsGraph({47500, 42}));
    writer.Write(gen::GenerateWordnetGraph({10000, 7}));
  } else if (name == "wordnet_exact") {
    writer.Write(gen::GenerateWordnetGraph({1000, 7}));
  } else if (name == "persons_lowestk") {
    writer.Write(gen::GeneratePersonsGraph({2000, 3}));
  } else {
    writer.Write(ClusteredGraph(300, 42));
  }
  out.flush();
  if (!out) {
    std::cerr << "write failed: " << path << "\n";
    return 2;
  }
  return 0;
}

// --- Answers ------------------------------------------------------------------

struct Answer {
  std::vector<std::vector<int>> sorts;
  Rational theta;
  bool optimal = false;
  int instances = 0;

  bool operator==(const Answer& o) const {
    return sorts == o.sorts && theta == o.theta && optimal == o.optimal &&
           instances == o.instances;
  }
};

std::string Describe(const Answer& a) {
  std::ostringstream out;
  out << "theta=" << a.theta.ToString() << " sorts=" << a.sorts.size()
      << " optimal=" << a.optimal << " instances=" << a.instances;
  return out.str();
}

// A job that runs longer fails (it counts in `failed`, not in the timings).
constexpr double kJobTimeoutSeconds = 60.0;

/// The solver options an untraced job's Analysis ends up with.
core::SolverOptions JobSolverOptions(int lanes) {
  core::SolverOptions options;
  options.heuristic_threads = lanes;
  options.deadline = util::Deadline::After(kJobTimeoutSeconds);
  return options;
}

// --- Untraced job: the façade path --------------------------------------------

struct JobResult {
  Status status;
  double setup_s = 0;
  double query_s = 0;
  double e2e_s = 0;
  Answer answer;
};

/// One job. `keep_index`, when non-null, receives a copy of the dataset's
/// index after the clock stops (for the post-run checks).
JobResult RunJob(const Workload& w, const std::string& file, int lanes,
                 schema::SignatureIndex* keep_index = nullptr) {
  JobResult job;
  const Clock::time_point start = Clock::now();
  api::DatasetOptions options;
  options.sort = w.sort;
  options.parse_threads = lanes;
  Result<api::Dataset> dataset = api::Dataset::FromNTriplesFile(file, options);
  if (!dataset.ok()) {
    job.status = dataset.status();
    return job;
  }
  Result<api::Analysis> analysis = dataset->Analyze("cov");
  if (!analysis.ok()) {
    job.status = analysis.status();
    return job;
  }
  job.setup_s = SecondsSince(start);
  const Clock::time_point query_start = Clock::now();
  analysis->HeuristicThreads(lanes).Timeout(kJobTimeoutSeconds);
  Result<api::Refinement> refinement =
      w.query == Query::kHighestTheta ? analysis->HighestTheta(w.k)
                                      : analysis->LowestK(w.theta);
  job.query_s = SecondsSince(query_start);
  job.e2e_s = SecondsSince(start);
  if (!refinement.ok()) {
    job.status = refinement.status();
    return job;
  }
  if (refinement->timed_out) {
    job.status = Status::DeadlineExceeded("job hit the per-job timeout");
  }
  job.answer = {refinement->sorts, refinement->theta, refinement->optimal,
                refinement->instances};
  if (keep_index != nullptr) *keep_index = dataset->index();
  return job;
}

// --- Tracing ------------------------------------------------------------------

using Args = std::vector<std::pair<std::string, double>>;

/// Spans kept in memory and written as Chrome trace-event JSON at exit. A
/// span's parent is the innermost span open when it began.
class Tracer {
 public:
  static constexpr int kProbes = 0;  // "job id" of the probe spans

  std::size_t Open(std::string name, int job) {
    Span span;
    span.name = std::move(name);
    span.job = job;
    span.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    span.start = Clock::now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost span and returns its duration in seconds.
  double Close(Args args = {}) {
    Span& span = spans_[open_.back()];
    open_.pop_back();
    span.end = Clock::now();
    span.args = std::move(args);
    return std::chrono::duration<double>(span.end - span.start).count();
  }

  /// Adds counters to an already closed span.
  void Annotate(std::size_t span, const Args& args) {
    spans_[span].args.insert(spans_[span].args.end(), args.begin(), args.end());
  }

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int job = 0;
    int parent = -1;
    Clock::time_point start, end;
    Args args;
  };

  const Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  std::set<int> jobs;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    jobs.insert(s.job);
    out << "{\"name\": " << JsonString(s.name) << ", \"cat\": "
        << JsonString(s.name.substr(0, s.name.find('.')))
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.job
        << ", \"ts\": " << JsonNumber(micros(s.start))
        << ", \"dur\": " << JsonNumber(micros(s.end) - micros(s.start))
        << ", \"args\": {\"span\": " << i << ", \"parent\": " << s.parent;
    for (const auto& [key, value] : s.args) {
      out << ", " << JsonString(key) << ": " << JsonNumber(value);
    }
    out << "}},\n";
  }
  std::size_t n = 0;
  for (int job : jobs) {
    const std::string label =
        job == kProbes ? "probes" : "job " + std::to_string(job);
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << job << ", \"args\": {\"name\": " << JsonString(label) << "}}"
        << (++n < jobs.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// --- Traced job: the same calls through the layers' public functions ----------

/// What the probes need from a traced job: the search's shape and the
/// costliest exact instance.
struct SearchShape {
  Answer answer;
  int probe_k = 0;          // k the heuristics probe runs at
  Rational probe_theta;     // theta the agglomerative-lowest-k probe runs at
  bool has_exact = false;   // some instance reached the MIP
  int exact_k = 0;
  Rational exact_theta;
  long long exact_nodes = 0;
  bool exact_cold = false;  // that solve had no warm basis
};

struct TracedJob {
  Status status;
  double wall_s = 0;
  std::map<std::string, double> layers;
  SearchShape shape;
};

TracedJob RunTracedJob(const Workload& w, const std::string& file, int lanes,
                       int job_id, Tracer* tracer) {
  TracedJob out;
  std::map<std::string, double>& m = out.layers;
  const Clock::time_point start = Clock::now();
  const std::size_t job_span = tracer->Open("job", job_id);

  tracer->Open("rdf.read", job_id);
  Result<std::string> text = rdf::ReadFileToString(file);
  m["rdf.read_s"] = tracer->Close();
  if (!text.ok()) {
    tracer->Close();
    out.status = text.status();
    return out;
  }

  rdf::ParseOptions parse;
  parse.threads = lanes;
  const int effective = rdf::EffectiveParseThreads(parse, text->size());
  parse.threads = effective;
  std::unique_ptr<util::ThreadPool> pool;
  if (effective > 1) {
    pool = std::make_unique<util::ThreadPool>(effective - 1);
    parse.pool = pool.get();
  }
  rdf::Graph graph;
  tracer->Open("rdf.parse", job_id);
  Status parsed = rdf::ParseNTriplesInto(*text, &graph, parse);
  m["rdf.parse_s"] = tracer->Close({{"lanes", effective},
                                    {"triples", double(graph.size())},
                                    {"terms", double(graph.dict().size())}});
  if (!parsed.ok()) {
    tracer->Close();
    out.status = parsed;
    return out;
  }
  m["rdf.parse_lanes"] = effective;
  m["rdf.terms"] = static_cast<double>(graph.dict().size());
  m["rdf.parse_mtriples_per_s"] =
      static_cast<double>(graph.size()) / m["rdf.parse_s"] / 1e6;

  tracer->Open("rdf.postings", job_id);
  graph.TypePostings();
  m["rdf.postings_s"] = tracer->Close();

  std::size_t slice_triples = 0;
  tracer->Open("schema.index", job_id);
  const schema::SignatureIndex index = schema::IndexBuilder::FromSortSlice(
      graph, w.sort, /*keep_subject_names=*/true, &slice_triples, pool.get());
  m["schema.index_s"] = tracer->Close(
      {{"signatures", double(index.num_signatures())},
       {"slice_triples", double(slice_triples)}});
  m["schema.slice_triples"] = static_cast<double>(slice_triples);
  m["schema.signatures"] = static_cast<double>(index.num_signatures());
  m["schema.properties"] = static_cast<double>(index.num_properties());

  const rules::Rule rule = rules::CovRule();
  const std::unique_ptr<eval::Evaluator> evaluator =
      eval::MakeEvaluator(rule, &index);
  tracer->Open("eval.taus", job_id);
  const std::vector<eval::TauCount> taus = eval::EnumerateTauCounts(rule, index);
  m["eval.taus_s"] = tracer->Close({{"taus", double(taus.size())}});
  m["eval.tau_count"] = static_cast<double>(taus.size());

  const core::SolverOptions options = JobSolverOptions(lanes);
  const std::vector<core::TauShape> shapes = core::AnalyzeTaus(taus, index);
  core::RefinementSolver solver(evaluator.get(), options);
  const eval::SigmaCounts all = evaluator->CountsAll();
  const Rational sigma_all =
      all.total > 0 ? Rational(static_cast<std::int64_t>(all.favorable),
                               static_cast<std::int64_t>(all.total))
                    : Rational(1);

  SearchShape& shape = out.shape;
  std::set<int> exact_ks;  // k values whose warm basis chain has started
  long long nodes = 0;
  ilp::LpEngineStats lp;
  double exists_s = 0;
  double exists_max_s = 0;
  int instances = 0;
  int heuristic = 0;
  int reached_ladder = 0;
  int gated = 0;
  std::size_t active_rows = 0;
  long long best_pivots = -1;
  long long best_nodes = -1;

  // One Exists span per instance, in the order FindHighestTheta /
  // FindLowestK visit them.
  const auto exists = [&](int k, Rational theta) {
    const std::size_t span = tracer->Open("core.exists", job_id);
    core::DecisionResult r = solver.Exists(k, theta);
    const double s = tracer->Close();
    const bool trivial = !(sigma_all < theta);
    const std::size_t rows = core::RefinementIlpActiveRows(index, shapes, k);
    const bool ladder = k > 1 && !trivial;
    const bool exact = !trivial && !r.via_greedy && rows <= options.max_mip_rows;
    active_rows = std::max(active_rows, rows);
    ++instances;
    exists_s += s;
    exists_max_s = std::max(exists_max_s, s);
    reached_ladder += ladder;
    heuristic += r.via_greedy;
    gated += !trivial && !r.via_greedy && rows > options.max_mip_rows;
    nodes += r.mip_nodes;
    lp.MergeWith(r.lp_stats);
    tracer->Annotate(span, {{"k", k},
                            {"theta", theta.ToDouble()},
                            {"decision", double(r.decision)},
                            {"via_greedy", r.via_greedy},
                            {"mip_nodes", double(r.mip_nodes)},
                            {"lp_pivots", double(r.lp_stats.pivots)},
                            {"active_rows", double(rows)}});
    if (exact) {
      const bool cold = exact_ks.insert(k).second;
      // Costliest by deterministic work (LP pivots, then nodes), so the probe
      // picks the same instance in every run.
      if (r.lp_stats.pivots > best_pivots ||
          (r.lp_stats.pivots == best_pivots && r.mip_nodes > best_nodes)) {
        best_pivots = r.lp_stats.pivots;
        best_nodes = r.mip_nodes;
        shape.has_exact = true;
        shape.exact_k = k;
        shape.exact_theta = theta;
        shape.exact_nodes = r.mip_nodes;
        shape.exact_cold = cold;
      }
    }
    return r;
  };

  tracer->Open("core.search", job_id);
  Answer& answer = shape.answer;
  bool cut = false;
  if (w.query == Query::kHighestTheta) {
    answer.theta = sigma_all;
    answer.sorts = {eval::AllSignatures(index)};
    const core::ThetaGrid grid =
        core::MakeThetaGrid(sigma_all, options.theta_step);
    answer.optimal = grid.first > grid.last;
    for (std::int64_t g = grid.first; g <= grid.last; ++g) {
      const Rational theta = grid.Theta(g);
      core::DecisionResult r = exists(w.k, theta);
      if (r.decision == core::Decision::kExists) {
        answer.theta = theta;
        answer.sorts = r.refinement->sorts;
        answer.optimal = g == grid.last;
        continue;
      }
      answer.optimal = r.decision == core::Decision::kNotExists;
      cut = r.limit.code() == StatusCode::kDeadlineExceeded;
      break;
    }
    shape.probe_k = w.k;
    shape.probe_theta = answer.theta;
  } else {
    answer.optimal = true;
    answer.theta = w.theta;
    bool found = false;
    for (int k = 1; k <= static_cast<int>(index.num_signatures()); ++k) {
      core::DecisionResult r = exists(k, w.theta);
      if (r.decision == core::Decision::kExists) {
        answer.sorts = r.refinement->sorts;
        shape.probe_k = k;
        found = true;
        break;
      }
      answer.optimal &= r.decision == core::Decision::kNotExists;
      cut |= r.limit.code() == StatusCode::kDeadlineExceeded;
    }
    if (!found) out.status = Status::NotFound("lowest-k search found no k");
    shape.probe_theta = w.theta;
  }
  answer.instances = instances;
  tracer->Close();
  out.wall_s = SecondsSince(start);
  tracer->Close();
  tracer->Annotate(job_span, {{"instances", instances}});
  if (cut) out.status = Status::DeadlineExceeded("job hit the per-job timeout");

  m["core.exists_s"] = exists_s;
  m["core.exists_max_s"] = exists_max_s;
  m["core.instances"] = instances;
  m["core.heuristic_instances"] = heuristic;
  m["core.heuristic_hit_ratio"] =
      reached_ladder > 0 ? double(heuristic) / reached_ladder : 0.0;
  m["core.gated_instances"] = gated;
  m["core.active_rows"] = static_cast<double>(active_rows);
  m["ilp.mip_nodes"] = static_cast<double>(nodes);
  m["ilp.lp_pivots"] = static_cast<double>(lp.pivots);
  m["ilp.lp_refactorizations"] = static_cast<double>(lp.refactorizations);
  m["ilp.lp_basis_reuses"] = static_cast<double>(lp.basis_reuses);
  m["ilp.lp_max_eta_length"] = lp.max_eta_length;
  m["ilp.pivots_per_node"] = nodes > 0 ? double(lp.pivots) / nodes : 0.0;
  return out;
}

/// Probe spans, run once after the jobs outside any job's tree: the three
/// heuristics at the search's k / theta, and the ILP engine on the costliest
/// exact instance (encode + reweight, presolve, cold SolveMip).
Status RunProbes(const schema::SignatureIndex& index, int lanes,
                 const SearchShape& shape, Tracer* tracer,
                 std::map<std::string, double>* m) {
  const rules::Rule rule = rules::CovRule();
  const std::unique_ptr<eval::Evaluator> evaluator =
      eval::MakeEvaluator(rule, &index);
  const core::SolverOptions options = JobSolverOptions(lanes);
  const int probes = Tracer::kProbes;
  {
    eval::CachedEvaluator cached(evaluator.get());
    tracer->Open("core.agglo_lowest_k", probes);
    core::AgglomerativeLowestK(cached, shape.probe_theta, lanes);
    (*m)["core.agglo_lowest_k_s"] = tracer->Close();
  }
  {
    eval::CachedEvaluator cached(evaluator.get());
    tracer->Open("core.agglo_fixed_k", probes);
    core::AgglomerativeFixedK(cached, shape.probe_k, lanes);
    (*m)["core.agglo_fixed_k_s"] = tracer->Close();
  }
  {
    eval::CachedEvaluator cached(evaluator.get());
    tracer->Open("core.greedy", probes);
    core::GreedyMaxMinSigma(cached, shape.probe_k, options.greedy);
    (*m)["core.greedy_s"] = tracer->Close();
  }
  for (const char* key : {"core.encode_s", "ilp.presolve_s", "ilp.presolved_rows",
                          "ilp.solve_mip_s", "ilp.pivots_per_s"}) {
    (*m)[key] = 0;  // stays 0 when no instance reached the MIP
  }
  if (!shape.has_exact) return Status::OK();
  const std::vector<core::TauShape> shapes =
      core::AnalyzeTaus(eval::EnumerateTauCounts(rule, index), index);
  tracer->Open("core.encode", probes);
  core::RefinementIlpInstance instance(index, shapes, shape.exact_k,
                                       options.build);
  instance.Reweight(shape.exact_theta);
  (*m)["core.encode_s"] = tracer->Close(
      {{"rows", double(instance.model().num_constraints())}});
  tracer->Open("ilp.presolve", probes);
  const ilp::PresolveResult presolved = ilp::Presolve(instance.model());
  (*m)["ilp.presolve_s"] = tracer->Close();
  (*m)["ilp.presolved_rows"] =
      static_cast<double>(presolved.reduced.num_constraints());
  tracer->Open("ilp.solve_mip", probes);
  const ilp::MipResult mip = ilp::SolveMip(instance.model(), options.mip);
  const double solve_s = tracer->Close(
      {{"mip_nodes", double(mip.nodes)},
       {"lp_pivots", double(mip.lp_stats.pivots)},
       {"search_mip_nodes", double(shape.exact_nodes)},
       {"search_solve_was_cold", shape.exact_cold}});
  (*m)["ilp.solve_mip_s"] = solve_s;
  (*m)["ilp.pivots_per_s"] = static_cast<double>(mip.lp_stats.pivots) / solve_s;
  if (shape.exact_cold && mip.nodes != shape.exact_nodes) {
    return Status::Internal("cold SolveMip probe took " +
                            std::to_string(mip.nodes) + " nodes, the search " +
                            std::to_string(shape.exact_nodes));
  }
  return Status::OK();
}

// --- Checks -------------------------------------------------------------------

/// Re-validates an answer outside the solver: the sorts partition the
/// signature ids, there are at most k of them, and every sort's sigma_Cov,
/// counted by the generic rule enumerator (not the closed forms the solver
/// uses), is >= theta, compared exactly.
Status Revalidate(const Workload& w, const schema::SignatureIndex& index,
                  const Answer& answer) {
  const int k = w.query == Query::kHighestTheta ? w.k : answer.instances;
  if (answer.sorts.empty() || static_cast<int>(answer.sorts.size()) > k) {
    return Status::Internal("answer has " +
                            std::to_string(answer.sorts.size()) + " sorts");
  }
  std::vector<int> seen(index.num_signatures(), 0);
  for (const std::vector<int>& sort : answer.sorts) {
    if (sort.empty()) return Status::Internal("empty sort");
    for (int sig : sort) {
      if (sig < 0 || sig >= static_cast<int>(seen.size()) || seen[sig]++) {
        return Status::Internal("sorts do not partition the signatures");
      }
    }
  }
  if (std::count(seen.begin(), seen.end(), 0) > 0) {
    return Status::Internal("sorts do not cover every signature");
  }
  const eval::GenericEvaluator generic(rules::CovRule(), &index);
  for (const std::vector<int>& sort : answer.sorts) {
    const eval::SigmaCounts c = generic.Counts(sort);
    if (c.favorable * answer.theta.den() < c.total * answer.theta.num()) {
      return Status::Internal("a sort's sigma_Cov is below theta " +
                              answer.theta.ToString());
    }
  }
  return Status::OK();
}

bool SameIndex(const schema::SignatureIndex& a, const schema::SignatureIndex& b) {
  if (a.property_names() != b.property_names() ||
      a.num_signatures() != b.num_signatures()) {
    return false;
  }
  for (std::size_t i = 0; i < a.num_signatures(); ++i) {
    if (a.signature(i).count != b.signature(i).count ||
        a.signature(i).support() != b.signature(i).support()) {
      return false;
    }
  }
  return true;
}

double PeakRssMiB() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- run ----------------------------------------------------------------------

struct RunArgs {
  std::string file;
  double seconds = 10;
  int min_jobs = 3;
  bool warmup = true;
  std::string trace_out;
};

int Run(const Workload& w, const RunArgs& args) {
  const int nproc = util::ThreadPool::ResolveThreads(0);  // hardware threads
  const int lanes = kTimedLanes;
  const int gate_lanes = w.gate ? std::min(kGateLanes, nproc) : 0;
  const bool traced = !args.trace_out.empty();
  std::vector<std::string> errors;

  // Untimed first job: fills the page cache and the allocator.
  if (args.warmup) {
    JobResult warm = RunJob(w, args.file, lanes);
    if (!warm.status.ok()) errors.push_back("warm-up: " + warm.status.ToString());
  }

  Tracer tracer;
  std::vector<JobResult> jobs;
  std::vector<TracedJob> traced_jobs;
  schema::SignatureIndex index;  // of the first successful job
  bool have_index = false;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(jobs.size()) < args.min_jobs ||
         SecondsSince(start) < args.seconds) {
    jobs.push_back(RunJob(w, args.file, lanes, have_index ? nullptr : &index));
    have_index |= jobs.back().status.ok();
    if (traced) {
      traced_jobs.push_back(RunTracedJob(w, args.file, lanes,
                                         static_cast<int>(traced_jobs.size()) + 1,
                                         &tracer));
    }
  }
  const double measured_s = SecondsSince(start);
  const double peak_rss_mb = PeakRssMiB();

  // Determinism gate, after the peak RSS is read: the parser's shards would
  // otherwise set it.
  schema::SignatureIndex gate_index;
  std::optional<JobResult> gate;
  if (gate_lanes > 1) gate = RunJob(w, args.file, gate_lanes, &gate_index);

  // --- checks (untimed) ---
  const JobResult* first_ok = nullptr;
  int failed = 0;
  for (const JobResult& job : jobs) {
    if (!job.status.ok()) {  // counted in `failed`; the answer check skips it
      ++failed;
      continue;
    }
    if (first_ok == nullptr) {
      first_ok = &job;
    } else if (!(job.answer == first_ok->answer)) {
      errors.push_back("jobs disagree: " + Describe(job.answer) + " vs " +
                       Describe(first_ok->answer));
    }
  }
  std::map<std::string, double> layers;
  if (first_ok != nullptr) {
    const Answer& answer = first_ok->answer;
    if (answer.theta.ToString() != w.ref_theta ||
        answer.instances != w.ref_instances ||
        answer.optimal != w.ref_optimal) {
      errors.push_back(std::string("answer ") + Describe(answer) +
                       " differs from the reference theta=" + w.ref_theta +
                       " instances=" + std::to_string(w.ref_instances) +
                       " optimal=" + std::to_string(w.ref_optimal));
    }
    Status valid = Revalidate(w, index, answer);
    if (!valid.ok()) errors.push_back("revalidation: " + valid.ToString());
    if (gate.has_value()) {
      if (!gate->status.ok()) {
        errors.push_back("gate job: " + gate->status.ToString());
      } else if (!SameIndex(gate_index, index)) {
        errors.push_back("index differs between " + std::to_string(lanes) +
                         " and " + std::to_string(gate_lanes) + " lanes");
      } else if (!(gate->answer == answer)) {
        errors.push_back("answer differs between " + std::to_string(lanes) +
                         " and " + std::to_string(gate_lanes) + " lanes: " +
                         Describe(gate->answer));
      }
    }
    for (const TracedJob& t : traced_jobs) {
      if (!t.status.ok()) {
        errors.push_back("traced job: " + t.status.ToString());
      } else if (!(t.shape.answer == answer)) {
        errors.push_back("traced answer " + Describe(t.shape.answer) +
                         " differs from " + Describe(answer));
      }
    }
    if (traced && traced_jobs.front().status.ok()) {
      Status probes = RunProbes(index, lanes, traced_jobs.front().shape,
                                &tracer, &layers);
      if (!probes.ok()) errors.push_back("probe: " + probes.ToString());
    }
  } else {
    errors.push_back("no job succeeded");
  }
  if (traced && !tracer.WriteChromeTrace(args.trace_out)) {
    errors.push_back("cannot write " + args.trace_out);
  }

  // --- report ---
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(w.name) << ", \"lanes\": " << lanes
      << ", \"gate_lanes\": " << gate_lanes << ", \"nproc\": " << nproc
      << ", \"compiler\": " << JsonString(std::string("g++ ") + __VERSION__)
      << ", \"build_type\": " << JsonString(RDFSR_BENCH_BUILD_TYPE)
      << ", \"measured_s\": " << JsonNumber(measured_s)
      << ", \"attempted\": " << jobs.size() << ", \"failed\": " << failed
      << ", \"peak_rss_mb\": " << JsonNumber(peak_rss_mb) << ", \"jobs\": [";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Status& status = jobs[i].status;
    out << (i ? ", " : "") << "{\"ok\": " << (status.ok() ? "true" : "false")
        << ", \"e2e_s\": " << JsonNumber(jobs[i].e2e_s)
        << ", \"setup_s\": " << JsonNumber(jobs[i].setup_s)
        << ", \"query_s\": " << JsonNumber(jobs[i].query_s);
    if (!status.ok()) out << ", \"error\": " << JsonString(status.ToString());
    out << "}";
  }
  out << "], \"traced_jobs\": [";
  for (std::size_t i = 0; i < traced_jobs.size(); ++i) {
    out << (i ? ", " : "") << "{\"wall_s\": " << JsonNumber(traced_jobs[i].wall_s)
        << ", \"layers\": {";
    std::size_t n = 0;
    for (const auto& [key, value] : traced_jobs[i].layers) {
      out << (n++ ? ", " : "") << JsonString(key) << ": " << JsonNumber(value);
    }
    out << "}}";
  }
  out << "], \"probes\": {";
  std::size_t n = 0;
  for (const auto& [key, value] : layers) {
    out << (n++ ? ", " : "") << JsonString(key) << ": " << JsonNumber(value);
  }
  out << "}";
  if (first_ok != nullptr) {
    const Answer& a = first_ok->answer;
    out << ", \"answer\": {\"theta\": " << JsonString(a.theta.ToString())
        << ", \"sorts\": " << a.sorts.size()
        << ", \"optimal\": " << (a.optimal ? "true" : "false")
        << ", \"instances\": " << a.instances << "}";
  }
  out << ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    out << (i ? ", " : "") << JsonString(errors[i]);
  }
  out << "]}";
  std::cout << out.str() << std::endl;
  return errors.empty() ? 0 : 1;
}

int Usage() {
  std::cerr << "usage: rdfsr_bench gen --workload W --seed S --out FILE\n"
               "       rdfsr_bench run --workload W --file FILE --seconds T\n"
               "                       [--min-jobs N] [--warmup 0|1] "
               "[--trace-out FILE]\n";
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    flags[argv[i] + 2] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0 || flags.count("workload") == 0) return Usage();
  const Workload* w = FindWorkload(flags["workload"]);
  if (w == nullptr) {
    std::cerr << "unknown workload " << flags["workload"] << "\n";
    return 2;
  }
  if (command == "gen" && flags.count("seed") && flags.count("out")) {
    return Generate(*w, std::stoull(flags["seed"]), flags["out"]);
  }
  if (command == "run" && flags.count("file") && flags.count("seconds")) {
    RunArgs args;
    args.file = flags["file"];
    args.seconds = std::stod(flags["seconds"]);
    if (flags.count("min-jobs")) args.min_jobs = std::stoi(flags["min-jobs"]);
    if (flags.count("warmup")) args.warmup = flags["warmup"] != "0";
    if (flags.count("trace-out")) args.trace_out = flags["trace-out"];
    return Run(*w, args);
  }
  return Usage();
}

}  // namespace
}  // namespace rdfsr::bench

int main(int argc, char** argv) { return rdfsr::bench::Main(argc, argv); }
