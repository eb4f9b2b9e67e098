// N-Triples (RDF 1.1 line-based syntax) reader and writer.
//
// Supports IRIs, blank nodes, plain / language-tagged / datatyped literals,
// string escapes (\t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX), comments, and
// blank lines. Errors report 1-based line numbers.
//
// The reader is streaming and zero-copy: terms are produced as TermViews
// pointing into the input buffer (escaped forms decode into reused scratch
// buffers), and files are read once into a single allocation. IRIs and
// literals are scanned eight bytes at a time up to their closing byte or
// first escape; escapes and errors take the byte loop. Parsing can be
// sharded across threads (ParseOptions::threads); chunks split at line
// boundaries, parse in parallel, and fold into the destination serially in
// chunk order by re-interning each shard's terms in id order, so the result
// is bit-identical to a sequential parse for any thread count.
//
// Two destinations: a Graph keeps every term of every triple; an
// IncidenceSink (rdf/incidence_sink.h) keeps only what the signature index
// and the sort enumeration read, and is what api::Dataset loads into.

#ifndef RDFSR_RDF_NTRIPLES_H_
#define RDFSR_RDF_NTRIPLES_H_

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include <vector>

#include "rdf/graph.h"
#include "rdf/incidence_sink.h"
#include "util/deadline.h"
#include "util/status.h"

namespace rdfsr::util {
class ThreadPool;
}  // namespace rdfsr::util

namespace rdfsr::rdf {

/// One skipped input line from an error-tolerant parse: the 1-based global
/// line number (correct in sharded mode too) and the parser's message.
struct ParseDiagnostic {
  std::size_t line = 0;
  std::string message;
};

/// Knobs for the N-Triples reader.
struct ParseOptions {
  /// Number of parser threads. 1 parses sequentially; values < 1 mean one
  /// thread per hardware thread. Sharded parsing produces the same graph
  /// (same term ids, same triple order) as sequential, so this is a pure
  /// throughput knob. The count actually used is EffectiveParseThreads().
  int threads = 1;
  /// Inputs shorter than threads * min_chunk_bytes parse on fewer threads
  /// (each chunk keeps at least this many bytes) — thread startup would
  /// dominate. Tests lower this to force sharding on tiny inputs.
  std::size_t min_chunk_bytes = 1 << 20;
  /// Optional borrowed worker pool for the sharded path's shard parses.
  /// When null, the parser spins up a temporary pool of the effective
  /// thread count. Callers that also parallelize downstream stages (the
  /// api::Dataset load chain) pass one pool through the whole pipeline.
  util::ThreadPool* pool = nullptr;
  /// Error tolerance: 0 (default) fails fast on the first malformed line.
  /// A positive value switches to skip-and-collect mode — up to this many
  /// malformed lines are skipped (recorded in `diagnostics` when set) and
  /// parsing succeeds with the graph bit-identical to parsing a pre-cleaned
  /// input; exceeding the budget aborts with kParseError. In sharded mode
  /// diagnostics carry global line numbers and arrive in line order.
  std::size_t max_errors = 0;
  /// When non-null and max_errors > 0, receives one entry per skipped line
  /// (appended; bounded by max_errors even on over-budget failure).
  std::vector<ParseDiagnostic>* diagnostics = nullptr;
  /// Cooperative cancellation: the parser polls this token every few
  /// thousand lines and the sharded fold before each shard, and unwinds with
  /// kCancelled / kDeadlineExceeded. The graph is always left in a valid
  /// state: the sequential path keeps the prefix parsed so far, the sharded
  /// path keeps the shards folded before the trip.
  util::CancellationToken cancel;
};

/// The thread count the reader will actually use for `input_bytes` of text:
/// `options.threads` with < 1 resolved to the hardware concurrency, then
/// capped so every chunk keeps at least `options.min_chunk_bytes` bytes.
int EffectiveParseThreads(const ParseOptions& options, std::size_t input_bytes);

/// Parses N-Triples text into a fresh graph.
Result<Graph> ParseNTriples(std::string_view text);

/// Parses N-Triples text, appending into an existing graph. On error the
/// graph keeps the triples parsed before the failing line.
Status ParseNTriplesInto(std::string_view text, Graph* graph);
Status ParseNTriplesInto(std::string_view text, Graph* graph,
                         const ParseOptions& options);

/// Parses N-Triples text into `sink`, replacing its contents. Same options,
/// diagnostics and line numbers as the Graph overload, and the same result
/// at any thread count. On error the sink keeps the triples before the
/// failing line (sequential) or of the shards merged before the failure
/// (sharded); a cancelled merge leaves a prefix of the input's triples.
Status ParseNTriplesInto(std::string_view text, IncidenceSink* sink,
                         const ParseOptions& options = {});

/// Parses an N-Triples file from disk (read once into a single buffer).
Result<Graph> ParseNTriplesFile(const std::string& path,
                                const ParseOptions& options = {});

/// Streaming interface: invokes `sink` for each parsed triple in input order.
/// The TermViews are valid only for the duration of the call — copy what you
/// keep. Always sequential (shard merging needs a graph to remap into).
using TripleSink =
    std::function<void(const TermView& s, const TermView& p, const TermView& o)>;
Status ParseNTriplesStream(std::string_view text, const TripleSink& sink);

/// Reads a whole file into one string with a single size-stat'ed allocation.
Result<std::string> ReadFileToString(const std::string& path);

/// Serializes a graph in N-Triples syntax (one triple per line, trailing " .").
std::string WriteNTriples(const Graph& graph);

/// Serializes a graph to a stream.
void WriteNTriples(const Graph& graph, std::ostream* out);

}  // namespace rdfsr::rdf

#endif  // RDFSR_RDF_NTRIPLES_H_
