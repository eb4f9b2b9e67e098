// N-Triples (RDF 1.1 line-based syntax) reader and writer.
//
// Supports IRIs, blank nodes, plain / language-tagged / datatyped literals,
// string escapes (\t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX), comments, and
// blank lines. Errors report 1-based line numbers.
//
// The reader is streaming and zero-copy: terms are produced as TermViews
// pointing into the input buffer (escaped forms decode into reused scratch
// buffers). IRIs and literals are scanned eight bytes at a time up to their
// closing byte or first escape; escapes and errors take the byte loop. A
// sink load can read a file through a read-only mapping
// (util/mapped_file.h) and give back each page once parsed, so the file is
// never resident in full; a Graph parse reads a file once into a single
// allocation.
//
// Two destinations: a Graph keeps every term of every triple and parses on
// the calling thread; an IncidenceSink (rdf/incidence_sink.h) keeps only
// what the signature index and the sort enumeration read, and is what
// api::Dataset loads into. A sink load runs one code path at any thread
// count (ParseOptions::threads): the input splits at line boundaries into
// one chunk per lane, the chunks parse in parallel, and they are appended
// to the sink serially in chunk order by re-interning each shard's terms in
// id order, so the result is bit-identical at any thread count. One lane is
// one chunk, parsed on the calling thread.

#ifndef RDFSR_RDF_NTRIPLES_H_
#define RDFSR_RDF_NTRIPLES_H_

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "rdf/incidence_sink.h"
#include "util/deadline.h"
#include "util/status.h"

namespace rdfsr::util {
class MappedFile;
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
  /// Number of parser threads for an IncidenceSink load; a Graph parse runs
  /// on the calling thread whatever this says. 1 parses the whole input as
  /// one chunk on the calling thread; values < 1 mean one thread per
  /// hardware thread, and every value is capped at
  /// util::ThreadPool::kMaxThreads. Every thread count produces the same
  /// sink (same term ids, same pair and posting order), so this is a pure
  /// throughput knob. The count actually used is EffectiveParseThreads().
  int threads = 1;
  /// Inputs shorter than threads * min_chunk_bytes load on fewer threads
  /// (each chunk keeps at least this many bytes) — thread startup would
  /// dominate. Tests lower this to force sharding on tiny inputs. Read by
  /// IncidenceSink loads only.
  std::size_t min_chunk_bytes = 1 << 20;
  /// Optional borrowed worker pool for a sharded IncidenceSink load's shard
  /// parses. When null, the load spins up a temporary pool of the effective
  /// thread count. Callers that also parallelize downstream stages (the
  /// api::Dataset load chain) pass one pool through the whole pipeline. A
  /// Graph parse never uses it.
  util::ThreadPool* pool = nullptr;
  /// Error tolerance: 0 (default) fails fast on the first malformed line.
  /// A positive value switches to skip-and-collect mode — up to this many
  /// malformed lines are skipped (recorded in `diagnostics` when set) and
  /// parsing succeeds with the result bit-identical to parsing a pre-cleaned
  /// input; exceeding the budget aborts with kParseError, naming the
  /// (max_errors + 1)-th malformed line at any thread count. A sharded load's
  /// diagnostics carry global line numbers and arrive in line order.
  std::size_t max_errors = 0;
  /// When non-null and max_errors > 0, receives one entry per skipped line
  /// (appended; bounded by max_errors even on over-budget failure).
  std::vector<ParseDiagnostic>* diagnostics = nullptr;
  /// Cooperative cancellation: the parser polls this token every few
  /// thousand lines and a sharded load's fold before and during each
  /// shard's append, and unwinds with kCancelled / kDeadlineExceeded. The
  /// destination is always left in a valid state holding a prefix of the
  /// input's triples.
  util::CancellationToken cancel;
};

/// The thread count an IncidenceSink load will actually use for
/// `input_bytes` of text: `options.threads` resolved by
/// util::ThreadPool::ResolveThreads (< 1 is the hardware concurrency, and
/// the result is at most kMaxThreads), then capped so every chunk keeps at
/// least `options.min_chunk_bytes` bytes.
int EffectiveParseThreads(const ParseOptions& options, std::size_t input_bytes);

/// Parses N-Triples text into a fresh graph.
Result<Graph> ParseNTriples(std::string_view text);

/// Parses N-Triples text on the calling thread, appending into an existing
/// graph (`options.threads`, `min_chunk_bytes` and `pool` are ignored). On
/// error the graph keeps the triples parsed before the failing line.
Status ParseNTriplesInto(std::string_view text, Graph* graph,
                         const ParseOptions& options = {});

/// Parses N-Triples text into `sink`, replacing its contents, on up to
/// EffectiveParseThreads() threads. Same diagnostics, line numbers and
/// error status as the Graph overload, and the same sink at any thread
/// count. On error the sink keeps the triples before the failing line;
/// over the max_errors budget, a sharded load may also keep the good lines
/// after the failing one up to the end of its shard, and a cancelled load
/// keeps a prefix of the input's triples.
Status ParseNTriplesInto(std::string_view text, IncidenceSink* sink,
                         const ParseOptions& options = {});

/// Loads a mapped file into `sink` exactly as the overload above loads
/// file.text(), and gives back each page of the mapping once the load has
/// read it, so the file is never resident in full (a page the load reads
/// again faults back in).
Status ParseNTriplesInto(const util::MappedFile& file, IncidenceSink* sink,
                         const ParseOptions& options = {});

/// Parses an N-Triples file from disk (read once into a single buffer).
Result<Graph> ParseNTriplesFile(const std::string& path,
                                const ParseOptions& options = {});

/// Reads a whole file into one string with a single size-stat'ed allocation.
/// Fails with kNotFound when the file cannot be opened, kInvalidArgument when
/// it is not a regular file (util::RegularFileSize), and kInternal on a short
/// read.
Result<std::string> ReadFileToString(const std::string& path);

/// Serializes a graph in N-Triples syntax (one triple per line, trailing " .").
std::string WriteNTriples(const Graph& graph);

/// Serializes a graph to a stream.
void WriteNTriples(const Graph& graph, std::ostream* out);

}  // namespace rdfsr::rdf

#endif  // RDFSR_RDF_NTRIPLES_H_
