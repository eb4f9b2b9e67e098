#include "rdf/ntriples.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/mapped_file.h"
#include "util/thread_pool.h"

namespace rdfsr::rdf {

namespace {

// Local early-return helper (kept file-private; not part of the public API).
#define RETURN_IF_ERROR(expr)                \
  do {                                       \
    ::rdfsr::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

/// The eight bytes at `p` as one word, byte 0 in the low bits.
std::uint64_t LoadWord(const char* p) {
  std::uint64_t word = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&word, p, sizeof(word));
  } else {
    for (int i = 7; i >= 0; --i) {
      word = (word << 8) | static_cast<unsigned char>(p[i]);
    }
  }
  return word;
}

/// Sets the high bit of every zero byte of `word`. Bits above the lowest
/// zero byte may be false positives (the borrow ripples up); the lowest set
/// bit is always exact.
constexpr std::uint64_t ZeroBytes(std::uint64_t word) {
  return (word - 0x0101010101010101ULL) & ~word & 0x8080808080808080ULL;
}

/// Index of the first byte at or after `pos` in `line` that equals one of
/// `Stops`, or line.size() when none does. Eight bytes per step: OR-ing the
/// zero-byte masks of (word ^ broadcast(stop)) keeps each stop's lowest hit
/// exact, so the lowest set bit of the union is the first stop byte. The
/// tail shorter than a word goes byte by byte.
template <char... Stops>
std::size_t ScanTo(std::string_view line, std::size_t pos) {
  const char* data = line.data();
  while (pos + 8 <= line.size()) {
    const std::uint64_t word = LoadWord(data + pos);
    const std::uint64_t hits =
        (ZeroBytes(word ^ (0x0101010101010101ULL *
                           static_cast<unsigned char>(Stops))) |
         ...);
    if (hits != 0) {
      return pos + static_cast<std::size_t>(std::countr_zero(hits)) / 8;
    }
    pos += 8;
  }
  while (pos < line.size() && ((data[pos] != Stops) && ...)) ++pos;
  return pos;
}

/// Cursor over a single N-Triples line, producing TermViews. Unescaped terms
/// view directly into the line; escaped forms decode into one of four scratch
/// buffers (subject, predicate, object lexical, object datatype) that are
/// reused across lines, so steady-state parsing does not allocate here.
/// Reusable: construct once, Reset() per line.
class LineParser {
 public:
  void Reset(std::string_view line, std::size_t line_no) {
    line_ = line;
    line_no_ = line_no;
    pos_ = 0;
    scratch_used_ = 0;
  }

  /// Parses the line's triple. `object_bytes` receives the object's
  /// spelling in the line when it has no escape, else an empty view.
  Status ParseTriple(TermView* s, TermView* p, TermView* o,
                     std::string_view* object_bytes) {
    SkipWs();
    RETURN_IF_ERROR(ParseSubject(s));
    SkipWs();
    RETURN_IF_ERROR(ParseIriTerm(p, "predicate"));
    SkipWs();
    const std::size_t object_start = pos_;
    const int scratch_before = scratch_used_;
    RETURN_IF_ERROR(ParseObject(o));
    *object_bytes = scratch_used_ == scratch_before
                        ? line_.substr(object_start, pos_ - object_start)
                        : std::string_view();
    SkipWs();
    if (!Consume('.')) return Error("expected '.' terminating triple");
    SkipWs();
    if (pos_ != line_.size() && line_[pos_] != '#') {
      return Error("trailing characters after '.'");
    }
    return Status::OK();
  }

 private:
  Status ParseSubject(TermView* out) {
    if (Peek() == '<') return ParseIriTerm(out, "subject");
    if (Peek() == '_') return ParseBlank(out);
    return Error("subject must be an IRI or blank node");
  }

  Status ParseObject(TermView* out) {
    if (Peek() == '<') return ParseIriTerm(out, "object");
    if (Peek() == '_') return ParseBlank(out);
    if (Peek() == '"') return ParseLiteral(out);
    return Error("object must be an IRI, blank node, or literal");
  }

  Status ParseIriTerm(TermView* out, const char* role) {
    if (!Consume('<')) {
      return Error(std::string("expected '<' starting ") + role);
    }
    const std::size_t start = pos_;
    std::string* scratch = nullptr;
    // Word-at-a-time to the first byte the loop below acts on; from an
    // escape on, the loop goes byte by byte.
    pos_ = ScanTo<'>', ' ', '\t', '\\'>(line_, pos_);
    while (pos_ < line_.size() && line_[pos_] != '>') {
      const char c = line_[pos_];
      if (c == ' ' || c == '\t') return Error("whitespace inside IRI");
      if (c == '\\') {
        // IRIs only allow \u / \U escapes.
        if (scratch == nullptr) {
          scratch = NewScratch();
          scratch->assign(line_.substr(start, pos_ - start));
        }
        ++pos_;  // consume the backslash; cursor sits on the escape letter
        RETURN_IF_ERROR(DecodeUnicodeEscape(scratch));
        continue;
      }
      if (scratch != nullptr) scratch->push_back(c);
      ++pos_;
    }
    if (!Consume('>')) return Error("unterminated IRI");
    const std::string_view iri =
        scratch != nullptr ? std::string_view(*scratch)
                           : line_.substr(start, pos_ - 1 - start);
    if (iri.empty()) return Error("empty IRI");
    *out = TermView(TermKind::kIri, iri);
    return Status::OK();
  }

  Status ParseBlank(TermView* out) {
    if (!Consume('_') || !Consume(':')) {
      return Error("expected '_:' starting blank node");
    }
    const std::size_t start = pos_;
    while (pos_ < line_.size() && !IsWs(line_[pos_]) && line_[pos_] != '.') {
      ++pos_;
    }
    const std::string_view label = line_.substr(start, pos_ - start);
    if (label.empty()) return Error("empty blank node label");
    *out = TermView(TermKind::kBlank, label);
    return Status::OK();
  }

  Status ParseLiteral(TermView* out) {
    if (!Consume('"')) return Error("expected '\"' starting literal");
    const std::size_t start = pos_;
    std::string* scratch = nullptr;
    bool closed = false;
    pos_ = ScanTo<'"', '\\'>(line_, pos_);  // as in ParseIriTerm
    while (pos_ < line_.size()) {
      const char c = line_[pos_];
      if (c == '"') {
        ++pos_;
        closed = true;
        break;
      }
      if (c == '\\') {
        if (scratch == nullptr) {
          scratch = NewScratch();
          scratch->assign(line_.substr(start, pos_ - start));
        }
        ++pos_;  // consume the backslash
        if (pos_ >= line_.size()) return Error("dangling escape in literal");
        const char e = line_[pos_];
        switch (e) {
          case 't':
            scratch->push_back('\t');
            ++pos_;
            break;
          case 'b':
            scratch->push_back('\b');
            ++pos_;
            break;
          case 'n':
            scratch->push_back('\n');
            ++pos_;
            break;
          case 'r':
            scratch->push_back('\r');
            ++pos_;
            break;
          case 'f':
            scratch->push_back('\f');
            ++pos_;
            break;
          case '"':
            scratch->push_back('"');
            ++pos_;
            break;
          case '\'':
            scratch->push_back('\'');
            ++pos_;
            break;
          case '\\':
            scratch->push_back('\\');
            ++pos_;
            break;
          case 'u':
          case 'U':
            // Cursor already sits on the escape letter.
            RETURN_IF_ERROR(DecodeUnicodeEscape(scratch));
            break;
          default:
            return Error(std::string("invalid escape '\\") + e + "'");
        }
        continue;
      }
      if (scratch != nullptr) scratch->push_back(c);
      ++pos_;
    }
    if (!closed) return Error("unterminated literal");
    const std::string_view lex =
        scratch != nullptr ? std::string_view(*scratch)
                           : line_.substr(start, pos_ - 1 - start);

    std::string_view lang, datatype;
    if (Peek() == '@') {
      ++pos_;
      const std::size_t lang_start = pos_;
      while (pos_ < line_.size() &&
             (std::isalnum(static_cast<unsigned char>(line_[pos_])) ||
              line_[pos_] == '-')) {
        ++pos_;
      }
      lang = line_.substr(lang_start, pos_ - lang_start);
      if (lang.empty()) return Error("empty language tag");
    } else if (Peek() == '^') {
      ++pos_;
      if (!Consume('^')) return Error("expected '^^' before datatype");
      TermView dt;
      RETURN_IF_ERROR(ParseIriTerm(&dt, "datatype"));
      datatype = dt.lexical;
    }
    *out = TermView(TermKind::kLiteral, lex, datatype, lang);
    return Status::OK();
  }

  /// Decodes \uXXXX or \UXXXXXXXX, appending UTF-8 to *out. The cursor must
  /// sit on the escape letter ('u' or 'U'); the backslash has already been
  /// consumed.
  Status DecodeUnicodeEscape(std::string* out) {
    if (pos_ >= line_.size()) return Error("dangling unicode escape");
    char kind = line_[pos_++];
    int digits = kind == 'u' ? 4 : kind == 'U' ? 8 : -1;
    if (digits < 0) return Error("invalid escape in IRI");
    if (pos_ + digits > line_.size()) return Error("truncated unicode escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < digits; ++i) {
      char c = line_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') {
        cp |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid hex digit in unicode escape");
      }
    }
    // Encode code point as UTF-8.
    if (cp <= 0x7f) {
      out->push_back(static_cast<char>(cp));
    } else if (cp <= 0x7ff) {
      out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp <= 0xffff) {
      out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else if (cp <= 0x10ffff) {
      out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
    } else {
      return Error("unicode escape out of range");
    }
    return Status::OK();
  }

  static bool IsWs(char c) { return c == ' ' || c == '\t' || c == '\r'; }
  void SkipWs() {
    while (pos_ < line_.size() && IsWs(line_[pos_])) ++pos_;
  }
  char Peek() const { return pos_ < line_.size() ? line_[pos_] : '\0'; }
  bool Consume(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError("line " + std::to_string(line_no_) + ": " + msg);
  }

  std::string* NewScratch() {
    RDFSR_CHECK_LT(scratch_used_, kMaxScratch);
    return &scratch_[scratch_used_++];
  }

  static constexpr int kMaxScratch = 4;  // subject, predicate, lexical, datatype

  std::string_view line_;
  std::size_t line_no_ = 0;
  std::size_t pos_ = 0;
  std::string scratch_[kMaxScratch];
  int scratch_used_ = 0;
};

/// The error of a tolerant parse past its budget; `last` is the message of
/// the (max_errors + 1)-th malformed line.
Status TooManyErrors(std::size_t max_errors, const std::string& last) {
  return Status::ParseError("too many parse errors (more than max_errors=" +
                            std::to_string(max_errors) + "); last: " + last);
}

/// Iterates the lines of `text`, invoking sink(s, p, o, object_bytes) per
/// triple (object_bytes as in LineParser::ParseTriple). Line
/// numbers are 1-based and offset by `first_line_no` (sharded chunks pass the
/// global number of their first line). Static dispatch on the sink keeps the
/// per-triple cost free of std::function indirection on the load hot path.
///
/// With max_errors > 0 the loop runs in skip-and-collect mode: malformed
/// lines are skipped and recorded in `diags` (when non-null; at most
/// max_errors entries) until the budget is exceeded, at which point the loop
/// aborts with kParseError. Every kCheckLines lines the cancel token is
/// polled (a trip unwinds with the sink's output so far intact) and, when
/// `file` maps `text`, the pages behind the cursor are given back.
template <typename Sink>
Status ParseLinesInto(std::string_view text, std::size_t first_line_no,
                      Sink&& sink, std::size_t max_errors = 0,
                      std::vector<ParseDiagnostic>* diags = nullptr,
                      const util::CancellationToken& cancel = {},
                      const util::MappedFile* file = nullptr) {
  constexpr std::size_t kCheckLines = 4096;
  LineParser parser;
  util::PeriodicCheck check(cancel, kCheckLines);
  std::size_t errors = 0;
  std::size_t line_no = first_line_no;
  std::size_t start = 0;
  std::size_t released = 0;  // text before this offset was given back
  while (start < text.size()) {
    if (check.ShouldStop()) return check.token().status();
    if (file != nullptr && (line_no - first_line_no) % kCheckLines == 0) {
      file->Release(text.data() + released, text.data() + start);
      released = start;
    }
    std::size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    const std::size_t current_line = line_no;
    ++line_no;
    start = end + 1;
    // Strip leading whitespace; skip blank lines and comment lines.
    std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string_view::npos) continue;
    if (line[first] == '#') continue;
    TermView s, p, o;
    std::string_view object_bytes;
    parser.Reset(line, current_line);
    Status st = parser.ParseTriple(&s, &p, &o, &object_bytes);
    if (!st.ok()) {
      if (max_errors == 0) return st;
      ++errors;
      if (errors > max_errors) return TooManyErrors(max_errors, st.message());
      if (diags != nullptr && diags->size() < max_errors) {
        diags->push_back(ParseDiagnostic{current_line, st.message()});
      }
      continue;
    }
    sink(s, p, o, object_bytes);
  }
  return Status::OK();
}

/// Splits [0, size) into up to `shards` chunks whose boundaries sit just
/// after a '\n', so no line straddles two chunks.
std::vector<std::pair<std::size_t, std::size_t>> SplitAtLines(
    std::string_view text, int shards) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  const std::size_t target = text.size() / static_cast<std::size_t>(shards);
  std::size_t begin = 0;
  for (int i = 0; i < shards && begin < text.size(); ++i) {
    std::size_t end = text.size();
    if (i + 1 < shards) {
      end = text.find('\n', std::min(text.size(), begin + target));
      end = end == std::string_view::npos ? text.size() : end + 1;
    }
    chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

/// Load into an incidence sink, at any thread count. Splits `text` at line
/// boundaries into `threads` chunks, numbers each chunk's first line, and
/// parses chunk i into a private loader on `options.pool`, else on a pool of
/// `threads` lanes (`threads - 1` workers plus this thread) that lives as
/// long as the call. Then folds the shard statuses and diagnostics in chunk
/// order and appends the loaders up to the first failing one to `loader`,
/// serially in chunk order (the first is moved, not copied). A shard's ids
/// and orders are first occurrences within its chunk, and chunk order is
/// byte order, so re-interning each shard's terms in id order gives the
/// one-chunk load exactly. At one lane the text is one chunk, parsed on this
/// thread by a pool of 0 workers.
///
/// When `file` maps `text`, every pass gives back the pages it has read, so
/// the file is never resident in full: the newline count a window at a
/// time, each shard behind its cursor and once done (only whole pages
/// inside its own chunk), and the fold each chunk once folded. Pages read
/// again (dedup compares, the fold's re-hash) fault back with the same
/// bytes, so the sink is the same as from the text alone.
Status ParseSharded(std::string_view text, const util::MappedFile* file,
                    int threads, const ParseOptions& options,
                    IncidenceSink::Loader* loader) {
  constexpr std::size_t kCountWindow = std::size_t{4} << 20;
  const auto release = [&](std::size_t begin, std::size_t end) {
    if (file != nullptr) file->Release(text.data() + begin, text.data() + end);
  };
  std::unique_ptr<util::ThreadPool> owned;
  util::ThreadPool* pool = options.pool;
  if (pool == nullptr) {
    owned = std::make_unique<util::ThreadPool>(threads - 1);
    pool = owned.get();
  }
  const auto chunks = SplitAtLines(text, threads);

  // Global line number of each chunk's first line: parallel per-chunk
  // newline counts (memchr speed, but serial it costs as much as a parse
  // shard on large inputs), then a serial prefix. The counts double as the
  // pre-size estimates of the shards and of the fold: lines bound triples.
  std::vector<std::size_t> chunk_lines(chunks.size());
  pool->ParallelFor(chunks.size(), [&](std::size_t cb, std::size_t ce) {
    for (std::size_t i = cb; i < ce; ++i) {
      const auto [begin, end] = chunks[i];
      for (std::size_t w = begin; w < end; w += kCountWindow) {
        const std::size_t w_end = std::min(end, w + kCountWindow);
        chunk_lines[i] += static_cast<std::size_t>(
            std::count(text.data() + w, text.data() + w_end, '\n'));
        release(w, w_end);
      }
    }
  });
  std::vector<std::size_t> first_line(chunks.size());
  std::size_t line = 1;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    first_line[i] = line;
    line += chunk_lines[i];
  }

  std::vector<IncidenceSink::Loader> shards(chunks.size());
  std::vector<Status> shard_status(chunks.size(), Status::OK());
  // Per-shard diagnostic lists carry global line numbers (first_line[i]
  // offsets) and double as the per-shard error counters; each shard gets the
  // full budget locally and the global total is re-checked in chunk order
  // below.
  std::vector<std::vector<ParseDiagnostic>> shard_diags(chunks.size());
  pool->ParallelFor(chunks.size(), [&](std::size_t cb, std::size_t ce) {
    for (std::size_t i = cb; i < ce; ++i) {
      const auto [begin, end] = chunks[i];
      IncidenceSink::Loader* local = &shards[i];
      // The shard's lines, a last one without a newline included; at one
      // chunk that is the fold's total, so the fold's Reserve is a no-op.
      local->Reserve(chunk_lines[i] + 1);
      shard_status[i] = ParseLinesInto(
          text.substr(begin, end - begin), first_line[i],
          [local](const TermView& s, const TermView& p, const TermView& o,
                  std::string_view object_bytes) {
            local->Add(s, p, o, object_bytes);
          },
          options.max_errors,
          options.max_errors > 0 ? &shard_diags[i] : nullptr, options.cancel,
          file);
      release(begin, end);
    }
  });

  // Fold in chunk order up to and including the first failing shard (lowest
  // line number), keeping the triples parsed before the error — same
  // partial-append semantics as ParseLinesInto itself. In tolerant mode the
  // global (max_errors + 1)-th malformed line fails the load wherever it
  // falls: among a shard's diagnostics when earlier shards used part of the
  // budget, else in the shard's own over-budget status.
  std::size_t merge_count = shards.size();
  Status result = Status::OK();
  std::size_t total_errors = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (options.max_errors > 0) {
      const std::size_t left = options.max_errors - total_errors;
      if (shard_diags[i].size() > left) {
        merge_count = i + 1;
        result =
            TooManyErrors(options.max_errors, shard_diags[i][left].message);
        break;
      }
      total_errors += shard_diags[i].size();
    }
    if (!shard_status[i].ok()) {
      merge_count = i + 1;
      result = shard_status[i];
      break;
    }
  }
  if (options.max_errors > 0 && options.diagnostics != nullptr) {
    // Chunk order == line order; bounded by max_errors even on failure.
    for (std::size_t i = 0; i < merge_count; ++i) {
      for (ParseDiagnostic& d : shard_diags[i]) {
        if (options.diagnostics->size() >= options.max_errors) break;
        options.diagnostics->push_back(std::move(d));
      }
    }
  }

  if (merge_count == 0) return result;
  *loader = std::move(shards[0]);
  loader->Reserve(line);
  release(chunks[0].first, chunks[0].second);
  for (std::size_t i = 1; i < merge_count; ++i) {
    Status st = loader->Append(&shards[i], options.cancel);
    release(chunks[i].first, chunks[i].second);
    if (!st.ok()) return st;
  }
  // The pages two chunks share, and those an earlier chunk's dedup compares
  // read back.
  release(0, text.size());
  return result;
}

/// ParseNTriplesInto into a sink, from text that `file` maps when non-null.
Status LoadSink(std::string_view text, const util::MappedFile* file,
                IncidenceSink* sink, const ParseOptions& options) {
  RDFSR_CHECK(sink != nullptr);
  IncidenceSink::Loader loader;
  const Status st = ParseSharded(
      text, file, EffectiveParseThreads(options, text.size()), options,
      &loader);
  *sink = loader.Finish();
  return st;
}

/// Line count of a large input, the pre-size estimate for a Graph parse
/// (lines bound the triples; distinct terms rarely exceed them, since
/// subjects and predicates repeat); 0 below 1 MiB, where growth is cheap.
std::size_t PresizeLines(std::string_view text) {
  if (text.size() < (1u << 20)) return 0;
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n') +
                                  1);
}

}  // namespace

int EffectiveParseThreads(const ParseOptions& options, std::size_t input_bytes) {
  int threads = util::ThreadPool::ResolveThreads(options.threads);
  if (threads > 1 && options.min_chunk_bytes > 0) {
    const std::size_t max_useful = input_bytes / options.min_chunk_bytes;
    if (static_cast<std::size_t>(threads) > max_useful) {
      threads = static_cast<int>(std::max<std::size_t>(max_useful, 1));
    }
  }
  return threads;
}

Status ParseNTriplesInto(std::string_view text, Graph* graph,
                         const ParseOptions& options) {
  RDFSR_CHECK(graph != nullptr);
  if (const std::size_t lines = PresizeLines(text); lines > 0) {
    graph->Reserve(lines, lines);
  }
  return ParseLinesInto(
      text, 1,
      [graph](const TermView& s, const TermView& p, const TermView& o,
              std::string_view) { graph->Add(s, p, o); },
      options.max_errors, options.diagnostics, options.cancel);
}

Status ParseNTriplesInto(std::string_view text, IncidenceSink* sink,
                         const ParseOptions& options) {
  return LoadSink(text, nullptr, sink, options);
}

Status ParseNTriplesInto(const util::MappedFile& file, IncidenceSink* sink,
                         const ParseOptions& options) {
  return LoadSink(file.text(), &file, sink, options);
}

Result<Graph> ParseNTriples(std::string_view text) {
  Graph g;
  Status st = ParseNTriplesInto(text, &g);
  if (!st.ok()) return st;
  return g;
}

Result<std::string> ReadFileToString(const std::string& path) {
  const Result<std::size_t> checked = util::RegularFileSize(path);
  if (!checked.ok()) return checked.status();
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    const int err = errno;
    return Status::NotFound("cannot open file: " + path + ": " +
                            (err != 0 ? std::strerror(err) : "open failed"));
  }
  const auto size = static_cast<std::streamoff>(*checked);
  std::string buf(*checked, '\0');
  if (size > 0 && !in.read(buf.data(), size)) {
    // gcount() says how far the read got before the stream failed — a
    // concurrent truncation must surface as an error, never as a silently
    // shorter graph.
    return Status::Internal(
        "short read on file: " + path + ": got " +
        std::to_string(in.gcount()) + " of " + std::to_string(size) +
        " bytes");
  }
  return buf;
}

Result<Graph> ParseNTriplesFile(const std::string& path,
                                const ParseOptions& options) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  Graph g;
  Status st = ParseNTriplesInto(*text, &g, options);
  if (!st.ok()) return st;
  return g;
}

void WriteNTriples(const Graph& graph, std::ostream* out) {
  RDFSR_CHECK(out != nullptr);
  const Dictionary& dict = graph.dict();
  for (const Triple& t : graph.triples()) {
    *out << dict.term(t.subject).ToString() << " "
         << dict.term(t.predicate).ToString() << " "
         << dict.term(t.object).ToString() << " .\n";
  }
}

std::string WriteNTriples(const Graph& graph) {
  std::ostringstream out;
  WriteNTriples(graph, &out);
  return out.str();
}

}  // namespace rdfsr::rdf
