// Unit tests for the N-Triples parser and writer, including escape handling,
// error reporting (failure injection), zero-copy parsing, and the sharded
// multi-threaded IncidenceSink load (chunk-boundary line splitting, global
// error line numbers and over-budget errors, bit-identical fold).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gen/random_graph.h"
#include "rdf/ntriples.h"
#include "sink_equality.h"

namespace rdfsr::rdf {
namespace {

using testutil::ExpectSinksIdentical;

/// The shard counts every sharded-load test runs at.
constexpr int kShardCounts[] = {2, 3, 4, 8, 16};

/// Synthetic multi-line input: `lines` triples with distinct subjects, a
/// shared predicate pool, and occasional comments/blanks.
std::string ManyLines(int lines) {
  std::string text;
  for (int i = 0; i < lines; ++i) {
    if (i % 17 == 0) text += "# comment " + std::to_string(i) + "\n";
    if (i % 23 == 0) text += "\n";
    text += "<http://x/s" + std::to_string(i % 37) + "> <http://x/p" +
            std::to_string(i % 5) + "> \"value " + std::to_string(i) +
            "\" .\n";
  }
  return text;
}

/// Asserts two graphs are bit-identical: same dictionary contents in the same
/// id order and the same triple id sequence.
void ExpectGraphsIdentical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.dict().size(), b.dict().size());
  for (TermId id = 0; id < a.dict().size(); ++id) {
    EXPECT_EQ(a.dict().term(id), b.dict().term(id)) << "term id " << id;
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.triples()[i].subject, b.triples()[i].subject) << "triple " << i;
    EXPECT_EQ(a.triples()[i].predicate, b.triples()[i].predicate)
        << "triple " << i;
    EXPECT_EQ(a.triples()[i].object, b.triples()[i].object) << "triple " << i;
  }
}

TEST(NTriplesTest, ParsesIriTriple) {
  auto g = ParseNTriples("<http://x/s> <http://x/p> <http://x/o> .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 1u);
}

TEST(NTriplesTest, ParsesLiteralForms) {
  const char* text =
      "<s> <p> \"plain\" .\n"
      "<s> <p> \"tagged\"@en-GB .\n"
      "<s> <p> \"5\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n";
  auto g = ParseNTriples(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 3u);
}

TEST(NTriplesTest, ParsesBlankNodes) {
  auto g = ParseNTriples("_:a <p> _:b .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 1u);
  EXPECT_TRUE(g->dict().term(g->triples()[0].subject).is_blank());
}

TEST(NTriplesTest, SkipsCommentsAndBlankLines) {
  const char* text =
      "# a comment\n"
      "\n"
      "   \n"
      "<s> <p> <o> . # trailing comment\n";
  auto g = ParseNTriples(text);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->size(), 1u);
}

TEST(NTriplesTest, DecodesStringEscapes) {
  auto g = ParseNTriples("<s> <p> \"a\\tb\\nc\\\"d\\\\e\" .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Term& o = g->dict().term(g->triples()[0].object);
  EXPECT_EQ(o.lexical, "a\tb\nc\"d\\e");
}

TEST(NTriplesTest, DecodesUnicodeEscapes) {
  auto g = ParseNTriples("<s> <p> \"\\u00e9\\U0001F600\" .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  const Term& o = g->dict().term(g->triples()[0].object);
  EXPECT_EQ(o.lexical, "\xc3\xa9\xf0\x9f\x98\x80");  // é + 😀 in UTF-8
}

TEST(NTriplesTest, ErrorsCarryLineNumbers) {
  auto g = ParseNTriples("<s> <p> <o> .\nnot a triple\n");
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("line 2"), std::string::npos);
}

TEST(NTriplesTest, RejectsMissingDot) {
  EXPECT_FALSE(ParseNTriples("<s> <p> <o>\n").ok());
}

TEST(NTriplesTest, RejectsLiteralSubject) {
  EXPECT_FALSE(ParseNTriples("\"lit\" <p> <o> .\n").ok());
}

TEST(NTriplesTest, RejectsUnterminatedIri) {
  EXPECT_FALSE(ParseNTriples("<s <p> <o> .\n").ok());
}

TEST(NTriplesTest, RejectsUnterminatedLiteral) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"abc .\n").ok());
}

TEST(NTriplesTest, RejectsBadEscape) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"a\\qb\" .\n").ok());
}

TEST(NTriplesTest, RejectsTruncatedUnicode) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"\\u00\" .\n").ok());
}

TEST(NTriplesTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseNTriples("<s> <p> <o> . extra\n").ok());
}

TEST(NTriplesTest, RejectsEmptyLanguageTag) {
  EXPECT_FALSE(ParseNTriples("<s> <p> \"x\"@ .\n").ok());
}

// --- The word-at-a-time scanner ----------------------------------------------
// IRIs and literals are scanned eight bytes at a time up to their first stop
// byte; escapes and errors fall back to the byte loop. These cases put every
// stop byte at every offset of terms of every length from 0 to 40 (so the
// stop lands in each lane of a word and in the byte tail), behind a leading
// pad that shifts the term's start, and check the exact terms or the exact
// error message with its line number.

/// The triples of `text` as owning terms, or the parse error.
struct Parsed {
  Status status;
  std::vector<std::vector<Term>> triples;
};

Parsed ParseAll(std::string_view text) {
  Parsed out;
  Graph graph;
  out.status = ParseNTriplesInto(text, &graph);
  const Dictionary& dict = graph.dict();
  for (const Triple& t : graph.triples()) {
    out.triples.push_back(
        {dict.term(t.subject), dict.term(t.predicate), dict.term(t.object)});
  }
  return out;
}

/// `len` bytes cycling through letters and digits: no stop byte, and no two
/// nearby offsets alike.
std::string Body(std::size_t len) {
  static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789";
  std::string body;
  for (std::size_t i = 0; i < len; ++i) body.push_back(kChars[i % 36]);
  return body;
}

/// Every case sits on line 3, behind a comment, a blank line and a pad of
/// 0-7 spaces that moves where the terms start relative to a word.
std::string OnLine3(const std::string& triple, std::size_t pad) {
  return "# scanner case\n\n" + std::string(pad % 8, ' ') + triple + "\n";
}

/// Expects `text` to parse to exactly the one triple (s, p, o).
void ExpectOneTriple(const std::string& text, const Term& s, const Term& p,
                     const Term& o) {
  const Parsed r = ParseAll(text);
  ASSERT_TRUE(r.status.ok()) << r.status.ToString() << " in: " << text;
  ASSERT_EQ(r.triples.size(), 1u) << text;
  EXPECT_EQ(r.triples[0][0], s) << text;
  EXPECT_EQ(r.triples[0][1], p) << text;
  EXPECT_EQ(r.triples[0][2], o) << text;
}

/// Expects `text` to fail with exactly "line 3: <message>".
void ExpectLine3Error(const std::string& text, const std::string& message) {
  const Parsed r = ParseAll(text);
  ASSERT_FALSE(r.status.ok()) << text;
  EXPECT_EQ(r.status.code(), StatusCode::kParseError) << text;
  EXPECT_EQ(r.status.message(), "line 3: " + message) << text;
}

TEST(NTriplesScannerTest, IrisOfEveryLengthInEveryPosition) {
  for (std::size_t len = 0; len <= 40; ++len) {
    const std::string body = Body(len);
    const std::string iri = "<" + body + ">";
    const std::string text = OnLine3(iri + " " + iri + " " + iri + " .", len);
    if (len == 0) {
      ExpectLine3Error(text, "empty IRI");
      continue;
    }
    ExpectOneTriple(text, Term::Iri(body), Term::Iri(body), Term::Iri(body));
  }
}

TEST(NTriplesScannerTest, IriStopBytesAtEveryOffset) {
  const Term s = Term::Iri("s");
  const Term p = Term::Iri("p");
  for (std::size_t len = 1; len <= 40; ++len) {
    const std::string body = Body(len);
    for (std::size_t k = 0; k < len; ++k) {
      SCOPED_TRACE("length " + std::to_string(len) + ", offset " +
                   std::to_string(k));
      std::string with = body;
      // '>' ends the IRI at k; the rest of the body is left over.
      with[k] = '>';
      const std::string cut = OnLine3("<s> <p> <" + with + "> .", k);
      if (k == 0) {
        ExpectLine3Error(cut, "empty IRI");
      } else {
        ExpectLine3Error(cut, "expected '.' terminating triple");
      }
      // Whitespace inside an IRI is an error, in every position.
      for (const char ws : {' ', '\t'}) {
        with[k] = ws;
        ExpectLine3Error(OnLine3("<s> <p> <" + with + "> .", k),
                         "whitespace inside IRI");
        ExpectLine3Error(OnLine3("<" + with + "> <p> <o> .", k),
                         "whitespace inside IRI");
      }
      // A quote is an ordinary IRI byte here.
      with[k] = '"';
      ExpectOneTriple(OnLine3("<s> <p> <" + with + "> .", k), s, p,
                      Term::Iri(with));
      // An escape at k: the byte loop takes over and decodes it.
      const std::string escaped =
          body.substr(0, k) + "\\u0041" + body.substr(k + 1);
      std::string decoded = body;
      decoded[k] = 'A';
      ExpectOneTriple(OnLine3("<s> <" + escaped + "> <" + escaped + "> .", k),
                      s, Term::Iri(decoded), Term::Iri(decoded));
    }
  }
}

TEST(NTriplesScannerTest, LiteralStopBytesAtEveryOffset) {
  const Term s = Term::Iri("s");
  const Term p = Term::Iri("p");
  for (std::size_t len = 0; len <= 40; ++len) {
    const std::string body = Body(len);
    ExpectOneTriple(OnLine3("<s> <p> \"" + body + "\" .", len), s, p,
                    Term::Literal(body));
    ExpectOneTriple(OnLine3("<s> <p> \"" + body + "\"@en-GB .", len), s, p,
                    Term::Literal(body, "", "en-GB"));
    ExpectOneTriple(OnLine3("<s> <p> \"" + body + "\"^^<" + body + "x> .", len),
                    s, p, Term::Literal(body, body + "x"));
    for (std::size_t k = 0; k < len; ++k) {
      SCOPED_TRACE("length " + std::to_string(len) + ", offset " +
                   std::to_string(k));
      std::string with = body;
      // A quote ends the literal at k; the rest of the body is left over.
      with[k] = '"';
      ExpectLine3Error(OnLine3("<s> <p> \"" + with + "\" .", k),
                       "expected '.' terminating triple");
      // IRI stop bytes are ordinary literal bytes.
      for (const char c : {'>', ' ', '\t'}) {
        with[k] = c;
        ExpectOneTriple(OnLine3("<s> <p> \"" + with + "\" .", k), s, p,
                        Term::Literal(with));
      }
      // Escapes at k, one byte and multi-byte, decoded by the byte loop.
      std::string decoded = body;
      decoded[k] = '"';
      ExpectOneTriple(
          OnLine3("<s> <p> \"" + body.substr(0, k) + "\\\"" +
                      body.substr(k + 1) + "\" .",
                  k),
          s, p, Term::Literal(decoded));
      decoded[k] = '\\';
      ExpectOneTriple(
          OnLine3("<s> <p> \"" + body.substr(0, k) + "\\\\" +
                      body.substr(k + 1) + "\" .",
                  k),
          s, p, Term::Literal(decoded));
    }
  }
}

TEST(NTriplesScannerTest, EscapesStraddlingWordBoundaries) {
  // A 6- or 10-byte escape starting at every offset of a 40-byte term
  // crosses every word boundary; the bytes after it go through the byte
  // loop and must decode unchanged.
  const std::string body = Body(40);
  const Term s = Term::Iri("s");
  const Term p = Term::Iri("p");
  for (std::size_t k = 0; k <= body.size(); ++k) {
    SCOPED_TRACE("offset " + std::to_string(k));
    const std::string head = body.substr(0, k);
    const std::string tail = body.substr(k);
    ExpectOneTriple(
        OnLine3("<s> <p> \"" + head + "\\u00e9" + tail + "\" .", k), s, p,
        Term::Literal(head + "\xc3\xa9" + tail));
    ExpectOneTriple(
        OnLine3("<s> <p> \"" + head + "\\U0001F600\\t" + tail + "\" .", k),
        s, p, Term::Literal(head + "\xf0\x9f\x98\x80\t" + tail));
    ExpectOneTriple(
        OnLine3("<s> <p> <" + head + "\\u00e9" + tail + "> .", k), s, p,
        Term::Iri(head + "\xc3\xa9" + tail));
    // After an escape, an IRI still rejects whitespace.
    ExpectLine3Error(
        OnLine3("<s> <p> <" + head + "\\u00e9 " + tail + "> .", k),
        "whitespace inside IRI");
  }
}

TEST(NTriplesScannerTest, UnterminatedTermsOfEveryLength) {
  for (std::size_t len = 0; len <= 40; ++len) {
    SCOPED_TRACE("length " + std::to_string(len));
    const std::string body = Body(len);
    ExpectLine3Error(OnLine3("<s> <p> <" + body, len), "unterminated IRI");
    ExpectLine3Error(OnLine3("<" + body, len), "unterminated IRI");
    ExpectLine3Error(OnLine3("<s> <p> \"" + body, len),
                     "unterminated literal");
    ExpectLine3Error(OnLine3("<s> <p> \"" + body + "\\", len),
                     "dangling escape in literal");
    ExpectLine3Error(OnLine3("<s> <p> <" + body + "\\", len),
                     "dangling unicode escape");
    ExpectLine3Error(OnLine3("<s> <p> \"" + body + "\\u00", len),
                     "truncated unicode escape");
    ExpectLine3Error(OnLine3("<s> <p> \"" + body + "\\q\" .", len),
                     "invalid escape '\\q'");
  }
}

TEST(NTriplesTest, WriterRoundTrips) {
  const char* text =
      "<http://x/s> <http://x/p> \"a\\tb \\\"q\\\" \\\\z\"@en .\n"
      "<http://x/s> <http://x/p2> \"5\"^^<http://x/int> .\n"
      "_:b <http://x/p> <http://x/o> .\n";
  auto g1 = ParseNTriples(text);
  ASSERT_TRUE(g1.ok()) << g1.status().ToString();
  const std::string serialized = WriteNTriples(*g1);
  auto g2 = ParseNTriples(serialized);
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  ASSERT_EQ(g1->size(), g2->size());
  // Compare term-level content triple by triple.
  for (std::size_t i = 0; i < g1->size(); ++i) {
    const Triple& t1 = g1->triples()[i];
    const Triple& t2 = g2->triples()[i];
    EXPECT_EQ(g1->dict().term(t1.subject), g2->dict().term(t2.subject));
    EXPECT_EQ(g1->dict().term(t1.predicate), g2->dict().term(t2.predicate));
    EXPECT_EQ(g1->dict().term(t1.object), g2->dict().term(t2.object));
  }
}

TEST(NTriplesTest, ParseIntoAppends) {
  Graph g;
  ASSERT_TRUE(ParseNTriplesInto("<s> <p> <o> .\n", &g).ok());
  ASSERT_TRUE(ParseNTriplesInto("<s2> <p> <o> .\n", &g).ok());
  EXPECT_EQ(g.size(), 2u);
}

TEST(NTriplesTest, MissingFileIsNotFound) {
  auto g = ParseNTriplesFile("/nonexistent/path.nt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST(NTriplesTest, ReadFileToStringSingleBuffer) {
  const std::string path = ::testing::TempDir() + "ntriples_read_once.nt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("<http://x/s> <http://x/p> \"v\" .\n", f);
    std::fclose(f);
  }
  auto text = ReadFileToString(path);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*text, "<http://x/s> <http://x/p> \"v\" .\n");
  auto graph = ParseNTriplesFile(path);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  ExpectGraphsIdentical(*graph, *ParseNTriples(*text));
  std::remove(path.c_str());
}

/// Loads `text` into `sink` on `threads` shards (chunks of at least one
/// byte, so tiny inputs reach that many), with `options`' other knobs.
Status LoadSharded(std::string_view text, int threads, IncidenceSink* sink,
                   ParseOptions options = {}) {
  options.threads = threads;
  options.min_chunk_bytes = 1;
  return ParseNTriplesInto(text, sink, options);
}

TEST(NTriplesTest, ShardedParseMatchesSequentialBitForBit) {
  const std::string text = ManyLines(500);
  IncidenceSink sequential;
  ASSERT_TRUE(ParseNTriplesInto(text, &sequential).ok());
  // A load replaces what the sink held: this prefix shares subjects,
  // predicates and whole triples with `text`.
  const std::string prefix =
      ManyLines(40) + "<http://x/new> <http://x/p0> \"value 3\" .\n";
  for (const int threads : kShardCounts) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    IncidenceSink sharded;
    ASSERT_TRUE(LoadSharded(text, threads, &sharded).ok());
    ExpectSinksIdentical(sharded, sequential);

    IncidenceSink reloaded;
    ASSERT_TRUE(ParseNTriplesInto(prefix, &reloaded).ok());
    ASSERT_TRUE(LoadSharded(text, threads, &reloaded).ok());
    ExpectSinksIdentical(reloaded, sequential);
  }
}

TEST(NTriplesTest, ShardedParseHandlesChunkBoundaryLines) {
  // With min_chunk_bytes = 1 and many threads, chunk boundaries land inside
  // the line stream; every split must snap to a line boundary so no triple is
  // lost or torn.
  const std::string text = ManyLines(64);
  IncidenceSink sequential;
  ASSERT_TRUE(ParseNTriplesInto(text, &sequential).ok());
  for (const int threads : kShardCounts) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    IncidenceSink sharded;
    ASSERT_TRUE(LoadSharded(text, threads, &sharded).ok());
    ExpectSinksIdentical(sharded, sequential);
  }
}

/// Expects every sharded load of `text` to fail with the sequential load's
/// exact status and to keep exactly its triples: those before the failing
/// line. Returns the sequential status.
Status ExpectShardedStrictFailureMatches(const std::string& text) {
  IncidenceSink sequential;
  const Status want = ParseNTriplesInto(text, &sequential);
  EXPECT_FALSE(want.ok());
  for (const int threads : kShardCounts) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    IncidenceSink sharded;
    EXPECT_EQ(LoadSharded(text, threads, &sharded).ToString(), want.ToString());
    ExpectSinksIdentical(sharded, sequential);
  }
  return want;
}

TEST(NTriplesTest, ShardedParseReportsGlobalErrorLine) {
  // Place the bad line deep enough that it falls in a later chunk; the error
  // must carry the global line number, not the chunk-local one.
  std::string text = ManyLines(200);
  const std::size_t lines_before =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  text += "this is not a triple\n";
  text += ManyLines(10);
  const Status st = ExpectShardedStrictFailureMatches(text);
  EXPECT_NE(st.message().find("line " + std::to_string(lines_before + 1)),
            std::string::npos)
      << st.ToString();
}

TEST(NTriplesTest, ShardedParseReportsEarliestError) {
  // Errors in several chunks: the reported error must be the first one in
  // line order, matching sequential semantics.
  std::string text = ManyLines(50);
  const std::size_t first_bad =
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  text += "bad line one\n";
  text += ManyLines(100);
  text += "bad line two\n";
  const Status st = ExpectShardedStrictFailureMatches(text);
  EXPECT_NE(st.message().find("line " + std::to_string(first_bad)),
            std::string::npos)
      << st.ToString();
}

TEST(NTriplesTest, RandomGraphsIdenticalAcrossThreadCounts) {
  // The contract is bit-identity for *any* thread count, including counts
  // above the hardware concurrency. Random generator graphs exercise the
  // messy shapes (blank nodes, duplicate triples, rdf:type postings,
  // literals with datatypes) that the ManyLines tests above do not.
  for (const std::uint64_t seed : {2u, 9u, 31u}) {
    gen::RandomGraphSpec spec;
    spec.num_subjects = 120;
    spec.num_properties = 10;
    spec.num_sorts = 2;
    spec.seed = seed;
    const std::string text = WriteNTriples(gen::GenerateRandomGraph(spec));
    IncidenceSink sequential;
    ASSERT_TRUE(ParseNTriplesInto(text, &sequential).ok());
    for (const int threads : kShardCounts) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                   std::to_string(threads));
      IncidenceSink sharded;
      ASSERT_TRUE(LoadSharded(text, threads, &sharded).ok());
      ExpectSinksIdentical(sharded, sequential);
    }
  }
}

/// Interleaves `text`'s lines with `bad` malformed lines at fixed intervals,
/// returning the dirty text and the 1-based global line numbers of the bad
/// lines.
std::string Dirty(const std::string& text, int every,
                  std::vector<std::size_t>* bad_lines) {
  std::string out;
  std::size_t line_no = 0;
  int countdown = every;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol + 1;
    if (--countdown == 0) {
      out += "not a triple at all\n";
      bad_lines->push_back(++line_no);
      countdown = every;
    }
    out.append(text, pos, end - pos);
    ++line_no;
    pos = end;
  }
  return out;
}

TEST(NTriplesTest, TolerantParseSkipsBadLinesBitIdentical) {
  const std::string clean = ManyLines(120);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 13, &bad_lines);
  ASSERT_FALSE(bad_lines.empty());

  Graph expected;
  ASSERT_TRUE(ParseNTriplesInto(clean, &expected).ok());

  ParseOptions options;
  options.max_errors = bad_lines.size();
  std::vector<ParseDiagnostic> diags;
  options.diagnostics = &diags;
  Graph tolerant;
  Status st = ParseNTriplesInto(dirty, &tolerant, options);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectGraphsIdentical(tolerant, expected);
  ASSERT_EQ(diags.size(), bad_lines.size());
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].line, bad_lines[i]) << "diagnostic " << i;
    EXPECT_FALSE(diags[i].message.empty());
  }
}

TEST(NTriplesTest, TolerantParseFailsPastBudget) {
  const std::string clean = ManyLines(60);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 7, &bad_lines);
  ASSERT_GT(bad_lines.size(), 2u);

  ParseOptions options;
  options.max_errors = 2;  // fewer than the bad lines present
  std::vector<ParseDiagnostic> diags;
  options.diagnostics = &diags;
  Graph g;
  Status st = ParseNTriplesInto(dirty, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("max_errors"), std::string::npos)
      << st.ToString();
  // Diagnostics stay bounded by the budget even on failure.
  EXPECT_LE(diags.size(), options.max_errors);
}

TEST(NTriplesTest, TolerantShardedParseMatchesSequentialWithGlobalLines) {
  const std::string clean = ManyLines(400);
  std::vector<std::size_t> bad_lines;
  const std::string dirty = Dirty(clean, 31, &bad_lines);
  ASSERT_FALSE(bad_lines.empty());

  IncidenceSink expected;
  ASSERT_TRUE(ParseNTriplesInto(clean, &expected).ok());

  for (const int threads : kShardCounts) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ParseOptions options;
    options.max_errors = bad_lines.size();
    std::vector<ParseDiagnostic> diags;
    options.diagnostics = &diags;
    IncidenceSink tolerant;
    Status st = LoadSharded(dirty, threads, &tolerant, options);
    ASSERT_TRUE(st.ok()) << st.ToString();
    ExpectSinksIdentical(tolerant, expected);
    // Global line numbers in input order, exactly as the sequential parse
    // reports them.
    ASSERT_EQ(diags.size(), bad_lines.size());
    for (std::size_t i = 0; i < diags.size(); ++i) {
      EXPECT_EQ(diags[i].line, bad_lines[i]) << "diagnostic " << i;
    }
  }
}

TEST(NTriplesTest, TolerantShardedParseFailsPastBudget) {
  // Past the budget every shard count names the same line as the
  // sequential load: the input's (max_errors + 1)-th malformed one, whether
  // it tips a shard over locally or only with the errors of earlier shards.
  // The second input has few bad lines in its first half and many in its
  // second, so on two shards the second shard fails on its own budget
  // after the first used part of the global one.
  std::vector<std::size_t> bad_lines, unused;
  const std::string even = Dirty(ManyLines(200), 11, &bad_lines);
  const std::string skewed =
      Dirty(ManyLines(150), 60, &unused) + Dirty(ManyLines(150), 5, &unused);
  for (const std::string* text : {&even, &skewed}) {
    ParseOptions options;
    options.max_errors = 3;
    std::vector<ParseDiagnostic> want_diags;
    options.diagnostics = &want_diags;
    IncidenceSink sequential;
    const Status want = ParseNTriplesInto(*text, &sequential, options);
    ASSERT_EQ(want.code(), StatusCode::kParseError) << want.ToString();
    ASSERT_EQ(want_diags.size(), options.max_errors);
    if (text == &even) {
      EXPECT_NE(want.message().find("; last: line " +
                                    std::to_string(bad_lines[3]) + ": "),
                std::string::npos)
          << want.ToString();
    }
    for (const int threads : kShardCounts) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      std::vector<ParseDiagnostic> diags;
      options.diagnostics = &diags;
      IncidenceSink sharded;
      EXPECT_EQ(LoadSharded(*text, threads, &sharded, options).ToString(),
                want.ToString());
      ASSERT_EQ(diags.size(), want_diags.size());
      for (std::size_t i = 0; i < diags.size(); ++i) {
        EXPECT_EQ(diags[i].line, want_diags[i].line) << "diagnostic " << i;
        EXPECT_EQ(diags[i].message, want_diags[i].message)
            << "diagnostic " << i;
      }
      // The kept prefix depends on the sharding; it must be coherent.
      sharded.CheckInvariants();
    }
  }
}

TEST(NTriplesTest, ReadFileDirectoryIsInvalidArgument) {
  auto text = ReadFileToString(::testing::TempDir());
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(text.status().message().find("directory"), std::string::npos)
      << text.status().ToString();
}

TEST(NTriplesTest, ReadFileNotRegularIsInvalidArgument) {
  // A FIFO with no writer would block in open, and it and a device report
  // size 0: both are rejected from the stat, naming the path.
  const std::string fifo = ::testing::TempDir() + "ntriples_read.fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::string& path : {fifo, std::string("/dev/null")}) {
    SCOPED_TRACE(path);
    auto text = ReadFileToString(path);
    ASSERT_FALSE(text.ok());
    EXPECT_EQ(text.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(text.status().message().find(path), std::string::npos)
        << text.status().ToString();
  }
  std::remove(fifo.c_str());
}

TEST(NTriplesTest, MissingFileErrorNamesPath) {
  auto g = ParseNTriplesFile("/no/such/dir/missing.nt");
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
  EXPECT_NE(g.status().message().find("/no/such/dir/missing.nt"),
            std::string::npos)
      << g.status().ToString();
}

TEST(NTriplesTest, CancelledParseKeepsValidPrefix) {
  // Large enough that the parser's stride-4096 checkpoint actually samples
  // the token.
  const std::string text = ManyLines(10000);
  util::Deadline deadline = util::Deadline::Cancellable();
  deadline.RequestCancel();
  ParseOptions options;
  options.cancel = deadline.token();
  Graph g;
  Status st = ParseNTriplesInto(text, &g, options);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // Whatever prefix was parsed must be a coherent graph.
  g.CheckInvariants();
}

}  // namespace
}  // namespace rdfsr::rdf
