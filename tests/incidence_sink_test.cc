// Differential tests for the façade's load path: N-Triples text parsed into
// an rdf::IncidenceSink must give what parsing into an rdf::Graph and
// running IndexBuilder over it gives — the whole-graph index, every sort
// slice's index and triple count, num_triples, the sort constants, and the
// max_errors diagnostics and error status — and the sink loaded on 2, 4 and
// 8 shards must come out bit-identical to the sequential one, with the same
// diagnostics and status. api::Dataset over the same text must agree too
// (num_triples, SortIris, index, Slice), and so must a load of the same
// bytes from a file, which parses a mapping and gives back its pages as it
// goes. The inputs cover generator graphs and the object spellings the
// sink's byte-level dedup must get right.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "api/rdfsr.h"
#include "gen/persons.h"
#include "gen/random_graph.h"
#include "gen/wordnet.h"
#include "rdf/incidence_sink.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "schema/index_builder.h"
#include "sink_equality.h"
#include "util/deadline.h"
#include "util/mapped_file.h"

namespace rdfsr::rdf {
namespace {

using testutil::ExpectSinksIdentical;

const std::string kType = std::string("<").append(vocab::kRdfType).append(">");

/// Options for a load on `threads` shards (one for a Graph parse).
ParseOptions LoadOptions(int threads, std::size_t max_errors = 0,
                         std::vector<ParseDiagnostic>* diagnostics = nullptr) {
  ParseOptions options;
  options.threads = threads;
  options.min_chunk_bytes = 1;  // reach `threads` shards on tiny inputs
  options.max_errors = max_errors;
  options.diagnostics = diagnostics;
  return options;
}

/// Same columns, signatures, and subject -> signature map (over `subjects`).
void ExpectSameIndex(const schema::SignatureIndex& got,
                     const schema::SignatureIndex& want,
                     const std::vector<std::string>& subjects) {
  EXPECT_EQ(got.property_names(), want.property_names());
  ASSERT_EQ(got.num_signatures(), want.num_signatures());
  for (std::size_t i = 0; i < got.num_signatures(); ++i) {
    EXPECT_EQ(got.signature(i).count, want.signature(i).count) << "sig " << i;
    EXPECT_EQ(got.signature(i).support(), want.signature(i).support())
        << "sig " << i;
  }
  for (const std::string& name : subjects) {
    EXPECT_EQ(got.FindSubjectSignature(name), want.FindSubjectSignature(name))
        << "subject " << name;
  }
}

/// The lexical forms of a store's sort constants, in order.
std::vector<std::string> SortLexicals(const Dictionary& dict,
                                      const std::vector<TermId>& sorts) {
  std::vector<std::string> out;
  for (TermId id : sorts) out.push_back(dict.term(id).lexical);
  return out;
}

/// Loads `text` into a sink at 1, 2, 4 and 8 shards. Every load must fail
/// or succeed with the status and diagnostics of a graph parsed with the
/// same options. The sequential sink must match the graph (when the parse
/// succeeds), and every sharded sink that loads must be identical to it (a
/// failed load may keep a prefix that depends on the sharding). Returns the
/// sequential sink's triple count.
std::size_t ExpectSinkMatchesGraph(const std::string& text,
                                   std::size_t max_errors = 0) {
  std::vector<ParseDiagnostic> graph_diags;
  Graph graph;
  const Status graph_st =
      ParseNTriplesInto(text, &graph, LoadOptions(1, max_errors, &graph_diags));
  IncidenceSink sequential;
  for (const int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " shard(s)");
    std::vector<ParseDiagnostic> sink_diags;
    IncidenceSink sink;
    const Status sink_st = ParseNTriplesInto(
        text, &sink, LoadOptions(threads, max_errors, &sink_diags));
    EXPECT_EQ(sink_st.ToString(), graph_st.ToString());
    EXPECT_EQ(sink_diags.size(), graph_diags.size());
    for (std::size_t i = 0;
         i < std::min(sink_diags.size(), graph_diags.size()); ++i) {
      EXPECT_EQ(sink_diags[i].line, graph_diags[i].line);
      EXPECT_EQ(sink_diags[i].message, graph_diags[i].message);
    }
    if (threads == 1) {
      sequential = std::move(sink);
    } else if (sink_st.ok()) {
      ExpectSinksIdentical(sink, sequential);
    }
  }
  if (!graph_st.ok()) return sequential.size();
  sequential.CheckInvariants();
  EXPECT_EQ(sequential.size(), graph.size());

  std::vector<std::string> subjects;
  for (TermId s : graph.subjects()) {
    subjects.push_back(graph.dict().term(s).lexical);
  }
  ExpectSameIndex(schema::IndexBuilder::FromGraph(sequential),
                  schema::IndexBuilder::FromGraph(graph), subjects);
  const std::vector<std::string> sorts =
      SortLexicals(graph.dict(), graph.SortConstants());
  EXPECT_EQ(SortLexicals(sequential.dict(), sequential.SortConstants()), sorts);
  for (const std::string& sort : sorts) {
    std::size_t sink_slice = 0, graph_slice = 0;
    ExpectSameIndex(schema::IndexBuilder::FromSortSlice(sequential, sort, true,
                                                        &sink_slice),
                    schema::IndexBuilder::FromSortSlice(graph, sort, true,
                                                        &graph_slice),
                    subjects);
    EXPECT_EQ(sink_slice, graph_slice) << "sort " << sort;
  }
  return sequential.size();
}

/// The façade over the same text: num_triples, SortIris, the index, and
/// every sort's Slice must equal IndexBuilder over the parsed graph.
void ExpectDatasetMatchesGraph(const std::string& text) {
  auto graph = ParseNTriples(text);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  auto dataset = api::Dataset::FromNTriplesText(text);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  std::vector<std::string> subjects;
  for (TermId s : graph->subjects()) {
    subjects.push_back(graph->dict().term(s).lexical);
  }
  EXPECT_EQ(dataset->num_triples(), graph->size());
  const std::vector<std::string> sorts =
      SortLexicals(graph->dict(), graph->SortConstants());
  EXPECT_EQ(dataset->SortIris(), sorts);
  ExpectSameIndex(dataset->index(), schema::IndexBuilder::FromGraph(*graph),
                  subjects);
  for (const std::string& sort : sorts) {
    std::size_t slice_triples = 0;
    const schema::SignatureIndex want = schema::IndexBuilder::FromSortSlice(
        *graph, sort, true, &slice_triples);
    auto slice = dataset->Slice(sort);
    if (slice_triples == 0) {
      EXPECT_EQ(slice.status().code(), StatusCode::kNotFound) << sort;
      continue;
    }
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    EXPECT_EQ(slice->num_triples(), slice_triples) << sort;
    ExpectSameIndex(slice->index(), want, subjects);
  }
}

TEST(IncidenceSinkTest, GeneratorGraphsMatchTheGraphPath) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    gen::RandomGraphSpec spec;
    spec.num_subjects = 60;
    spec.seed = seed;
    const Graph random = gen::GenerateRandomGraph(spec);
    const std::string text = WriteNTriples(random);
    EXPECT_EQ(ExpectSinkMatchesGraph(text), random.size());
    ExpectDatasetMatchesGraph(text);
  }
  gen::PersonsConfig persons;
  persons.num_subjects = 300;
  ExpectSinkMatchesGraph(WriteNTriples(gen::GeneratePersonsGraph(persons)));
  gen::WordnetConfig wordnet;
  wordnet.num_subjects = 150;
  ExpectSinkMatchesGraph(WriteNTriples(gen::GenerateWordnetGraph(wordnet)));
}

TEST(IncidenceSinkTest, EscapedAndPlainSpellingsAreOneTriple) {
  // The same object spelled with and without escapes, in one shard and
  // across shards (the repeats sit lines apart).
  const std::string text =
      "<http://x/s> <http://x/p> \"caf\\u00e9\" .\n"
      "<http://x/s> <http://x/p> <http://x/\\u0041> .\n"
      "<http://x/s> <http://x/p> \"q\\\"t\"@en .\n"
      "<http://x/s> <http://x/q> \"x\" .\n"
      "<http://x/s> <http://x/p> \"caf\xc3\xa9\" .\n"
      "<http://x/s> <http://x/p> <http://x/A> .\n"
      "<http://x/s> <http://x/p> \"q\\u0022t\"@en .\n"
      "<http://x/s> <http://x/p> \"1\"^^<http://x/\\u0069nt> .\n"
      "<http://x/s> <http://x/p> \"1\"^^<http://x/int> .\n";
  EXPECT_EQ(ExpectSinkMatchesGraph(text), 5u);
  ExpectDatasetMatchesGraph(text);
}

TEST(IncidenceSinkTest, SameLexicalFormDifferentKindsAreDistinct) {
  // An IRI, a literal, a blank node, and tagged / typed literals sharing
  // the lexical form "abc" are six distinct objects; so are two literals
  // whose escaped quotes and '>' would collide if the canonical bytes did
  // not escape them.
  const std::string text =
      "<http://x/s> <http://x/p> <abc> .\n"
      "<http://x/s> <http://x/p> \"abc\" .\n"
      "<http://x/s> <http://x/p> _:abc .\n"
      "<http://x/s> <http://x/p> \"abc\"@en .\n"
      "<http://x/s> <http://x/p> \"abc\"^^<abc> .\n"
      "<http://x/s> <http://x/p> \"abc\"^^<http://x/t> .\n"
      "<http://x/s> <http://x/p> \"a\"^^<b\\u003E\"^^<c> .\n"
      "<http://x/s> <http://x/p> \"a\\\"^^<b>\"^^<c> .\n"
      "<http://x/s> <http://x/p> \"a\\\\\" .\n"
      "<http://x/s> <http://x/p> \"a\\\\\\\\\" .\n";
  EXPECT_EQ(ExpectSinkMatchesGraph(text), 10u);
  ExpectDatasetMatchesGraph(text);
}

TEST(IncidenceSinkTest, TypesBlankNodesAndLiteralSorts) {
  const std::string text =
      "_:b1 " + kType + " <http://x/Person> .\n"
      "_:b1 <http://x/name> \"Ann\"@en .\n"
      "_:b1 <http://x/age> \"41\"^^<http://www.w3.org/2001/XMLSchema#int> .\n"
      "<http://x/bob> " + kType + " \"Person\" .\n"
      "<http://x/bob> <http://x/name> \"Bob\" .\n"
      "<http://x/bob> " + kType + " <http://x/Person> .\n"
      "_:b1 " + kType + " <http://x/Person> .\n"
      "<http://x/cat> <http://x/name> _:b1 .\n"
      "<http://x/Person> " + kType + " _:class .\n";
  EXPECT_EQ(ExpectSinkMatchesGraph(text), 8u);
  ExpectDatasetMatchesGraph(text);

  // Through the façade: the literal sort is listed, and both slices count.
  auto whole = api::Dataset::FromNTriplesText(text);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->num_triples(), 8u);
  EXPECT_EQ(whole->SortIris(),
            (std::vector<std::string>{"http://x/Person", "Person", "class"}));
  auto person = whole->Slice("http://x/Person");
  ASSERT_TRUE(person.ok()) << person.status().ToString();
  EXPECT_EQ(person->num_triples(), 3u);
  EXPECT_EQ(person->num_subjects(), 2);
}

TEST(IncidenceSinkTest, DuplicatesInDifferentShards) {
  // 40 lines, every one of them twice: each shard holds repeats of lines
  // another shard also holds.
  std::string block;
  for (int i = 0; i < 40; ++i) {
    block += "<http://x/s" + std::to_string(i % 7) + "> <http://x/p" +
             std::to_string(i % 3) + "> \"v" + std::to_string(i % 11) +
             "\" .\n";
    if (i % 5 == 0) {
      block += "<http://x/s" + std::to_string(i % 7) + "> " + kType +
               " <http://x/T" + std::to_string(i % 2) + "> .\n";
    }
  }
  ExpectSinkMatchesGraph(block + block);
  ExpectSinkMatchesGraph(block + "# middle\n\n" + block + block);
  ExpectDatasetMatchesGraph(block + block);
}

TEST(IncidenceSinkTest, TolerantLoadsMatchDiagnosticsAndTriples) {
  std::string text;
  for (int i = 0; i < 60; ++i) {
    if (i % 9 == 4) {
      text += "<http://x/s" + std::to_string(i) + "> broken line\n";
    } else if (i % 13 == 6) {
      text += "<http://x/s\\u00zz> <http://x/p> \"v\" .\n";
    } else {
      text += "<http://x/s" + std::to_string(i % 8) + "> <http://x/p" +
              std::to_string(i % 4) + "> \"v" + std::to_string(i % 5) +
              "\" .\n";
    }
  }
  ExpectSinkMatchesGraph(text, 20);  // under budget
  ExpectSinkMatchesGraph(text, 3);   // over budget: same error and prefix
  ExpectSinkMatchesGraph(text, 0);   // strict: the first bad line
}

TEST(IncidenceSinkTest, DeadlineInTheMergeReturnsItsStatus) {
  // Each 4-shard chunk is far below the parser's 4096-line polling stride,
  // so the shards parse to the end and the expired deadline is first seen
  // by the shard merge.
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "<http://x/s" + std::to_string(i % 17) + "> <http://x/p" +
            std::to_string(i % 3) + "> \"v" + std::to_string(i) + "\" .\n";
  }
  ParseOptions options = LoadOptions(4);
  options.cancel = util::Deadline::After(0).token();
  IncidenceSink sink;
  const Status st = ParseNTriplesInto(text, &sink, options);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  sink.CheckInvariants();  // a coherent prefix of the input
  EXPECT_LT(sink.size(), 200u);
}

TEST(IncidenceSinkTest, DatasetDeadlineYieldsNoDataset) {
  // Large enough for 4 one-MiB shards through the façade's defaults.
  std::string text;
  while (text.size() < (5u << 20)) {
    const std::string i = std::to_string(text.size());
    text += "<http://x/s" + i + "> <http://x/p> \"v" + i + "\" .\n";
  }
  api::DatasetOptions options;
  options.parse_threads = 4;
  options.deadline_ms = 1;
  auto dataset = api::Dataset::FromNTriplesText(text, options);
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kDeadlineExceeded);
}

/// Writes `text` to `name` under the test temp dir; returns the path.
std::string WriteTempFile(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  EXPECT_TRUE(out.good()) << path;
  return path;
}

/// Dataset::FromNTriplesFile on `path`, which holds `text`, must equal
/// FromNTriplesText on `text` at 1, 2 and 4 parse threads: the status, the
/// index (over `subjects`), num_triples and SortIris.
void ExpectFileLoadMatchesText(const std::string& path,
                               const std::string& text,
                               const std::vector<std::string>& subjects) {
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " parse thread(s)");
    api::DatasetOptions options;
    options.parse_threads = threads;
    auto from_file = api::Dataset::FromNTriplesFile(path, options);
    auto from_text = api::Dataset::FromNTriplesText(text, options);
    ASSERT_EQ(from_file.status().ToString(), from_text.status().ToString());
    if (!from_text.ok()) continue;
    EXPECT_EQ(from_file->effective_parse_threads(),
              from_text->effective_parse_threads());
    EXPECT_EQ(from_file->num_triples(), from_text->num_triples());
    EXPECT_EQ(from_file->SortIris(), from_text->SortIris());
    ExpectSameIndex(from_file->index(), from_text->index(), subjects);
  }
}

TEST(IncidenceSinkTest, MappedFileLoadMatchesTextLoad) {
  // Over 4 MiB, so the façade's 1 MiB minimum chunk still gives 2 and 4
  // shards, and each shard gives back pages behind its cursor. The file's
  // first MiB of lines comes back at its end, more than 1 MiB later, so the
  // dedup compares for those read pages already given back; a type triple
  // repeats every 5,000 lines as well. A third of the objects carry escapes
  // (re-encoded into the loader's arena); the rest are compared in the file.
  std::vector<std::string> lines;
  std::size_t bytes = 0;
  for (int i = 0; bytes < (std::size_t{9} << 19); ++i) {
    std::string line = "<http://x/s" + std::to_string(i % 5000) + "> ";
    if (i % 10 == 0) {
      line += kType + " <http://x/T" + std::to_string(i % 4) + "> .\n";
    } else {
      line += "<http://x/p" + std::to_string(i % 7) + "> ";
      switch (i % 3) {
        case 0:
          line += "\"v" + std::to_string(i) + " \\\"q\\\" \\u00E9\" .\n";
          break;
        case 1:
          line += "<http://x/o" + std::to_string(i) + "> .\n";
          break;
        default:
          line += "\"plain " + std::to_string(i) + "\"@en .\n";
          break;
      }
    }
    bytes += line.size();
    lines.push_back(std::move(line));
  }
  std::string text;
  for (const std::string& line : lines) text += line;
  for (std::size_t i = 0, head = 0; head < (1u << 20); ++i) {
    text += lines[i];
    head += lines[i].size();
  }
  ASSERT_GE(text.size(), std::size_t{4} << 20);
  std::vector<std::string> subjects;
  for (int i = 0; i < 5000; ++i) {
    subjects.push_back("http://x/s" + std::to_string(i));
  }
  const std::string path = WriteTempFile("mapped_load.nt", text);
  ExpectFileLoadMatchesText(path, text, subjects);
  std::remove(path.c_str());
}

TEST(IncidenceSinkTest, MappedFileEdgeCasesMatchTextLoad) {
  const std::string empty = WriteTempFile("mapped_empty.nt", "");
  ExpectFileLoadMatchesText(empty, "", {});
  std::remove(empty.c_str());

  // Exactly four pages, the last line without a newline: no scan may read
  // past the end of the mapping. Sharded into chunks of a page or so as well.
  std::string text;
  std::vector<std::string> subjects;
  for (int i = 0; text.size() < 3 * 4096 + 100; ++i) {
    subjects.push_back("http://x/s" + std::to_string(i % 40));
    text += "<" + subjects.back() + "> <http://x/p" + std::to_string(i % 3) +
            "> \"v" + std::to_string(i) + "\" .\n";
  }
  const std::string last = "<http://x/last> <http://x/p0> \"";
  const std::size_t fixed = text.size() + last.size() + 3;  // and `" .`
  text += last + std::string((4096 - fixed % 4096) % 4096, 'x') + "\" .";
  ASSERT_EQ(text.size(), 4u * 4096);
  subjects.push_back("http://x/last");
  const std::string path = WriteTempFile("mapped_pages.nt", text);
  ExpectFileLoadMatchesText(path, text, subjects);

  auto file = util::MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  IncidenceSink from_text;
  ASSERT_TRUE(ParseNTriplesInto(text, &from_text).ok());
  for (const int threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " shard(s)");
    IncidenceSink from_file;
    ASSERT_TRUE(ParseNTriplesInto(*file, &from_file, LoadOptions(threads)).ok());
    ExpectSinksIdentical(from_file, from_text);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfsr::rdf
