// Equivalence tests for the streaming IndexBuilder: on any graph, the
// pairs -> sort -> group pipeline must produce the canonical grouping of the
// dense matrix M(D) computed by tests/dense_matrix_oracle.h — property
// column order, signature order, supports, counts, and subject-name maps —
// across duplicate triples, blank nodes, multi-sort membership, and sort
// slices.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dense_matrix_oracle.h"
#include "gen/random_graph.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/vocab.h"
#include "schema/index_builder.h"
#include "schema/signature_index.h"
#include "util/thread_pool.h"

namespace rdfsr::schema {
namespace {

/// Asserts that `actual` is the canonical grouping of `matrix`'s rows:
/// property columns, signature order/supports/counts, and (when
/// `check_names`) the signature of every subject.
void ExpectMatchesOracle(const SignatureIndex& actual,
                         const oracle::DenseMatrix& matrix, bool check_names) {
  const oracle::Grouping expected = oracle::GroupRows(matrix);
  std::vector<std::string> property_names;
  for (std::size_t p = 0; p < matrix.num_properties(); ++p) {
    property_names.push_back(matrix.property_name(p));
  }
  EXPECT_EQ(actual.property_names(), property_names);
  ASSERT_EQ(actual.num_signatures(), expected.counts.size());
  EXPECT_EQ(actual.total_subjects(),
            static_cast<std::int64_t>(matrix.num_subjects()));
  for (std::size_t i = 0; i < actual.num_signatures(); ++i) {
    EXPECT_EQ(actual.signature(i).count, expected.counts[i])
        << "signature " << i;
    EXPECT_EQ(actual.signature(i).support(), expected.supports[i])
        << "signature " << i;
  }
  if (!check_names) return;
  for (std::size_t r = 0; r < matrix.num_subjects(); ++r) {
    EXPECT_EQ(actual.FindSubjectSignature(matrix.subject_name(r)),
              expected.row_signature[r])
        << "subject " << matrix.subject_name(r);
  }
}

TEST(IndexBuilderTest, MatchesDenseOracleOnTinyGraph) {
  auto g = rdf::ParseNTriples(
      "<http://x/a> <http://x/p> <http://x/o> .\n"
      "<http://x/a> <http://x/q> \"v\" .\n"
      "<http://x/b> <http://x/p> \"w\" .\n"
      "_:blank <http://x/q> <http://x/a> .\n");
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ExpectMatchesOracle(IndexBuilder::FromGraph(*g, true),
                      oracle::DenseMatrix::FromGraph(*g), true);
}

TEST(IndexBuilderTest, CollapsesDuplicatePairMentions) {
  IndexBuilder builder;
  rdf::Dictionary dict;
  const rdf::TermId s = dict.InternIri("http://x/s");
  const rdf::TermId p = dict.InternIri("http://x/p");
  const rdf::TermId q = dict.InternIri("http://x/q");
  builder.Add(s, p);
  builder.Add(s, p);  // duplicate mention (e.g. two objects for one property)
  builder.Add(s, q);
  builder.Add(s, p);
  EXPECT_EQ(builder.num_pairs(), 4u);
  const SignatureIndex index = builder.Build(dict, true);
  ASSERT_EQ(index.num_signatures(), 1u);
  EXPECT_EQ(index.signature(0).count, 1);
  EXPECT_EQ(index.signature(0).support(), (std::vector<int>{0, 1}));
  EXPECT_EQ(index.total_subjects(), 1);
}

TEST(IndexBuilderTest, PropertyColumnsFollowFirstAppearance) {
  auto g = rdf::ParseNTriples(
      "<http://x/a> <http://x/z> \"1\" .\n"
      "<http://x/b> <http://x/a> \"2\" .\n"
      "<http://x/a> <http://x/m> \"3\" .\n");
  ASSERT_TRUE(g.ok());
  const SignatureIndex index = IndexBuilder::FromGraph(*g, false);
  EXPECT_EQ(index.property_names(),
            (std::vector<std::string>{"http://x/z", "http://x/a",
                                      "http://x/m"}));
}

TEST(IndexBuilderTest, RandomizedEquivalenceWholeGraph) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    gen::RandomGraphSpec spec;
    spec.num_subjects = 10 + static_cast<int>(seed % 30);
    spec.num_properties = 3 + static_cast<int>(seed % 9);
    spec.num_sorts = static_cast<int>(seed % 4);  // includes sortless graphs
    spec.density = 0.15 + 0.07 * static_cast<double>(seed % 10);
    spec.seed = seed;
    const rdf::Graph g = gen::GenerateRandomGraph(spec);
    if (g.empty()) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExpectMatchesOracle(IndexBuilder::FromGraph(g, true),
                        oracle::DenseMatrix::FromGraph(g), true);
  }
}

TEST(IndexBuilderTest, RandomizedEquivalenceSortSlices) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    gen::RandomGraphSpec spec;
    spec.num_subjects = 12 + static_cast<int>(seed % 20);
    spec.num_properties = 4 + static_cast<int>(seed % 6);
    spec.num_sorts = 1 + static_cast<int>(seed % 3);
    spec.multi_sort_probability = 0.5;
    spec.seed = seed * 977;
    const rdf::Graph g = gen::GenerateRandomGraph(spec);
    for (rdf::TermId sort_id : g.SortConstants()) {
      const std::string sort = g.dict().term(sort_id).lexical;
      std::size_t expected_triples = 0;
      const oracle::DenseMatrix slice =
          oracle::DenseMatrix::FromSortSlice(g, sort, &expected_triples);
      std::size_t slice_triples = 0;
      const SignatureIndex streaming =
          IndexBuilder::FromSortSlice(g, sort, true, &slice_triples);
      EXPECT_EQ(slice_triples, expected_triples) << "sort " << sort;
      SCOPED_TRACE("seed " + std::to_string(seed) + " sort " + sort);
      ExpectMatchesOracle(streaming, slice, true);
    }
  }
}

TEST(IndexBuilderTest, UnknownSortYieldsEmptyIndex) {
  auto g = rdf::ParseNTriples("<http://x/a> <http://x/p> \"v\" .\n");
  ASSERT_TRUE(g.ok());
  std::size_t slice_triples = 77;
  const SignatureIndex index =
      IndexBuilder::FromSortSlice(*g, "http://x/Nope", true, &slice_triples);
  EXPECT_EQ(index.num_signatures(), 0u);
  EXPECT_EQ(slice_triples, 0u);
}

TEST(IndexBuilderTest, SortSliceExcludesTypeTriplesAndUntypedSubjects) {
  auto g = rdf::ParseNTriples(
      "<http://x/a> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
      "<http://x/T> .\n"
      "<http://x/a> <http://x/p> \"v\" .\n"
      "<http://x/b> <http://x/p> \"w\" .\n");  // untyped: not in the slice
  ASSERT_TRUE(g.ok());
  std::size_t slice_triples = 0;
  const SignatureIndex index =
      IndexBuilder::FromSortSlice(*g, "http://x/T", true, &slice_triples);
  EXPECT_EQ(slice_triples, 1u);
  EXPECT_EQ(index.total_subjects(), 1);
  EXPECT_EQ(index.property_names(),
            (std::vector<std::string>{"http://x/p"}));
  EXPECT_EQ(index.FindSubjectSignature("http://x/a"), 0);
  EXPECT_EQ(index.FindSubjectSignature("http://x/b"), -1);
}

TEST(IndexBuilderTest, IntermediateStateIsPairsNotDenseMatrix) {
  // A tall sparse graph: many subjects, many properties, one pair each. The
  // dense matrix would be subjects x properties cells; the builder must stay
  // linear in pairs.
  rdf::Graph g;
  const int n = 256;
  for (int i = 0; i < n; ++i) {
    g.AddLiteral("http://x/s" + std::to_string(i),
                 "http://x/p" + std::to_string(i), "v");
  }
  IndexBuilder builder;
  for (const rdf::Triple& t : g.triples()) builder.Add(t.subject, t.predicate);
  const std::size_t dense_cells =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  EXPECT_LT(builder.intermediate_bytes(), dense_cells);
  ExpectMatchesOracle(builder.Build(g.dict(), false),
                      oracle::DenseMatrix::FromGraph(g), false);
}

TEST(IndexBuilderTest, PooledBuildMatchesSerialAboveCutoff) {
  // Enough (subject, property) pairs to cross the parallel sort/grouping
  // cutoff in Build (kParallelPairCutoff = 4096); the pooled build must, like
  // the serial one, be the oracle's canonical grouping for any lane count.
  gen::RandomGraphSpec spec;
  spec.num_subjects = 900;
  spec.num_properties = 12;
  spec.density = 0.6;
  spec.seed = 17;
  const rdf::Graph g = gen::GenerateRandomGraph(spec);
  const oracle::DenseMatrix matrix = oracle::DenseMatrix::FromGraph(g);
  ASSERT_GE(matrix.num_subjects(), 800u);
  ExpectMatchesOracle(IndexBuilder::FromGraph(g, true), matrix, true);
  for (const int workers : {1, 3, 7}) {
    util::ThreadPool pool(workers);
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ExpectMatchesOracle(IndexBuilder::FromGraph(g, true, &pool), matrix, true);
  }
}

}  // namespace
}  // namespace rdfsr::schema
