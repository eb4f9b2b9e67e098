// Unit tests for rdf/: terms, dictionary interning, graphs, rdf:type postings.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <unordered_set>

#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/term.h"
#include "rdf/vocab.h"

namespace rdfsr::rdf {
namespace {

TEST(TermTest, FactoryAndKinds) {
  const Term iri = Term::Iri("http://example.org/a");
  EXPECT_TRUE(iri.is_iri());
  const Term lit = Term::Literal("hi", "", "en");
  EXPECT_TRUE(lit.is_literal());
  const Term blank = Term::Blank("b0");
  EXPECT_TRUE(blank.is_blank());
}

TEST(TermTest, EqualityDistinguishesKinds) {
  EXPECT_NE(Term::Iri("x"), Term::Blank("x"));
  EXPECT_NE(Term::Iri("x"), Term::Literal("x"));
  EXPECT_EQ(Term::Iri("x"), Term::Iri("x"));
}

TEST(TermTest, EqualityDistinguishesLiteralDecorations) {
  EXPECT_NE(Term::Literal("a"), Term::Literal("a", "xsd:string"));
  EXPECT_NE(Term::Literal("a"), Term::Literal("a", "", "en"));
  EXPECT_EQ(Term::Literal("a", "dt"), Term::Literal("a", "dt"));
}

TEST(TermTest, ToStringSurfaceForms) {
  EXPECT_EQ(Term::Iri("http://x/a").ToString(), "<http://x/a>");
  EXPECT_EQ(Term::Blank("n1").ToString(), "_:n1");
  EXPECT_EQ(Term::Literal("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Term::Literal("hi", "", "en").ToString(), "\"hi\"@en");
  EXPECT_EQ(Term::Literal("5", "http://x/int").ToString(),
            "\"5\"^^<http://x/int>");
  EXPECT_EQ(Term::Literal("a\"b\\c\nd").ToString(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(DictionaryTest, InternIsIdempotent) {
  Dictionary dict;
  const TermId a = dict.InternIri("http://x/a");
  const TermId b = dict.InternIri("http://x/b");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.InternIri("http://x/a"), a);
  EXPECT_EQ(dict.size(), 2u);
}

TEST(DictionaryTest, FindDoesNotIntern) {
  Dictionary dict;
  EXPECT_EQ(dict.FindIri("http://x/a"), kInvalidTermId);
  EXPECT_EQ(dict.size(), 0u);
  dict.InternIri("http://x/a");
  EXPECT_NE(dict.FindIri("http://x/a"), kInvalidTermId);
}

TEST(DictionaryTest, RoundTripsTerms) {
  Dictionary dict;
  const Term lit = Term::Literal("x", "dt", "");
  const TermId id = dict.Intern(lit);
  EXPECT_EQ(dict.term(id), lit);
}

TEST(DictionaryTest, HeterogeneousLookupByView) {
  Dictionary dict;
  const TermId iri = dict.InternIri("http://x/a");
  const TermId lit = dict.Intern(Term::Literal("v", "http://x/dt", ""));

  // string_view overloads resolve without materializing a Term.
  EXPECT_EQ(dict.FindIri(std::string_view("http://x/a")), iri);
  EXPECT_EQ(dict.Find(TermView(TermKind::kLiteral, "v", "http://x/dt", "")),
            lit);
  // Kind participates in identity: same lexical, different kind.
  EXPECT_EQ(dict.Find(TermView::Blank("http://x/a")), kInvalidTermId);
  // Interning through a view is idempotent with Term interning.
  EXPECT_EQ(dict.Intern(TermView::Iri("http://x/a")), iri);
  EXPECT_EQ(dict.Intern(TermView::Iri("http://x/new")), TermId{2});
  EXPECT_EQ(dict.size(), 3u);
}

TEST(TermViewTest, HashesAndComparesLikeTerm) {
  const Term t = Term::Literal("lex", "dt", "");
  const TermView v(t);
  EXPECT_EQ(TermHash()(t), TermHash()(v));
  EXPECT_TRUE(TermEq()(t, v));
  EXPECT_FALSE(TermEq()(TermView(Term::Literal("lex", "", "dt")), t));
  EXPECT_EQ(v.ToTerm(), t);
}

// A graph owns its dictionary and is move-only, so no other graph can intern
// into it.
static_assert(!std::is_copy_constructible_v<Graph>);

TEST(GraphTest, SetSemantics) {
  Graph g;
  EXPECT_TRUE(g.AddIri("s", "p", "o"));
  EXPECT_FALSE(g.AddIri("s", "p", "o"));  // duplicate
  EXPECT_EQ(g.size(), 1u);
}

TEST(GraphTest, SubjectsAndPropertiesInFirstAppearanceOrder) {
  Graph g;
  g.AddIri("s2", "p1", "o");
  g.AddIri("s1", "p2", "o");
  g.AddIri("s2", "p2", "o");
  ASSERT_EQ(g.subjects().size(), 2u);
  EXPECT_EQ(g.dict().term(g.subjects()[0]).lexical, "s2");
  EXPECT_EQ(g.dict().term(g.subjects()[1]).lexical, "s1");
  ASSERT_EQ(g.properties().size(), 2u);
  EXPECT_EQ(g.dict().term(g.properties()[0]).lexical, "p1");
}

TEST(GraphTest, SortConstants) {
  Graph g;
  g.AddIri("a", vocab::kRdfType, "Person");
  g.AddIri("b", vocab::kRdfType, "Company");
  g.AddIri("c", vocab::kRdfType, "Person");
  const std::vector<TermId> sorts = g.SortConstants();
  ASSERT_EQ(sorts.size(), 2u);
  EXPECT_EQ(g.dict().term(sorts[0]).lexical, "Person");
  EXPECT_EQ(g.dict().term(sorts[1]).lexical, "Company");
}

TEST(GraphTest, TypePostingsTrackTypeTriplesIncrementally) {
  Graph g;
  g.AddIri("a", "p", "o");
  EXPECT_TRUE(g.TypePostings().empty());  // rdf:type not even interned yet
  g.AddIri("a", vocab::kRdfType, "T");
  g.AddIri("b", "p", "o");
  ASSERT_EQ(g.TypePostings().size(), 1u);
  EXPECT_EQ(g.TypePostings()[0], 1u);
  // Postings extend as triples arrive after a build (no full rescan needed
  // for correctness — this asserts the observable contents only).
  g.AddIri("b", vocab::kRdfType, "T");
  ASSERT_EQ(g.TypePostings().size(), 2u);
  EXPECT_EQ(g.TypePostings()[1], 3u);
  for (std::uint32_t i : g.TypePostings()) {
    EXPECT_EQ(g.triples()[i].predicate, g.dict().FindIri(vocab::kRdfType));
  }
}

TEST(GraphTest, AddTermViewsMatchesAddTerms) {
  Graph by_term;
  by_term.AddIri("s", "p", "o");
  by_term.Add(Term::Iri("s"), Term::Iri("q"), Term::Literal("v", "", "en"));

  Graph by_view;
  by_view.Add(TermView::Iri("s"), TermView::Iri("p"), TermView::Iri("o"));
  by_view.Add(TermView::Iri("s"), TermView::Iri("q"),
              TermView(TermKind::kLiteral, "v", "", "en"));

  ASSERT_EQ(by_term.size(), by_view.size());
  ASSERT_EQ(by_term.dict().size(), by_view.dict().size());
  for (TermId id = 0; id < by_term.dict().size(); ++id) {
    EXPECT_EQ(by_term.dict().term(id), by_view.dict().term(id));
  }
}

// Distribution regression tests for TripleHash. The pre-fix hash seeded the
// state with the raw subject id and XORed the object in last with no final
// mixing; on small dictionaries (ids 0..few hundred) that meant (a) flipping
// one object bit flipped exactly one hash bit (object avalanche of 1.0), and
// (b) the top 16 hash bits took only a handful of values (8 of 4096 possible
// patterns in this very workload), starving any hash table that keys off high
// bits. The thresholds below fail loudly for that scheme (measured 1.0 and 8)
// and pass with wide margin for a properly finalized mix (measured ~32 and
// ~3983).

TEST(TripleHashTest, ObjectBitsAvalanche) {
  const TripleHash hash;
  std::int64_t flipped_bits = 0;
  std::int64_t cases = 0;
  for (TermId s = 0; s < 32; ++s) {
    for (TermId p = 0; p < 8; ++p) {
      for (TermId o = 0; o < 16; ++o) {
        for (int bit = 0; bit < 4; ++bit) {
          const Triple a{s, p, o};
          const Triple b{s, p, o ^ (TermId{1} << bit)};
          flipped_bits += std::popcount(
              static_cast<std::uint64_t>(hash(a) ^ hash(b)));
          ++cases;
        }
      }
    }
  }
  const double avalanche = static_cast<double>(flipped_bits) /
                           static_cast<double>(cases);
  EXPECT_GE(avalanche, 24.0) << "object bits barely perturb the hash";
}

TEST(TripleHashTest, HighBitsPopulatedOnSmallDictionaries) {
  const TripleHash hash;
  std::unordered_set<std::uint64_t> top16;
  for (TermId s = 0; s < 8; ++s) {
    for (TermId p = 0; p < 8; ++p) {
      for (TermId o = 0; o < 64; ++o) {
        top16.insert(static_cast<std::uint64_t>(hash(Triple{s, p, o})) >> 48);
      }
    }
  }
  // 4096 small-id triples should spread over most of the 4096 reachable
  // top-16-bit patterns, not collapse to a few.
  EXPECT_GE(top16.size(), 1000u);
}

TEST(TripleHashTest, NoExactCollisionsOnSmallIdGrid) {
  const TripleHash hash;
  std::unordered_set<std::size_t> seen;
  int n = 0;
  for (TermId s = 0; s < 16; ++s) {
    for (TermId p = 0; p < 16; ++p) {
      for (TermId o = 0; o < 16; ++o) {
        seen.insert(hash(Triple{s, p, o}));
        ++n;
      }
    }
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(n));
}

}  // namespace
}  // namespace rdfsr::rdf
