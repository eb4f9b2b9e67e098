// Test helper: equality of two loaded incidence sinks, term id for term id.
//
// A sharded IncidenceSink load must reproduce the sequential load exactly
// (rdf/ntriples.h): the same dictionary in the same id order, and the same
// pair and posting sequences over those ids. ntriples_test,
// incidence_sink_test and deadline_test compare loads with this.

#ifndef RDFSR_TESTS_SINK_EQUALITY_H_
#define RDFSR_TESTS_SINK_EQUALITY_H_

#include <gtest/gtest.h>

#include "rdf/incidence_sink.h"

namespace rdfsr::rdf::testutil {

/// Two sinks hold the same terms, pairs and postings, id for id.
inline void ExpectSinksIdentical(const IncidenceSink& a,
                                 const IncidenceSink& b) {
  ASSERT_EQ(a.dict().size(), b.dict().size());
  for (TermId id = 0; id < a.dict().size(); ++id) {
    EXPECT_EQ(a.dict().term(id), b.dict().term(id)) << "term " << id;
  }
  EXPECT_EQ(a.type_property(), b.type_property());
  EXPECT_TRUE(a.pairs() == b.pairs());
  EXPECT_TRUE(a.type_postings() == b.type_postings());
}

}  // namespace rdfsr::rdf::testutil

#endif  // RDFSR_TESTS_SINK_EQUALITY_H_
