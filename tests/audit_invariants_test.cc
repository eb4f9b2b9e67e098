// Corruption-oracle tests for the audit-mode CheckInvariants() methods.
//
// Clean objects must pass; objects whose private state is torn through the
// AuditTestPeer friend hooks must die with the specific invariant message.
// This is what keeps the invariant checkers honest: a checker that cannot
// detect a planted corruption would silently pass audit CI forever.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "eval/sort_stats.h"
#include "ilp/model.h"
#include "core/ilp_builder.h"
#include "rdf/graph.h"
#include "schema/signature_index.h"
#include "util/rational.h"

namespace rdfsr::schema {

// Friend of SignatureIndex (and, transitively, the only sanctioned way for
// tests to tear its private state).
struct AuditTestPeer {
  static void CorruptTotalSubjects(SignatureIndex* index) {
    index->total_subjects_ += 1;
  }
  static void BreakCanonicalOrder(SignatureIndex* index) {
    std::swap(index->signatures_.front(), index->signatures_.back());
  }
  static void PoisonPropertyMap(SignatureIndex* index) {
    index->property_index_["no-such-property"] = 0;
  }
};

}  // namespace rdfsr::schema

namespace rdfsr::eval {

// Friend of SortStats.
struct AuditTestPeer {
  static void CorruptSubjects(SortStats* stats) { stats->subjects_ += 1; }
  static void CorruptOneCount(SortStats* stats) {
    if (stats->counts_dense_) {
      for (auto& c : stats->property_count_) {
        if (c != 0) {
          c += 1;
          return;
        }
      }
    } else {
      stats->sparse_counts_.front() += 1;
    }
  }
  static void FlipCountRepresentation(SortStats* stats) {
    stats->counts_dense_ = !stats->counts_dense_;
  }
  static void PlantPhantomMember(SortStats* stats, int sig_id) {
    stats->members_.Insert(static_cast<std::size_t>(sig_id));
  }
};

}  // namespace rdfsr::eval

namespace rdfsr {
namespace {

schema::SignatureIndex MakeIndex() {
  std::vector<schema::Signature> sigs;
  sigs.emplace_back(std::vector<int>{0, 1}, 5);
  sigs.emplace_back(std::vector<int>{1, 2}, 3);
  sigs.emplace_back(std::vector<int>{0}, 2);
  return schema::SignatureIndex::FromSignatures({"p0", "p1", "p2"},
                                                std::move(sigs));
}

TEST(SignatureIndexInvariantsTest, CleanIndexPasses) {
  MakeIndex().CheckInvariants();
}

TEST(SignatureIndexInvariantsDeathTest, DetectsStaleSubjectTotal) {
  schema::SignatureIndex index = MakeIndex();
  schema::AuditTestPeer::CorruptTotalSubjects(&index);
  EXPECT_DEATH(index.CheckInvariants(), "total_subjects out of sync");
}

TEST(SignatureIndexInvariantsDeathTest, DetectsBrokenCanonicalOrder) {
  schema::SignatureIndex index = MakeIndex();
  schema::AuditTestPeer::BreakCanonicalOrder(&index);
  EXPECT_DEATH(index.CheckInvariants(), "violate \\(count desc, lex asc\\)");
}

TEST(SignatureIndexInvariantsDeathTest, DetectsPoisonedPropertyMap) {
  schema::SignatureIndex index = MakeIndex();
  schema::AuditTestPeer::PoisonPropertyMap(&index);
  EXPECT_DEATH(index.CheckInvariants(), "property map size mismatch");
}

TEST(SortStatsInvariantsTest, CleanStatsPassThroughMutations) {
  const schema::SignatureIndex index = MakeIndex();
  eval::SortStats stats(&index, /*pair_p1=*/0, /*pair_p2=*/1);
  stats.CheckInvariants();  // empty
  stats.Add(0);
  stats.CheckInvariants();
  stats.Add(2);
  stats.CheckInvariants();
  stats.Remove(0);
  stats.CheckInvariants();

  eval::SortStats other(&index, 0, 1);
  other.Add(1);
  stats.MergeWith(other);
  stats.CheckInvariants();
}

TEST(SortStatsInvariantsDeathTest, DetectsStaleSubjectAggregate) {
  const schema::SignatureIndex index = MakeIndex();
  eval::SortStats stats(&index);
  stats.Add(0);
  eval::AuditTestPeer::CorruptSubjects(&stats);
  EXPECT_DEATH(stats.CheckInvariants(), "subjects aggregate out of sync");
}

TEST(SortStatsInvariantsDeathTest, DetectsTornPropertyCount) {
  const schema::SignatureIndex index = MakeIndex();
  eval::SortStats stats(&index);
  stats.Add(0);
  stats.Add(1);
  eval::AuditTestPeer::CorruptOneCount(&stats);
  EXPECT_DEATH(stats.CheckInvariants(), "out of sync");
}

TEST(SortStatsInvariantsDeathTest, DetectsRepresentationFlagLie) {
  const schema::SignatureIndex index = MakeIndex();
  eval::SortStats stats(&index);
  stats.Add(0);
  eval::AuditTestPeer::FlipCountRepresentation(&stats);
  EXPECT_DEATH(stats.CheckInvariants(), "");
}

TEST(SortStatsInvariantsDeathTest, DetectsPhantomMember) {
  const schema::SignatureIndex index = MakeIndex();
  eval::SortStats stats(&index);
  stats.Add(0);
  eval::AuditTestPeer::PlantPhantomMember(&stats, 2);
  EXPECT_DEATH(stats.CheckInvariants(), "member count out of sync");
}

TEST(GraphInvariantsTest, CleanGraphAndDictionaryPass) {
  rdf::Graph graph;
  graph.AddIri("http://x/a", "http://x/p", "http://x/b");
  graph.AddIri("http://x/a", "http://x/q", "http://x/c");
  graph.AddIri("http://x/b", "http://x/p", "http://x/a");
  graph.AddIri("http://x/a", "http://x/p", "http://x/b");  // duplicate, ignored
  EXPECT_EQ(graph.size(), 3u);
  graph.CheckInvariants();
  graph.dict().CheckInvariants();
}

TEST(ModelInvariantsTest, CleanModelPassesThroughUpdates) {
  ilp::Model model;
  const int x = model.AddBinary("x");
  const int y = model.AddBinary("y");
  const int row = model.AddConstraint("sum", {{x, 1.0}, {y, 1.0}}, 1, 1);
  model.CheckInvariants();
  // The in-place update APIs must preserve the merged/sorted-term invariant.
  model.SetConstraintTerms(row, {{y, 2.0}, {x, 1.0}, {y, -1.0}}, 0, 2);
  model.SetConstraintBounds(row, 0, 1);
  model.CheckInvariants();
}

TEST(IlpInstanceInvariantsTest, InstancePassesAfterEveryReweight) {
  const schema::SignatureIndex index = MakeIndex();
  core::RefinementIlpInstance instance(index, /*shapes=*/{}, /*k=*/2);
  instance.Reweight(Rational(1, 2));
  instance.CheckInvariants();
  instance.Reweight(Rational(9, 10));
  instance.CheckInvariants();
}

}  // namespace
}  // namespace rdfsr
