// Appendix A reduction tests: the M_G construction (as its signature index),
// the rule r0, and the correspondence between 3-colorings and row partitions.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "reduction/three_coloring.h"
#include "rules/printer.h"
#include "schema/signature_index.h"

namespace rdfsr::reduction {
namespace {

/// `prefix` followed by the decimal `i`: a row or column name of M_G.
std::string Name(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

TEST(GraphTest, CompleteAndCycleConstruction) {
  const UndirectedGraph k4 = UndirectedGraph::Complete(4);
  EXPECT_TRUE(k4.HasEdge(0, 3));
  EXPECT_TRUE(k4.HasEdge(2, 1));
  const UndirectedGraph c5 = UndirectedGraph::Cycle(5);
  EXPECT_TRUE(c5.HasEdge(4, 0));
  EXPECT_FALSE(c5.HasEdge(0, 2));
}

TEST(ThreeColorTest, TriangleIsColorable) {
  const UndirectedGraph g = UndirectedGraph::Complete(3);
  auto coloring = ThreeColor(g);
  ASSERT_TRUE(coloring.has_value());
  EXPECT_TRUE(IsValidColoring(g, *coloring));
}

TEST(ThreeColorTest, K4IsNotColorable) {
  EXPECT_FALSE(ThreeColor(UndirectedGraph::Complete(4)).has_value());
}

TEST(ThreeColorTest, OddCycleNeedsThreeColors) {
  const UndirectedGraph c5 = UndirectedGraph::Cycle(5);
  auto coloring = ThreeColor(c5);
  ASSERT_TRUE(coloring.has_value());
  EXPECT_TRUE(IsValidColoring(c5, *coloring));
  // And uses all three colors (C5 is not 2-colorable).
  std::set<int> used(coloring->begin(), coloring->end());
  EXPECT_EQ(used.size(), 3u);
}

TEST(ThreeColorTest, ValidColoringRejectsBadInput) {
  const UndirectedGraph g = UndirectedGraph::Complete(3);
  EXPECT_FALSE(IsValidColoring(g, {0, 0, 1}));      // adjacent same color
  EXPECT_FALSE(IsValidColoring(g, {0, 1}));         // wrong arity
  EXPECT_FALSE(IsValidColoring(g, {0, 1, 5}));      // out of range
  EXPECT_TRUE(IsValidColoring(g, {0, 1, 2}));
}

TEST(ReductionMatrixTest, DimensionsAndBlocks) {
  // Example A.1: the 3-node path graph 1-2 (edge), 3 isolated.
  UndirectedGraph g(3);
  g.AddEdge(0, 1);
  const schema::SignatureIndex index = BuildReductionIndex(g);
  ASSERT_EQ(index.total_subjects(), 12);  // 4n
  EXPECT_EQ(index.property_names(),
            (std::vector<std::string>{"sp1", "sp2", "idp", "L0", "L1", "L2",
                                      "R0", "R1", "R2"}));  // 2n + 3
  // M_G[subject][property], read off the subject's signature.
  const auto cell = [&](const std::string& subject,
                        const std::string& property) {
    const int sig = index.FindSubjectSignature(subject);
    const int prop = index.FindProperty(property);
    EXPECT_GE(sig, 0) << subject;
    EXPECT_GE(prop, 0) << property;
    return sig >= 0 && prop >= 0 && index.Has(sig, prop) ? 1 : 0;
  };

  // Upper section: sp1/sp2 patterns per auxiliary group, idp = 1.
  for (int i = 0; i < 3; ++i) {
    const std::string k = std::to_string(i);
    EXPECT_EQ(cell("a" + k, "sp1"), 0);
    EXPECT_EQ(cell("a" + k, "sp2"), 0);
    EXPECT_EQ(cell("a" + k, "idp"), 1);
    EXPECT_EQ(cell("b" + k, "sp2"), 1);
    EXPECT_EQ(cell("c" + k, "sp1"), 1);
  }
  // Diagonal blocks in the upper section.
  for (const char* group : {"a", "b", "c"}) {
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        const std::string row = Name(group, i);
        EXPECT_EQ(cell(row, Name("L", j)), i == j ? 1 : 0);
        EXPECT_EQ(cell(row, Name("R", j)), i == j ? 1 : 0);
      }
    }
  }
  // Lower section: sp1 = sp2 = 1, idp = 0, complemented adjacency from
  // Example A.1: rows (1 0 1 / 0 1 1 / 1 1 1).
  const int expect[3][3] = {{1, 0, 1}, {0, 1, 1}, {1, 1, 1}};
  for (int i = 0; i < 3; ++i) {
    const std::string row = Name("v", i);
    EXPECT_EQ(cell(row, "sp1"), 1);
    EXPECT_EQ(cell(row, "sp2"), 1);
    EXPECT_EQ(cell(row, "idp"), 0);
    for (int j = 0; j < 3; ++j) {
      EXPECT_EQ(cell(row, Name("R", j)), expect[i][j])
          << i << "," << j;
    }
  }
}

TEST(ReductionMatrixTest, EveryRowHasUniqueSignature) {
  // The sp1/sp2 columns exist exactly so that no two rows share a signature
  // (making the signature-closure requirement vacuous).
  UndirectedGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  const schema::SignatureIndex index = BuildReductionIndex(g);
  EXPECT_EQ(index.total_subjects(), 16);  // 4n rows
  EXPECT_EQ(index.num_signatures(), 16u);
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    EXPECT_EQ(index.signature(i).count, 1);
  }
}

TEST(RuleR0Test, WellFormedElevenVariables) {
  const rules::Rule r0 = BuildRuleR0();
  EXPECT_EQ(r0.variables().size(), 11u);
  EXPECT_EQ(r0.name(), "r0");
  // The rule avoids subj(c) = <constant> atoms (as the paper notes).
  std::vector<std::string> subject_constants;
  rules::CollectSubjectConstants(r0.antecedent(), &subject_constants);
  rules::CollectSubjectConstants(r0.consequent(), &subject_constants);
  EXPECT_TRUE(subject_constants.empty());
  // But mentions the marker properties.
  std::vector<std::string> props;
  rules::CollectPropertyConstants(r0.antecedent(), &props);
  EXPECT_NE(std::find(props.begin(), props.end(), "sp1"), props.end());
  EXPECT_NE(std::find(props.begin(), props.end(), "idp"), props.end());
  // Printable and non-trivial.
  EXPECT_GT(rules::ToString(r0).size(), 200u);
}

TEST(ColoringPartitionTest, PartitionCoversAllRowsOnce) {
  const UndirectedGraph c5 = UndirectedGraph::Cycle(5);
  auto coloring = ThreeColor(c5);
  ASSERT_TRUE(coloring.has_value());
  const schema::SignatureIndex index = BuildReductionIndex(c5);
  const auto parts = ColoringToRowPartition(c5, *coloring);
  ASSERT_EQ(parts.size(), 3u);
  std::vector<int> seen(4 * 5, 0);
  for (const auto& part : parts) {
    for (int sig : part) {
      ASSERT_GE(sig, 0);
      ASSERT_LT(sig, 20);
      ++seen[sig];
    }
  }
  for (int sig = 0; sig < 20; ++sig) EXPECT_EQ(seen[sig], 1) << sig;
  // Part g holds auxiliary group g (n rows) plus the nodes colored g.
  const char* group_name[3] = {"a", "b", "c"};
  for (int g = 0; g < 3; ++g) {
    const std::set<int> part(parts[g].begin(), parts[g].end());
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(
          part.count(index.FindSubjectSignature(Name(group_name[g], i))))
          << group_name[g] << i;
    }
  }
  for (int i = 0; i < 5; ++i) {
    const std::set<int> part(parts[(*coloring)[i]].begin(),
                             parts[(*coloring)[i]].end());
    EXPECT_TRUE(part.count(index.FindSubjectSignature(Name("v", i))))
        << "v" << i;
  }
}

TEST(ColoringPartitionTest, PartsAreIndependentSets) {
  // The reduction's soundness hinges on color classes being independent
  // sets; check the partition's node rows against the graph.
  const UndirectedGraph c5 = UndirectedGraph::Cycle(5);
  auto coloring = ThreeColor(c5);
  ASSERT_TRUE(coloring.has_value());
  const schema::SignatureIndex index = BuildReductionIndex(c5);
  std::map<int, int> node_of_signature;
  for (int i = 0; i < 5; ++i) {
    node_of_signature[index.FindSubjectSignature(Name("v", i))] = i;
  }
  const auto parts = ColoringToRowPartition(c5, *coloring);
  for (const auto& part : parts) {
    std::vector<int> nodes;
    for (int sig : part) {
      const auto it = node_of_signature.find(sig);
      if (it != node_of_signature.end()) nodes.push_back(it->second);
    }
    for (std::size_t a = 0; a < nodes.size(); ++a) {
      for (std::size_t b = a + 1; b < nodes.size(); ++b) {
        EXPECT_FALSE(c5.HasEdge(nodes[a], nodes[b]));
      }
    }
  }
}

}  // namespace
}  // namespace rdfsr::reduction
