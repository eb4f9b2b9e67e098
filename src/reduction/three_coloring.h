// The NP-hardness reduction of Appendix A: 3-COLORABILITY to
// EXISTSSORTREFINEMENT(r0) with theta = 1 and k = 3.
//
// From an undirected loop-free graph G with n nodes the reduction builds a
// 4n x (2n+3) property-structure matrix M_G (three groups of auxiliary rows
// whose sp1/sp2 columns make every row's signature unique, an idp column, two
// diagonal column blocks, and the complemented adjacency matrix in the lower
// right) and a fixed 11-variable rule r0 such that G is 3-colorable iff M_G
// admits a sigma_{r0}-sort refinement with threshold 1 and at most 3 implicit
// sorts. This module constructs both artifacts programmatically — M_G as its
// signature index, one signature per row — plus a direct 3-coloring search
// used to cross-check the construction in tests.

#ifndef RDFSR_REDUCTION_THREE_COLORING_H_
#define RDFSR_REDUCTION_THREE_COLORING_H_

#include <optional>
#include <vector>

#include "rules/ast.h"
#include "schema/signature_index.h"

namespace rdfsr::reduction {

/// An undirected graph without self-loops, over nodes 0..n-1.
class UndirectedGraph {
 public:
  explicit UndirectedGraph(int num_nodes);

  void AddEdge(int a, int b);
  bool HasEdge(int a, int b) const;
  int num_nodes() const { return n_; }

  /// The complete graph K_n (3-colorable iff n <= 3).
  static UndirectedGraph Complete(int num_nodes);
  /// The cycle C_n (3-colorable always; 2-colorable iff n even).
  static UndirectedGraph Cycle(int num_nodes);

 private:
  int n_;
  std::vector<std::vector<bool>> adj_;
};

/// Builds M_G (4n rows x (2n+3) columns) as a signature index with subject
/// names kept: 4n signatures of one subject each. Properties, in column
/// order: "sp1", "sp2", "idp", "L0".."L{n-1}" (left diagonal block),
/// "R0".."R{n-1}" (right block holding the complemented adjacency matrix in
/// the lower section). Row (subject) names: "a<i>", "b<i>", "c<i>" for the
/// three auxiliary groups, "v<i>" for the node rows.
schema::SignatureIndex BuildReductionIndex(const UndirectedGraph& graph);

/// The fixed rule r0 of Appendix A (equation 2), 11 variables.
rules::Rule BuildRuleR0();

/// Direct backtracking 3-coloring; returns a color (0..2) per node, or
/// nullopt when G is not 3-colorable.
std::optional<std::vector<int>> ThreeColor(const UndirectedGraph& graph);

/// Checks that `coloring` is a proper 3-coloring of `graph`.
bool IsValidColoring(const UndirectedGraph& graph,
                     const std::vector<int>& coloring);

/// The row partition of M_G induced by a coloring, as in the appendix: part i
/// holds auxiliary group i plus the rows of nodes colored i. Each row is given
/// by its signature id in BuildReductionIndex(graph).
std::vector<std::vector<int>> ColoringToRowPartition(
    const UndirectedGraph& graph, const std::vector<int>& coloring);

}  // namespace rdfsr::reduction

#endif  // RDFSR_REDUCTION_THREE_COLORING_H_
