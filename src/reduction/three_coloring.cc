#include "reduction/three_coloring.h"

#include <functional>
#include <string>

#include "rdf/dictionary.h"
#include "schema/index_builder.h"
#include "util/check.h"

namespace rdfsr::reduction {

namespace {

/// `prefix` followed by the decimal `i`: the row and column names of M_G.
std::string Name(const char* prefix, int i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

}  // namespace

UndirectedGraph::UndirectedGraph(int num_nodes) : n_(num_nodes) {
  RDFSR_CHECK_GT(num_nodes, 0);
  adj_.assign(n_, std::vector<bool>(n_, false));
}

void UndirectedGraph::AddEdge(int a, int b) {
  RDFSR_CHECK_GE(a, 0);
  RDFSR_CHECK_LT(a, n_);
  RDFSR_CHECK_GE(b, 0);
  RDFSR_CHECK_LT(b, n_);
  RDFSR_CHECK_NE(a, b) << "self-loops are not allowed in the reduction";
  adj_[a][b] = adj_[b][a] = true;
}

bool UndirectedGraph::HasEdge(int a, int b) const { return adj_[a][b]; }

UndirectedGraph UndirectedGraph::Complete(int num_nodes) {
  UndirectedGraph g(num_nodes);
  for (int a = 0; a < num_nodes; ++a) {
    for (int b = a + 1; b < num_nodes; ++b) g.AddEdge(a, b);
  }
  return g;
}

UndirectedGraph UndirectedGraph::Cycle(int num_nodes) {
  RDFSR_CHECK_GE(num_nodes, 3);
  UndirectedGraph g(num_nodes);
  for (int a = 0; a < num_nodes; ++a) g.AddEdge(a, (a + 1) % num_nodes);
  return g;
}

schema::SignatureIndex BuildReductionIndex(const UndirectedGraph& graph) {
  const int n = graph.num_nodes();
  const int cols = 2 * n + 3;

  std::vector<std::string> props = {"sp1", "sp2", "idp"};
  for (int j = 0; j < n; ++j) props.push_back(Name("L", j));
  for (int j = 0; j < n; ++j) props.push_back(Name("R", j));

  std::vector<std::string> subjects;
  std::vector<std::vector<int>> rows;
  // Upper section: three groups of auxiliary rows. Group g (0..2) row i:
  // sp1/sp2 pattern per group, idp = 1, and both diagonal blocks.
  const int sp_pattern[3][2] = {{0, 0}, {0, 1}, {1, 0}};
  const char* group_name[3] = {"a", "b", "c"};
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < n; ++i) {
      std::vector<int> row(cols, 0);
      row[0] = sp_pattern[g][0];
      row[1] = sp_pattern[g][1];
      row[2] = 1;  // idp
      row[3 + i] = 1;
      row[3 + n + i] = 1;
      rows.push_back(std::move(row));
      subjects.push_back(Name(group_name[g], i));
    }
  }
  // Lower section: node rows. sp1 = sp2 = 1, idp = 0, left diagonal, right
  // block = complemented adjacency.
  for (int i = 0; i < n; ++i) {
    std::vector<int> row(cols, 0);
    row[0] = 1;
    row[1] = 1;
    row[2] = 0;
    row[3 + i] = 1;
    for (int j = 0; j < n; ++j) {
      row[3 + n + j] = (i != j && graph.HasEdge(i, j)) ? 0 : 1;  // complement
    }
    // The diagonal of the complemented adjacency is 1 (no self-loops).
    row[3 + n + i] = 1;
    rows.push_back(std::move(row));
    subjects.push_back(Name("v", i));
  }

  // Add the 1-cells column by column: every column is non-empty, so the
  // properties first appear (and are numbered) in column order.
  rdf::Dictionary dict;
  std::vector<rdf::TermId> subject_ids;
  for (const std::string& name : subjects) {
    subject_ids.push_back(dict.InternIri(name));
  }
  schema::IndexBuilder builder;
  for (int c = 0; c < cols; ++c) {
    const rdf::TermId property = dict.InternIri(props[c]);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r][c] == 1) builder.Add(subject_ids[r], property);
    }
  }
  return builder.Build(dict, /*keep_subject_names=*/true);
}

rules::Rule BuildRuleR0() {
  using namespace rdfsr::rules;  // NOLINT(build/namespaces)
  // Variables: x, c1, c2, y, d1, d2, z, e, u, f1, f2.
  std::vector<FormulaPtr> ante;
  // Keep every variable off the sp1/sp2 marker columns.
  for (const char* v : {"c1", "c2", "d1", "d2", "e", "f1", "f2"}) {
    ante.push_back(Not(PropEqConst(v, "sp1")));
    ante.push_back(Not(PropEqConst(v, "sp2")));
  }
  // x: an idp-column cell in the upper section (val 1).
  ante.push_back(PropEqConst("x", "idp"));
  ante.push_back(ValEqConst("x", 1));
  // c1, c2: two further 1-cells on x's row, distinct from x and each other.
  ante.push_back(Not(VarEq("c1", "x")));
  ante.push_back(SubjEqSubj("c1", "x"));
  ante.push_back(ValEqConst("c1", 1));
  ante.push_back(Not(VarEq("c2", "x")));
  ante.push_back(SubjEqSubj("c2", "x"));
  ante.push_back(ValEqConst("c2", 1));
  ante.push_back(Not(VarEq("c1", "c2")));
  // y: an idp cell in the lower section (val 0); d1/d2 on y's row under
  // c1/c2's columns.
  ante.push_back(PropEqConst("y", "idp"));
  ante.push_back(ValEqConst("y", 0));
  ante.push_back(SubjEqSubj("d1", "y"));
  ante.push_back(PropEqProp("d1", "c1"));
  ante.push_back(SubjEqSubj("d2", "y"));
  ante.push_back(PropEqProp("d2", "c2"));
  // z/e: duplicate-auxiliary-row detector.
  ante.push_back(PropEqConst("z", "idp"));
  ante.push_back(SubjEqSubj("z", "e"));
  ante.push_back(PropEqProp("e", "c1"));
  ante.push_back(Not(VarEq("e", "c1")));
  ante.push_back(ValEqConst("e", 1));
  // u/f1/f2: restrict to columns representing nodes included in the subset.
  ante.push_back(PropEqConst("u", "idp"));
  ante.push_back(ValEqConst("u", 0));
  ante.push_back(SubjEqSubj("u", "f1"));
  ante.push_back(PropEqProp("f1", "c1"));
  ante.push_back(SubjEqSubj("u", "f2"));
  ante.push_back(PropEqProp("f2", "c2"));
  ante.push_back(ValEqConst("f1", 1));
  ante.push_back(ValEqConst("f2", 1));

  FormulaPtr cons = And(Or(ValEqConst("d1", 1), ValEqConst("d2", 1)),
                        ValEqConst("z", 0));
  Result<Rule> rule = Rule::Create(AndAll(ante), std::move(cons), "r0");
  RDFSR_CHECK(rule.ok()) << rule.status().ToString();
  return std::move(rule).value();
}

std::optional<std::vector<int>> ThreeColor(const UndirectedGraph& graph) {
  const int n = graph.num_nodes();
  std::vector<int> color(n, -1);
  std::function<bool(int)> assign = [&](int node) {
    if (node == n) return true;
    for (int c = 0; c < 3; ++c) {
      bool ok = true;
      for (int other = 0; other < node; ++other) {
        if (graph.HasEdge(node, other) && color[other] == c) {
          ok = false;
          break;
        }
      }
      if (ok) {
        color[node] = c;
        if (assign(node + 1)) return true;
        color[node] = -1;
      }
    }
    return false;
  };
  if (assign(0)) return color;
  return std::nullopt;
}

bool IsValidColoring(const UndirectedGraph& graph,
                     const std::vector<int>& coloring) {
  if (static_cast<int>(coloring.size()) != graph.num_nodes()) return false;
  for (int a = 0; a < graph.num_nodes(); ++a) {
    if (coloring[a] < 0 || coloring[a] > 2) return false;
    for (int b = a + 1; b < graph.num_nodes(); ++b) {
      if (graph.HasEdge(a, b) && coloring[a] == coloring[b]) return false;
    }
  }
  return true;
}

std::vector<std::vector<int>> ColoringToRowPartition(
    const UndirectedGraph& graph, const std::vector<int>& coloring) {
  RDFSR_CHECK(IsValidColoring(graph, coloring));
  const schema::SignatureIndex index = BuildReductionIndex(graph);
  const int n = graph.num_nodes();
  std::vector<std::vector<int>> parts(3);
  const char* group_name[3] = {"a", "b", "c"};
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < n; ++i) {
      parts[g].push_back(index.FindSubjectSignature(Name(group_name[g], i)));
    }
  }
  for (int i = 0; i < n; ++i) {
    parts[coloring[i]].push_back(index.FindSubjectSignature(Name("v", i)));
  }
  return parts;
}

}  // namespace rdfsr::reduction
