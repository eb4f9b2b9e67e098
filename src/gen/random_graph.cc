#include "gen/random_graph.h"

#include <set>
#include <string>
#include <vector>

#include "rdf/vocab.h"
#include "util/check.h"
#include "util/rng.h"

namespace rdfsr::gen {

schema::SignatureIndex GenerateRandomIndex(const RandomIndexSpec& spec) {
  RDFSR_CHECK_GT(spec.num_signatures, 0);
  RDFSR_CHECK_GT(spec.num_properties, 0);
  RDFSR_CHECK_GT(spec.max_count, 0);
  Rng rng(spec.seed);

  std::set<std::vector<int>> supports;
  int stall = 0;
  while (static_cast<int>(supports.size()) < spec.num_signatures) {
    std::vector<int> support;
    for (int p = 0; p < spec.num_properties; ++p) {
      if (rng.Chance(spec.density)) support.push_back(p);
    }
    if (support.empty()) {
      support.push_back(static_cast<int>(rng.Below(spec.num_properties)));
    }
    if (!supports.insert(support).second) {
      RDFSR_CHECK_LT(++stall, 100000)
          << "cannot draw enough distinct supports; lower num_signatures";
    }
  }

  // Patch unused properties into some support, preserving distinctness.
  std::vector<bool> used(spec.num_properties, false);
  for (const auto& s : supports) {
    for (int p : s) used[p] = true;
  }
  std::vector<std::vector<int>> final_supports(supports.begin(),
                                               supports.end());
  for (int p = 0; p < spec.num_properties; ++p) {
    if (used[p]) continue;
    bool placed = false;
    for (auto& s : final_supports) {
      std::vector<int> patched = s;
      patched.insert(std::lower_bound(patched.begin(), patched.end(), p), p);
      if (!supports.count(patched)) {
        supports.erase(s);
        supports.insert(patched);
        s = std::move(patched);
        placed = true;
        break;
      }
    }
    RDFSR_CHECK(placed) << "could not place property " << p;
  }

  std::vector<schema::Signature> signatures;
  for (auto& s : final_supports) {
    signatures.emplace_back(std::move(s), rng.Range(1, spec.max_count));
  }
  std::vector<std::string> names;
  for (int p = 0; p < spec.num_properties; ++p) {
    names.emplace_back("p") += std::to_string(p);
  }
  return schema::SignatureIndex::FromSignatures(std::move(names),
                                                std::move(signatures));
}

rdf::Graph GenerateRandomGraph(const RandomGraphSpec& spec) {
  RDFSR_CHECK_GT(spec.num_subjects, 0);
  RDFSR_CHECK_GT(spec.num_properties, 0);
  RDFSR_CHECK_GE(spec.num_sorts, 0);
  Rng rng(spec.seed);
  rdf::Graph graph;
  const rdf::Term type_prop = rdf::Term::Iri(rdf::vocab::kRdfType);

  for (int s = 0; s < spec.num_subjects; ++s) {
    const std::string id = std::to_string(s);
    const rdf::Term subject = rng.Chance(spec.blank_probability)
                                  ? rdf::Term::Blank("b" + id)
                                  : rdf::Term::Iri("http://x/s" + id);

    if (spec.num_sorts > 0 && !rng.Chance(spec.untyped_probability)) {
      const int sort = static_cast<int>(rng.Below(spec.num_sorts));
      graph.Add(subject, type_prop,
                rdf::Term::Iri("http://x/Sort" + std::to_string(sort)));
      if (spec.num_sorts > 1 && rng.Chance(spec.multi_sort_probability)) {
        const int other = static_cast<int>(rng.Below(spec.num_sorts));
        graph.Add(subject, type_prop,
                  rdf::Term::Iri("http://x/Sort" + std::to_string(other)));
      }
    }

    for (int p = 0; p < spec.num_properties; ++p) {
      if (!rng.Chance(spec.density)) continue;
      const rdf::Term property =
          rdf::Term::Iri("http://x/p" + std::to_string(p));
      std::string value = "v";
      value += id + "_" + std::to_string(p);
      const rdf::Term object = rng.Chance(spec.literal_probability)
                                   ? rdf::Term::Literal(value)
                                   : rdf::Term::Iri("http://x/" + value);
      graph.Add(subject, property, object);
      if (rng.Chance(spec.duplicate_probability)) {
        graph.Add(subject, property, object);  // set semantics drop this
      }
    }
  }
  return graph;
}

}  // namespace rdfsr::gen
