// Random datasets for property-based testing.
//
// Valid dataset views (no empty signature supports, no unused property
// columns) so the signature-level enumerator, the closed forms, and the
// brute-force semantics of the tests' dense-matrix oracle are all defined on
// the same object.

#ifndef RDFSR_GEN_RANDOM_GRAPH_H_
#define RDFSR_GEN_RANDOM_GRAPH_H_

#include <cstdint>

#include "rdf/graph.h"
#include "schema/signature_index.h"

namespace rdfsr::gen {

/// Shape of a random signature index.
struct RandomIndexSpec {
  int num_signatures = 8;
  int num_properties = 5;
  std::int64_t max_count = 50;  ///< signature-set sizes uniform in [1, max]
  double density = 0.5;
  std::uint64_t seed = 1;
};

/// Random signature index (distinct supports, all properties used).
schema::SignatureIndex GenerateRandomIndex(const RandomIndexSpec& spec);

/// Shape of a random RDF graph — the ingestion-path test generator. Exercises
/// the messy inputs on which IndexBuilder must agree with the tests'
/// dense-matrix oracle: duplicate triples (set semantics), blank-node
/// subjects, subjects declared in several sorts, and untyped subjects.
struct RandomGraphSpec {
  int num_subjects = 20;
  int num_properties = 8;
  int num_sorts = 2;             ///< distinct rdf:type sort constants; 0 = none
  double density = 0.4;          ///< per (subject, property) Bernoulli
  double blank_probability = 0.2;      ///< subject is a blank node
  double duplicate_probability = 0.3;  ///< triple is emitted a second time
  double multi_sort_probability = 0.3; ///< typed subject gets a second sort
  double untyped_probability = 0.2;    ///< subject gets no rdf:type triple
  double literal_probability = 0.5;    ///< object is a literal (else an IRI)
  std::uint64_t seed = 1;
};

/// Random dictionary-encoded graph per the spec. Subjects with no drawn
/// property still get their rdf:type triple (when typed), so slices can
/// legitimately come out empty.
rdf::Graph GenerateRandomGraph(const RandomGraphSpec& spec);

}  // namespace rdfsr::gen

#endif  // RDFSR_GEN_RANDOM_GRAPH_H_
