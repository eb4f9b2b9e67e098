// Streaming construction of a SignatureIndex from (subject, property) id
// pairs — the one way the library builds an index from subjects (synthetic
// generators that never materialize subjects use
// SignatureIndex::FromSignatures instead).
//
// The dense |S(D)| x |P(D)| matrix M(D) of Section 2.1 is never
// materialized: it would cost O(subjects x properties) bytes, which is what
// makes DBpedia/WordNet-scale inputs (tens of millions of triples)
// memory-infeasible long before the refinement solver matters. IndexBuilder
// accumulates dictionary-encoded (subject_id, property_id) pairs as they
// stream out of the parser (8 bytes per triple, duplicates welcome), then
// sorts + uniques + groups them into per-subject word-packed PropertySet rows
// and hashes the rows into signature sets. Peak intermediate state is
// O(triples + signatures), never O(subjects x properties).
//
// The result is the canonical grouping of M(D)'s rows — property column
// order, signature order, subject-name maps — that the dense-matrix oracle
// in tests/dense_matrix_oracle.h computes; tests/index_builder_test.cc
// asserts the equivalence on random graphs and sort slices.

#ifndef RDFSR_SCHEMA_INDEX_BUILDER_H_
#define RDFSR_SCHEMA_INDEX_BUILDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "rdf/graph.h"
#include "rdf/incidence_sink.h"
#include "schema/signature_index.h"
#include "util/deadline.h"

namespace rdfsr::util {
class ThreadPool;
}  // namespace rdfsr::util

namespace rdfsr::schema {

/// Accumulates per-subject property supports and emits the canonical
/// SignatureIndex. Single-use: call Add per (subject, property) mention, then
/// Build once.
class IndexBuilder {
 public:
  IndexBuilder() = default;

  /// Pre-sizes the pair buffer (e.g. to the known triple count).
  void ReservePairs(std::size_t pairs) { pairs_.reserve(pairs); }

  /// Records that `subject` has `property`. Duplicates are fine (collapsed at
  /// Build). First-call order numbers the properties (the index's column
  /// order) and orders the subjects inside each signature's name list.
  void Add(rdf::TermId subject, rdf::TermId property) {
    const std::uint32_t s = DenseId(subject, &subj_dense_, &subjects_);
    const std::uint32_t p = DenseId(property, &prop_dense_, &properties_);
    pairs_.push_back((static_cast<std::uint64_t>(s) << 32) | p);
  }

  /// Pair mentions recorded so far (before dedup).
  std::size_t num_pairs() const { return pairs_.size(); }
  /// Distinct subjects / properties seen so far.
  std::size_t num_subjects() const { return subjects_.size(); }
  std::size_t num_properties() const { return properties_.size(); }

  /// Bytes of transient state held by the builder — the ingestion
  /// peak-memory proxy, to be read against the subjects x properties cells a
  /// dense M(D) would take. The grouping stage of Build adds one PropertySet
  /// row per distinct signature on top of this.
  std::size_t intermediate_bytes() const {
    return pairs_.capacity() * sizeof(std::uint64_t) +
           (subj_dense_.capacity() + prop_dense_.capacity()) *
               sizeof(std::int32_t) +
           (subjects_.capacity() + properties_.capacity()) *
               sizeof(rdf::TermId);
  }

  /// Sorts, dedups, and groups the accumulated pairs into the canonical
  /// SignatureIndex. Names resolve through `dict` (the dictionary the ids
  /// were interned in). Consumes the builder's state.
  ///
  /// `pool`, when non-null, parallelizes the pair sort (chunk sort + merge
  /// rounds over fixed offsets) and the grouping stage (ranges split at
  /// subject boundaries, each grouped on its own and folded serially in
  /// range order; without a pool, one range). Both are bit-identical at any
  /// lane count: the sort is a multiset sort of integers over deterministic
  /// chunk bounds, and range-order folding reproduces one pass's
  /// first-appearance discovery order of signatures and the global subject
  /// order within each signature's name list.
  ///
  /// `cancel` is polled between the sort/grouping stages and periodically
  /// inside each range's grouping loop. A tripped token makes Build return
  /// early with a structurally valid but incomplete index — the caller must
  /// consult the token and discard the result (api::Dataset does; it maps
  /// the trip to kCancelled / kDeadlineExceeded).
  SignatureIndex Build(const rdf::Dictionary& dict, bool keep_subject_names,
                       util::ThreadPool* pool = nullptr,
                       const util::CancellationToken& cancel = {});

  /// One-shot: the index of a whole graph (rdf:type triples included), no
  /// dense intermediate. Rows and columns follow first appearance in
  /// graph.triples().
  static SignatureIndex FromGraph(const rdf::Graph& graph,
                                  bool keep_subject_names = true,
                                  util::ThreadPool* pool = nullptr,
                                  const util::CancellationToken& cancel = {});

  /// One-shot: the index of the sort slice D_t, computed from the graph's
  /// rdf:type posting list without materializing the slice as a second graph.
  /// Type triples are excluded from the view (the paper's convention).
  /// `slice_triples`, if non-null, receives |D_t|; an unknown sort (or one
  /// with no non-type triples) yields an empty index and 0 triples.
  static SignatureIndex FromSortSlice(const rdf::Graph& graph,
                                      std::string_view type_iri,
                                      bool keep_subject_names = true,
                                      std::size_t* slice_triples = nullptr,
                                      util::ThreadPool* pool = nullptr,
                                      const util::CancellationToken& cancel = {});

  /// The same two indexes from loaded triples (api::Dataset's path): equal
  /// to the Graph overloads on the graph the triples were loaded from.
  static SignatureIndex FromGraph(const rdf::IncidenceSink& triples,
                                  bool keep_subject_names = true,
                                  util::ThreadPool* pool = nullptr,
                                  const util::CancellationToken& cancel = {});
  static SignatureIndex FromSortSlice(const rdf::IncidenceSink& triples,
                                      std::string_view type_iri,
                                      bool keep_subject_names = true,
                                      std::size_t* slice_triples = nullptr,
                                      util::ThreadPool* pool = nullptr,
                                      const util::CancellationToken& cancel = {});

 private:
  /// First-appearance dense id of a term id, grown on demand. The dense
  /// remap is direct-addressed (term ids are dense already), so the hot Add
  /// path does no hashing at all.
  static std::uint32_t DenseId(rdf::TermId id, std::vector<std::int32_t>* dense,
                               std::vector<rdf::TermId>* order) {
    if (dense->size() <= id) dense->resize(id + 1, -1);
    std::int32_t& slot = (*dense)[id];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(order->size());
      order->push_back(id);
    }
    return static_cast<std::uint32_t>(slot);
  }

  std::vector<std::int32_t> subj_dense_;   // TermId -> dense row, -1 unseen
  std::vector<std::int32_t> prop_dense_;   // TermId -> dense column, -1 unseen
  std::vector<rdf::TermId> subjects_;      // dense row -> TermId
  std::vector<rdf::TermId> properties_;    // dense column -> TermId
  std::vector<std::uint64_t> pairs_;       // (row << 32) | column
};

}  // namespace rdfsr::schema

#endif  // RDFSR_SCHEMA_INDEX_BUILDER_H_
