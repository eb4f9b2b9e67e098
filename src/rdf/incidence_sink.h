// The part of an RDF graph the structuredness analysis reads: the subject x
// property incidence behind M(D) (Section 2.1) and the rdf:type triples that
// cut a sort slice D_t.
//
// rdf::Graph interns every term of every triple. Nothing downstream of a load
// reads an object, though, except rdf:type objects (the sorts). So the
// loading façade parses into an IncidenceSink instead: its dictionary holds
// only subjects, properties and rdf:type objects, and it keeps one
// (subject, property) pair per distinct triple and one (subject, sort)
// posting per distinct rdf:type triple, both in first-occurrence order —
// exactly what IndexBuilder and the sort enumeration read from a Graph.
//
// The set semantics of a graph still hold: a triple that repeats counts once.
// The loader (IncidenceSink::Loader) deduplicates on (subject, property,
// 64-bit hash of the object's canonical bytes) and compares the bytes when
// two keys meet, so the count is exact without interning the objects. The
// canonical bytes of an object are its N-Triples spelling with no escapes
// other than `\"` and `\\` in a literal and `\>` and `\\` in an IRI — the
// input's own bytes whenever the object was written without escapes, so
// those are compared in place; an escaped object is re-encoded into an arena
// the load owns. The dedup state lives only as long as the loader.

#ifndef RDFSR_RDF_INCIDENCE_SINK_H_
#define RDFSR_RDF_INCIDENCE_SINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/deadline.h"
#include "util/status.h"

namespace rdfsr::rdf {

/// One distinct triple as M(D) sees it: its subject and its property.
struct SubjectProperty {
  TermId subject = kInvalidTermId;
  TermId property = kInvalidTermId;

  bool operator==(const SubjectProperty& o) const {
    return subject == o.subject && property == o.property;
  }
};

/// One distinct (subject, rdf:type, sort) triple.
struct TypePosting {
  TermId subject = kInvalidTermId;
  TermId sort = kInvalidTermId;

  bool operator==(const TypePosting& o) const {
    return subject == o.subject && sort == o.sort;
  }
};

/// The loaded triples a Dataset retains. Immutable once loaded; built by
/// ParseNTriplesInto (rdf/ntriples.h).
class IncidenceSink {
 public:
  class Loader;

  IncidenceSink() = default;
  IncidenceSink(const IncidenceSink&) = delete;
  IncidenceSink& operator=(const IncidenceSink&) = delete;
  IncidenceSink(IncidenceSink&&) = default;
  IncidenceSink& operator=(IncidenceSink&&) = default;

  /// Subjects, properties and rdf:type objects, interned in order of first
  /// occurrence (subject, then property, then a type object, per triple).
  const Dictionary& dict() const { return dict_; }

  /// |D|: distinct triples loaded.
  std::size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  /// One entry per distinct triple, in first-occurrence order (rdf:type
  /// triples included, with property type_property()).
  const std::vector<SubjectProperty>& pairs() const { return pairs_; }

  /// One entry per distinct rdf:type triple, in first-occurrence order.
  const std::vector<TypePosting>& type_postings() const {
    return type_postings_;
  }

  /// The id of rdf:type, or kInvalidTermId when no triple uses it.
  TermId type_property() const { return type_property_; }

  /// All sort constants t of (s, rdf:type, t) triples, first occurrence
  /// first.
  std::vector<TermId> SortConstants() const;

  /// Structural validation (fatal on violation): every id is interned, the
  /// postings are exactly the type pairs in order, and type_property() names
  /// rdf:type. O(|D|).
  void CheckInvariants() const;

 private:
  Dictionary dict_;
  std::vector<SubjectProperty> pairs_;
  std::vector<TypePosting> type_postings_;
  TermId type_property_ = kInvalidTermId;
};

/// Load-time state: appends parsed triples to a sink with exact triple
/// dedup. The object bytes it keeps point into the parsed text (or into its
/// own arena), so the text must outlive the loader; Finish() drops the dedup
/// state and hands over the sink.
class IncidenceSink::Loader {
 public:
  Loader() = default;
  Loader(const Loader&) = delete;
  Loader& operator=(const Loader&) = delete;
  Loader(Loader&&) = default;
  Loader& operator=(Loader&&) = default;

  /// Pre-sizes the pair and dedup arrays for ~`triples` triples.
  void Reserve(std::size_t triples);

  /// Adds one parsed triple. `object_bytes` is the object's spelling in the
  /// input when it carries no escape, else empty (the loader re-encodes the
  /// decoded `o`). Duplicate triples are dropped.
  void Add(const TermView& s, const TermView& p, const TermView& o,
           std::string_view object_bytes);

  /// Appends the triples of `shard` — a loader over the lines after this
  /// one's — as if they had been added here in order, then clears it. Term
  /// ids and orders come out as if one loader had read both. Polls `cancel`;
  /// a trip returns its status with a prefix of `shard` appended.
  Status Append(Loader* shard, const util::CancellationToken& cancel = {});

  /// Hands over the sink; the loader is empty afterwards.
  IncidenceSink Finish();

 private:
  /// Records the triple (s, p, object) unless present; true when new.
  /// `object` must stay valid as long as the loader (text or arena bytes).
  bool Insert(TermId s, TermId p, std::string_view object,
              std::uint64_t object_hash);
  /// Interns a subject or predicate, reusing `*last` when the bytes repeat.
  TermId InternRepeated(const TermView& term, TermId* last);
  /// Copies `bytes` into the arena; the view stays valid for the loader's
  /// lifetime and across Append into another loader.
  std::string_view Keep(std::string_view bytes);
  /// Rebuilds the slot array at `slots` entries (a power of two).
  void Grow(std::size_t slots);

  IncidenceSink sink_;
  // Each distinct triple's object as canonical bytes (see the file
  // comment), parallel to sink_.pairs_. The hashes are recomputed when the
  // slots grow rather than stored: a probe rejects on (subject, property)
  // before it reads an object, so a stored hash would buy little for its
  // eight bytes per triple.
  std::vector<const char*> object_bytes_;
  std::vector<std::uint32_t> object_sizes_;
  // Open addressing over pair indices, load factor at most 3/4.
  std::vector<std::uint32_t> slots_;
  std::vector<std::unique_ptr<char[]>> arena_;  // Keep()'s blocks
  char* arena_next_ = nullptr;  // free tail of the current block
  std::size_t arena_left_ = 0;
  std::string canonical_;  // re-encoding scratch
  TermId last_subject_ = kInvalidTermId;
  TermId last_predicate_ = kInvalidTermId;
};

}  // namespace rdfsr::rdf

#endif  // RDFSR_RDF_INCIDENCE_SINK_H_
