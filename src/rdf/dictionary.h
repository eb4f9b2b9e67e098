// Dictionary encoding: interning of RDF terms to dense 32-bit ids.
//
// This is the standard triple-store trick (see the horizontal-database view of
// Section 2.1): all structural computation downstream works on integer ids; the
// strings are only needed at the I/O boundary.
//
// Storage is a deque of Terms (id -> term, reference-stable across growth)
// plus a flat open-addressing slot index (hash -> id, linear probing, load
// factor < 1/2): no node allocation per term, and a lookup is one linear
// probe over a contiguous array.

#ifndef RDFSR_RDF_DICTIONARY_H_
#define RDFSR_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/check.h"

namespace rdfsr::rdf {

/// Dense id of an interned term. Valid ids are < Dictionary::size().
using TermId = std::uint32_t;

/// Sentinel for "no term".
inline constexpr TermId kInvalidTermId = static_cast<TermId>(-1);

/// Bidirectional Term <-> TermId map. Ids are assigned in interning order and
/// are stable for the dictionary's lifetime. Not thread-safe.
class Dictionary {
 public:
  Dictionary() = default;

  // Movable but not copyable: a Graph or an IncidenceSink owns its
  // dictionary, and a copy would duplicate every interned term.
  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  /// Interns a term, returning its id (existing id if already present).
  TermId Intern(const Term& term) { return Intern(TermView(term)); }

  /// Interns a viewed term through heterogeneous lookup: the hit path (term
  /// already present) does zero allocations; the miss path materializes the
  /// Term once.
  TermId Intern(const TermView& term);

  /// Convenience: interns an IRI given by string.
  TermId InternIri(std::string_view iri) {
    return Intern(TermView::Iri(iri));
  }

  /// Looks up a term's id without interning; kInvalidTermId when absent.
  TermId Find(const Term& term) const { return Find(TermView(term)); }

  /// Heterogeneous lookup by view — no temporary Term, no allocations.
  TermId Find(const TermView& term) const;

  /// Looks up an IRI's id without interning; kInvalidTermId when absent.
  TermId FindIri(std::string_view iri) const {
    return Find(TermView::Iri(iri));
  }

  /// The term for a (valid) id.
  const Term& term(TermId id) const {
    RDFSR_CHECK_LT(id, terms_.size());
    return terms_[id];
  }

  /// Number of interned terms.
  std::size_t size() const { return terms_.size(); }

  /// Pre-sizes the intern table for an expected term count (avoids rehash
  /// cascades during bulk loads).
  void Reserve(std::size_t terms);

  /// Full round-trip validation (fatal on violation): the slot index covers
  /// every interned id once and Find(term(id)) == id. O(size); called by
  /// tests.
  void CheckInvariants() const;

 private:
  /// Grows the slot index to `slots` entries (power of two) and reindexes
  /// every stored term.
  void Rehash(std::size_t slots);

  std::deque<Term> terms_;            // id -> term; stable references
  std::vector<std::uint32_t> slots_;  // open addressing: TermId or kInvalid
};

}  // namespace rdfsr::rdf

#endif  // RDFSR_RDF_DICTIONARY_H_
