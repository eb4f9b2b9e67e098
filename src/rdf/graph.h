// RDF graphs: finite sets of triples over dictionary-encoded terms.
//
// Implements the schema-oriented representation of Section 2.1:
//  * S(D), P(D) — subjects and properties mentioned in D,
//  * "s has property p in D",
//  * the rdf:type postings from which schema::IndexBuilder::FromSortSlice
//    reads the sort slice D_t = { (s,p,o) in D | (s, type, t) in D }.

#ifndef RDFSR_RDF_GRAPH_H_
#define RDFSR_RDF_GRAPH_H_

#include <memory>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/deadline.h"
#include "util/status.h"

namespace rdfsr::util {
class ThreadPool;
}  // namespace rdfsr::util

namespace rdfsr::rdf {

/// A dictionary-encoded RDF triple (subject, predicate, object).
struct Triple {
  TermId subject = kInvalidTermId;
  TermId predicate = kInvalidTermId;
  TermId object = kInvalidTermId;

  bool operator==(const Triple& o) const {
    return subject == o.subject && predicate == o.predicate &&
           object == o.object;
  }
};

/// Hash functor for Triple (set semantics of RDF graphs).
///
/// FNV-1a over the three ids plus a murmur-style finalizer. Each component is
/// mixed (xor-then-multiply) starting from the offset basis, so the subject
/// participates in the avalanche like the other fields — the previous version
/// seeded the state with the raw subject and XORed the object in last, which
/// left the object's bits unmixed (flipping one object bit flipped exactly one
/// hash bit) and the high hash bits nearly constant on small dictionaries.
/// rdf_test.cc has distribution regression tests for both properties.
struct TripleHash {
  std::size_t operator()(const Triple& t) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    h = (h ^ t.subject) * 0x100000001b3ULL;
    h = (h ^ t.predicate) * 0x100000001b3ULL;
    h = (h ^ t.object) * 0x100000001b3ULL;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

/// A finite set of RDF triples sharing a Dictionary. Insertion order of the
/// first occurrence of each triple/subject/property is preserved, which keeps
/// downstream views (signature indexes) deterministic.
class Graph {
 public:
  /// Creates a graph with a fresh dictionary.
  Graph() : dict_(std::make_shared<Dictionary>()) {}

  Dictionary& dict() { return *dict_; }
  const Dictionary& dict() const { return *dict_; }

  /// Pre-sizes the triple store, dedup index, and dictionary for a bulk load
  /// of ~`triples` triples mentioning ~`terms` distinct terms. Purely an
  /// optimization (growth is amortized anyway); the parser calls this with a
  /// newline-count estimate before streaming a file in.
  void Reserve(std::size_t triples, std::size_t terms);

  /// Adds a triple by id; duplicate triples are ignored (set semantics).
  /// Returns true if the triple was newly inserted.
  bool Add(Triple t);

  /// Adds a triple of terms, interning them first.
  bool Add(const Term& s, const Term& p, const Term& o);

  /// Adds a triple of viewed terms — the parser hot path. Interning goes
  /// through the dictionary's heterogeneous lookup, so already-seen terms
  /// cost zero allocations.
  bool Add(const TermView& s, const TermView& p, const TermView& o);

  /// Convenience: adds (<s>, <p>, <o>) with all-IRI terms.
  bool AddIri(const std::string& s, const std::string& p, const std::string& o);

  /// Convenience: adds (<s>, <p>, "literal").
  bool AddLiteral(const std::string& s, const std::string& p,
                  const std::string& literal);

  /// Number of triples |D|.
  std::size_t size() const { return triples_.size(); }
  bool empty() const { return triples_.empty(); }

  /// All triples in first-insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  /// S(D): distinct subjects in first-appearance order.
  const std::vector<TermId>& subjects() const { return subjects_; }

  /// P(D): distinct properties in first-appearance order.
  const std::vector<TermId>& properties() const { return properties_; }

  /// All sort constants t appearing in (s, type, t) triples.
  std::vector<TermId> SortConstants() const;

  /// Bulk-merges the first `count` parsed shards into this graph on `pool` —
  /// the parallel equivalent of interning each shard's terms into dict() in
  /// shard order and Add()ing each shard's triples in shard order. Requires
  /// this graph (and its dictionary) to be empty; the sharded parser falls
  /// back to the serial merge loop when appending to a non-empty graph.
  ///
  /// The result is bit-identical to the serial merge: term ids and the
  /// triple / subject / property orders are first-occurrence orders of the
  /// concatenated shard streams, derived by per-shard prefix sums rather
  /// than by any scheduling order (hash-table slot layouts are the only
  /// thing the thread interleaving can vary, and those are unobservable).
  /// Consumes the shards (terms are moved out of their dictionaries).
  ///
  /// Cancellation is polled between the early phases, before this graph is
  /// mutated: a cancelled merge returns kCancelled / kDeadlineExceeded with
  /// the destination graph still empty. On an injected fault (failpoint
  /// build) the destination's contents are unspecified but safe to destroy;
  /// callers discard the graph on any non-OK return.
  Status MergeShards(std::vector<Graph>* shards, std::size_t count,
                     util::ThreadPool* pool,
                     const util::CancellationToken& cancel = {});

  /// Positions (indices into triples()) of all (s, rdf:type, t) triples, in
  /// insertion order. Built lazily on first use and extended incrementally as
  /// triples are added, so repeated sort-slice indexing / sort enumeration
  /// never rescans the full triple vector.
  ///
  /// Thread-safety: the build mutates a mutable cache, so call this once
  /// while the graph is still exclusively owned if const references will be
  /// shared across threads afterwards (api::Dataset::FromGraph does exactly
  /// that); once built for the current triple count, concurrent const calls
  /// are read-only.
  const std::vector<std::uint32_t>& TypePostings() const;

  /// Full structural validation (fatal on violation): every triple's ids are
  /// interned, the triple set is duplicate-free, the dedup slot index covers
  /// exactly the stored triples, and subjects()/properties() are the
  /// first-appearance orders of triples(). O(|D|); audit builds run it after
  /// the parallel shard merge (the one code path where thread interleaving
  /// could corrupt the flat structures without failing a lookup).
  void CheckInvariants() const;

 private:
  /// Flat open-addressing dedup index over triples_ (set semantics without a
  /// node allocation per insert). Returns true and records the slot when the
  /// triple is new; false when already present.
  bool DedupInsert(const Triple& t);
  /// Rebuilds the slot array at `slots` entries (power of two, > 2x triples).
  void DedupGrow(std::size_t slots);

  /// Direct-address first-sighting bitmap over dense term ids; returns true
  /// on the first call for `id`.
  static bool MarkSeen(std::vector<std::uint8_t>* seen, TermId id);

  std::shared_ptr<Dictionary> dict_;
  std::vector<Triple> triples_;
  // Linear-probe slots holding indices into triples_; kEmptySlot when free.
  // Power-of-two size, load factor kept under 1/2.
  std::vector<std::uint32_t> dedup_slots_;
  std::vector<TermId> subjects_;
  std::vector<TermId> properties_;
  std::vector<std::uint8_t> subject_seen_;   // TermId -> appeared as subject
  std::vector<std::uint8_t> property_seen_;  // TermId -> appeared as predicate
  // Lazy rdf:type posting list: positions of type triples among triples_
  // [0, type_scanned_). Extended, never rebuilt — sound because a triple can
  // only reference rdf:type if it was already interned at Add time.
  mutable std::vector<std::uint32_t> type_postings_;
  mutable std::size_t type_scanned_ = 0;
};

}  // namespace rdfsr::rdf

#endif  // RDFSR_RDF_GRAPH_H_
