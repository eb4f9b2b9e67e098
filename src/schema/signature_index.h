// Signatures and the compact signature index (Definition 4.1 and the "views"
// of Section 1).
//
// The signature of a subject s is the function sig(s,D): P(D) -> {0,1} marking
// which properties s has; a signature set is the group of subjects sharing a
// signature. The SignatureIndex stores, per signature: its support as a
// word-packed PropertySet and its size (subject count). This is the size
// reduction that makes the ILP practical: DBpedia Persons collapses from
// 790,703 subjects to 64 signatures ("3 KB of storage" in the paper) — and
// word-packing the supports makes every probe of that index (subset tests,
// overlap counts, membership) a handful of 64-bit operations.
//
// Subjects with equal signatures are structurally identical, so every
// computation in eval/ and core/ is defined on this index; signature sets are
// also the atomic units moved by a sort refinement (Definition 4.2 requires
// implicit sorts to be closed under signatures).

#ifndef RDFSR_SCHEMA_SIGNATURE_INDEX_H_
#define RDFSR_SCHEMA_SIGNATURE_INDEX_H_

#include <cstdint>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "schema/property_set.h"
#include "util/check.h"

namespace rdfsr::schema {

/// One signature set: a word-packed property support plus the number of
/// subjects sharing it.
///
/// Constructible either from a packed PropertySet (index-internal paths) or
/// from a sorted index vector (generators, parsers, tests); in the latter case
/// the words are packed by the index builder once the property count is known.
/// The scalar sorted-index view remains available through support(), derived
/// lazily from the words.
class Signature {
 public:
  Signature() = default;

  /// From an already-packed support. Templated so that only an actual
  /// PropertySet binds here — a braced index list like {{0}, 2} must not be
  /// ambiguous against PropertySet's explicit capacity constructor.
  template <typename PS,
            typename = std::enable_if_t<
                std::is_same_v<std::remove_cvref_t<PS>, PropertySet>>>
  Signature(PS&& props, std::int64_t count)
      : count(count), props_(std::forward<PS>(props)), packed_(true) {}

  /// From a strictly-increasing vector of property indices. The capacity of
  /// the packed words is fixed later by SignatureIndex::FromSignatures (which
  /// knows the property count).
  Signature(std::vector<int> support, std::int64_t count)
      : count(count), pending_support_(std::move(support)) {}

  std::int64_t count = 0;  ///< Size of the signature set (# subjects).

  /// Word-packed support. Only valid once owned by a SignatureIndex (or
  /// constructed from a PropertySet directly).
  const PropertySet& props() const {
    RDFSR_CHECK(packed_) << "signature support not packed yet";
    return props_;
  }

  /// Sorted ascending property indices — the scalar view, derived on demand
  /// from the packed words (or the pending construction input). Returned by
  /// value: the words are the single source of truth, and deriving per call
  /// keeps const reads of a shared index race-free.
  std::vector<int> support() const {
    return packed_ ? props_.ToVector() : pending_support_;
  }

 private:
  friend class SignatureIndex;

  /// Packs the pending index vector into words of the given capacity,
  /// validating bounds and strict monotonicity. No-op when already packed
  /// with matching capacity.
  void Pack(std::size_t num_properties);

  PropertySet props_;
  bool packed_ = false;
  std::vector<int> pending_support_;  // construction input until packed
};

/// Compact, deterministic view of a dataset: properties, signature sets, and
/// (optionally) the signature of individually named subjects.
///
/// Signatures are canonically ordered by (count desc, support lex asc) so that
/// figures and ILP variable ids are stable across runs.
class SignatureIndex {
 public:
  SignatureIndex() = default;

  /// Builds the index from raw (support, count) pairs; property names given
  /// explicitly. Used by synthetic generators that never materialize subjects.
  static SignatureIndex FromSignatures(std::vector<std::string> property_names,
                                       std::vector<Signature> signatures);

  std::size_t num_signatures() const { return signatures_.size(); }
  std::size_t num_properties() const { return property_names_.size(); }

  const Signature& signature(std::size_t i) const {
    RDFSR_CHECK_LT(i, signatures_.size());
    return signatures_[i];
  }
  const std::string& property_name(std::size_t p) const {
    RDFSR_CHECK_LT(p, property_names_.size());
    return property_names_[p];
  }
  const std::vector<std::string>& property_names() const {
    return property_names_;
  }

  /// Index of a property by name, or -1 when absent. O(1): backed by a hash
  /// map built at construction (Canonicalize), so const queries on a shared
  /// index never mutate.
  int FindProperty(const std::string& name) const;

  /// Whether signature i has property p — a single word probe.
  bool Has(std::size_t sig, std::size_t prop) const {
    RDFSR_CHECK_LT(sig, signatures_.size());
    return signatures_[sig].props().Contains(prop);
  }

  /// Total subjects Σ_μ |S_μ|.
  std::int64_t total_subjects() const { return total_subjects_; }

  /// Number of subjects having property p (column count).
  std::int64_t PropertyCount(std::size_t prop) const;

  /// Signature id of a named subject, or -1 when unknown. Only meaningful when
  /// the index was built with keep_subject_names=true.
  int FindSubjectSignature(const std::string& subject_name) const;

  /// Number of named subjects whose signature is `sig` among the given subject
  /// names (used by the generic counter to handle subj(c)=u constants exactly).
  std::int64_t CountNamedSubjects(const std::vector<std::string>& names,
                                  std::size_t sig) const;

  /// Restriction of the index to a subset of signatures (an implicit sort).
  /// Properties not supported by any member signature are dropped, mirroring
  /// P(D_i) of the sub-dataset; `kept_props`, if non-null, receives the global
  /// property index of each retained column. The retained-column union and the
  /// per-member remapping run on the packed words.
  SignatureIndex Restrict(const std::vector<int>& sig_ids,
                          std::vector<int>* kept_props = nullptr) const;

  /// Union of the supports of the given signatures (P(D_i) as a word set).
  PropertySet SupportUnion(const std::vector<int>& sig_ids) const;

  /// Full structural validation (fatal on violation): every signature packed
  /// at |P| capacity with positive count and non-empty support, canonical
  /// (count desc, support lex asc) order, total_subjects consistency, and
  /// both lookup maps consistent with the vectors they index. Always
  /// compiled — tests call it directly; the library re-validates at layer
  /// boundaries in audit builds (RDFSR_AUDIT_CHECK_INVARIANTS).
  void CheckInvariants() const;

 private:
  friend struct AuditTestPeer;  // invariant-oracle tests corrupt state
  friend class IndexBuilder;  // streaming construction (schema/index_builder.h)

  void Canonicalize();

  std::vector<std::string> property_names_;
  std::vector<Signature> signatures_;
  std::int64_t total_subjects_ = 0;
  // subject name -> signature id (optional; empty when not kept).
  std::unordered_map<std::string, int> subject_signature_;
  // Per signature, the retained subject names (parallel to signatures_; empty
  // vectors when names not kept).
  std::vector<std::vector<std::string>> subject_names_;
  // Property name -> index map backing FindProperty; rebuilt by
  // Canonicalize alongside the subject map.
  std::unordered_map<std::string, int> property_index_;
};

}  // namespace rdfsr::schema

#endif  // RDFSR_SCHEMA_SIGNATURE_INDEX_H_
