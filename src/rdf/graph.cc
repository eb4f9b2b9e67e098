#include "rdf/graph.h"

#include <algorithm>
#include <unordered_set>

#include "rdf/vocab.h"

namespace rdfsr::rdf {

namespace {
constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);
}  // namespace

bool Graph::MarkSeen(std::vector<std::uint8_t>* seen, TermId id) {
  if (seen->size() <= id) {
    seen->resize(std::max<std::size_t>(id + 1, seen->size() * 2), 0);
  }
  if ((*seen)[id]) return false;
  (*seen)[id] = 1;
  return true;
}

void Graph::DedupGrow(std::size_t slots) {
  dedup_slots_.assign(slots, kEmptySlot);
  const std::size_t mask = slots - 1;
  for (std::size_t idx = 0; idx < triples_.size(); ++idx) {
    std::size_t i = TripleHash{}(triples_[idx]) & mask;
    while (dedup_slots_[i] != kEmptySlot) i = (i + 1) & mask;
    dedup_slots_[i] = static_cast<std::uint32_t>(idx);
  }
}

void Graph::Reserve(std::size_t triples, std::size_t terms) {
  triples_.reserve(triples);
  std::size_t slots = dedup_slots_.empty() ? 64 : dedup_slots_.size();
  while (slots < 2 * (triples + 1)) slots *= 2;
  if (slots > dedup_slots_.size()) DedupGrow(slots);
  subject_seen_.reserve(terms);
  property_seen_.reserve(terms);
  dict_.Reserve(terms);
}

bool Graph::DedupInsert(const Triple& t) {
  if (dedup_slots_.size() < 2 * (triples_.size() + 1)) {
    DedupGrow(dedup_slots_.empty() ? 64 : dedup_slots_.size() * 2);
  }
  const std::size_t mask = dedup_slots_.size() - 1;
  std::size_t i = TripleHash{}(t) & mask;
  while (true) {
    const std::uint32_t slot = dedup_slots_[i];
    if (slot == kEmptySlot) {
      dedup_slots_[i] = static_cast<std::uint32_t>(triples_.size());
      return true;
    }
    if (triples_[slot] == t) return false;
    i = (i + 1) & mask;
  }
}

bool Graph::Add(Triple t) {
  RDFSR_CHECK_LT(t.subject, dict_.size());
  RDFSR_CHECK_LT(t.predicate, dict_.size());
  RDFSR_CHECK_LT(t.object, dict_.size());
  if (!DedupInsert(t)) return false;
  triples_.push_back(t);
  if (MarkSeen(&subject_seen_, t.subject)) subjects_.push_back(t.subject);
  if (MarkSeen(&property_seen_, t.predicate)) {
    properties_.push_back(t.predicate);
  }
  return true;
}

bool Graph::Add(const Term& s, const Term& p, const Term& o) {
  Triple t;
  t.subject = dict_.Intern(s);
  t.predicate = dict_.Intern(p);
  t.object = dict_.Intern(o);
  return Add(t);
}

bool Graph::Add(const TermView& s, const TermView& p, const TermView& o) {
  Triple t;
  t.subject = dict_.Intern(s);
  t.predicate = dict_.Intern(p);
  t.object = dict_.Intern(o);
  return Add(t);
}

bool Graph::AddIri(const std::string& s, const std::string& p,
                   const std::string& o) {
  return Add(Term::Iri(s), Term::Iri(p), Term::Iri(o));
}

bool Graph::AddLiteral(const std::string& s, const std::string& p,
                       const std::string& literal) {
  return Add(Term::Iri(s), Term::Iri(p), Term::Literal(literal));
}

void Graph::CheckInvariants() const {
  const std::size_t num_terms = dict_.size();
  std::unordered_set<Triple, TripleHash> seen;
  seen.reserve(triples_.size() * 2);
  for (const Triple& t : triples_) {
    RDFSR_CHECK_LT(t.subject, num_terms) << "subject id not interned";
    RDFSR_CHECK_LT(t.predicate, num_terms) << "predicate id not interned";
    RDFSR_CHECK_LT(t.object, num_terms) << "object id not interned";
    RDFSR_CHECK(seen.insert(t).second)
        << "duplicate triple in the deduplicated store";
  }

  RDFSR_CHECK_GE(dedup_slots_.size(),
                 triples_.empty() ? 0 : 2 * triples_.size())
      << "dedup slot index under-sized";
  std::size_t filled = 0;
  for (std::uint32_t slot : dedup_slots_) {
    if (slot == kEmptySlot) continue;
    ++filled;
    RDFSR_CHECK_LT(slot, triples_.size()) << "dedup slot out of range";
  }
  RDFSR_CHECK_EQ(filled, triples_.size())
      << "dedup index does not cover every triple exactly once";

  // subjects()/properties() must be the first-appearance orders of triples().
  std::unordered_set<TermId> seen_subjects, seen_properties;
  std::size_t next_subject = 0, next_property = 0;
  for (const Triple& t : triples_) {
    if (seen_subjects.insert(t.subject).second) {
      RDFSR_CHECK_LT(next_subject, subjects_.size());
      RDFSR_CHECK_EQ(subjects_[next_subject], t.subject)
          << "subjects() out of first-appearance order";
      ++next_subject;
    }
    if (seen_properties.insert(t.predicate).second) {
      RDFSR_CHECK_LT(next_property, properties_.size());
      RDFSR_CHECK_EQ(properties_[next_property], t.predicate)
          << "properties() out of first-appearance order";
      ++next_property;
    }
  }
  RDFSR_CHECK_EQ(next_subject, subjects_.size())
      << "subjects() lists terms no triple mentions";
  RDFSR_CHECK_EQ(next_property, properties_.size())
      << "properties() lists terms no triple mentions";
}

const std::vector<std::uint32_t>& Graph::TypePostings() const {
  if (type_scanned_ == triples_.size()) return type_postings_;
  const TermId type_prop = dict_.FindIri(vocab::kRdfType);
  if (type_prop != kInvalidTermId) {
    for (std::size_t i = type_scanned_; i < triples_.size(); ++i) {
      if (triples_[i].predicate == type_prop) {
        type_postings_.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }
  type_scanned_ = triples_.size();
  return type_postings_;
}

std::vector<TermId> Graph::SortConstants() const {
  std::vector<TermId> sorts;
  std::unordered_set<TermId> seen;
  for (std::uint32_t i : TypePostings()) {
    if (seen.insert(triples_[i].object).second) {
      sorts.push_back(triples_[i].object);
    }
  }
  return sorts;
}

}  // namespace rdfsr::rdf
