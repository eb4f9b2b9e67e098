#include "schema/signature_index.h"

#include <algorithm>

namespace rdfsr::schema {

void Signature::Pack(std::size_t num_properties) {
  if (packed_) {
    RDFSR_CHECK_EQ(props_.capacity(), num_properties)
        << "signature packed with wrong property count";
    return;
  }
  PropertySet props(num_properties);
  int prev = -1;
  for (int p : pending_support_) {
    RDFSR_CHECK_GT(p, prev) << "support ids must be strictly increasing";
    RDFSR_CHECK_LT(static_cast<std::size_t>(p), num_properties);
    props.Insert(static_cast<std::size_t>(p));
    prev = p;
  }
  props_ = std::move(props);
  packed_ = true;
  pending_support_.clear();
  pending_support_.shrink_to_fit();
}

SignatureIndex SignatureIndex::FromSignatures(
    std::vector<std::string> property_names, std::vector<Signature> signatures) {
  SignatureIndex index;
  index.property_names_ = std::move(property_names);
  index.signatures_ = std::move(signatures);
  // A valid dataset view has no unused columns (P(D) only contains properties
  // mentioned by some triple) and no empty supports (every subject in S(D)
  // appears in a triple, hence has at least one property).
  PropertySet used(index.property_names_.size());
  for (Signature& sig : index.signatures_) {
    RDFSR_CHECK_GT(sig.count, 0) << "empty signature set";
    sig.Pack(index.property_names_.size());
    RDFSR_CHECK(!sig.props().Empty()) << "signature with empty support";
    used.UnionWith(sig.props());
  }
  for (std::size_t p = 0; p < index.property_names_.size(); ++p) {
    RDFSR_CHECK(used.Contains(p)) << "property '" << index.property_names_[p]
                                  << "' unused by every signature";
  }
  index.subject_names_.resize(index.signatures_.size());
  index.Canonicalize();
  return index;
}

void SignatureIndex::Canonicalize() {
  std::vector<std::size_t> order(signatures_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (signatures_[a].count != signatures_[b].count) {
      return signatures_[a].count > signatures_[b].count;
    }
    return PropertySet::CompareLex(signatures_[a].props(),
                                   signatures_[b].props()) < 0;
  });

  std::vector<Signature> sigs;
  std::vector<std::vector<std::string>> names;
  sigs.reserve(signatures_.size());
  names.reserve(signatures_.size());
  for (std::size_t i : order) {
    sigs.push_back(std::move(signatures_[i]));
    names.push_back(std::move(subject_names_[i]));
  }
  signatures_ = std::move(sigs);
  subject_names_ = std::move(names);

  total_subjects_ = 0;
  subject_signature_.clear();
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    total_subjects_ += signatures_[i].count;
    for (const std::string& name : subject_names_[i]) {
      subject_signature_.emplace(name, static_cast<int>(i));
    }
  }
  // Built here rather than lazily so that const queries on a shared index
  // never mutate (indexes are shared across Analyses, possibly cross-thread).
  property_index_.clear();
  property_index_.reserve(property_names_.size());
  for (std::size_t p = 0; p < property_names_.size(); ++p) {
    property_index_.emplace(property_names_[p], static_cast<int>(p));
  }
  // Every construction path (FromSignatures, Restrict, and IndexBuilder)
  // funnels through here, so this one audit hook covers the whole
  // schema-layer boundary.
  RDFSR_AUDIT_CHECK_INVARIANTS(*this);
}

void SignatureIndex::CheckInvariants() const {
  const std::size_t num_props = property_names_.size();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < signatures_.size(); ++i) {
    const Signature& sig = signatures_[i];
    RDFSR_CHECK(sig.packed_) << "signature " << i << " not packed";
    RDFSR_CHECK_EQ(sig.props().capacity(), num_props)
        << "signature " << i << " packed at wrong capacity";
    RDFSR_CHECK_GT(sig.count, 0) << "signature " << i << " has empty set";
    RDFSR_CHECK(!sig.props().Empty())
        << "signature " << i << " has empty support";
    total += sig.count;
    if (i > 0) {
      const Signature& prev = signatures_[i - 1];
      const bool canonical =
          prev.count > sig.count ||
          (prev.count == sig.count &&
           PropertySet::CompareLex(prev.props(), sig.props()) < 0);
      RDFSR_CHECK(canonical) << "signatures " << i - 1 << ", " << i
                             << " violate (count desc, lex asc) order";
    }
  }
  RDFSR_CHECK_EQ(total, total_subjects_) << "total_subjects out of sync";

  RDFSR_CHECK_EQ(property_index_.size(), num_props)
      << "property map size mismatch";
  for (std::size_t p = 0; p < num_props; ++p) {
    const auto it = property_index_.find(property_names_[p]);
    RDFSR_CHECK(it != property_index_.end() &&
                it->second == static_cast<int>(p))
        << "property map inconsistent at column " << p;
  }

  RDFSR_CHECK_EQ(subject_names_.size(), signatures_.size())
      << "subject-name rows out of sync with signatures";
  std::size_t named = 0;
  for (std::size_t i = 0; i < subject_names_.size(); ++i) {
    if (subject_names_[i].empty()) continue;
    RDFSR_CHECK_EQ(static_cast<std::int64_t>(subject_names_[i].size()),
                   signatures_[i].count)
        << "signature " << i << " name count != subject count";
    named += subject_names_[i].size();
    for (const std::string& name : subject_names_[i]) {
      const auto it = subject_signature_.find(name);
      RDFSR_CHECK(it != subject_signature_.end() &&
                  it->second == static_cast<int>(i))
          << "subject map inconsistent for '" << name << "'";
    }
  }
  RDFSR_CHECK_EQ(subject_signature_.size(), named)
      << "subject map holds entries for unnamed signatures";
}

int SignatureIndex::FindProperty(const std::string& name) const {
  auto it = property_index_.find(name);
  return it == property_index_.end() ? -1 : it->second;
}

std::int64_t SignatureIndex::PropertyCount(std::size_t prop) const {
  RDFSR_CHECK_LT(prop, property_names_.size());
  std::int64_t total = 0;
  for (const Signature& sig : signatures_) {
    if (sig.props().Contains(prop)) total += sig.count;
  }
  return total;
}

int SignatureIndex::FindSubjectSignature(const std::string& subject_name) const {
  auto it = subject_signature_.find(subject_name);
  return it == subject_signature_.end() ? -1 : it->second;
}

std::int64_t SignatureIndex::CountNamedSubjects(
    const std::vector<std::string>& names, std::size_t sig) const {
  std::int64_t total = 0;
  for (const std::string& name : names) {
    auto it = subject_signature_.find(name);
    if (it != subject_signature_.end() &&
        it->second == static_cast<int>(sig)) {
      ++total;
    }
  }
  return total;
}

PropertySet SignatureIndex::SupportUnion(const std::vector<int>& sig_ids) const {
  PropertySet used(property_names_.size());
  for (int id : sig_ids) {
    RDFSR_CHECK_GE(id, 0);
    RDFSR_CHECK_LT(static_cast<std::size_t>(id), signatures_.size());
    used.UnionWith(signatures_[id].props());
  }
  return used;
}

SignatureIndex SignatureIndex::Restrict(const std::vector<int>& sig_ids,
                                        std::vector<int>* kept_props) const {
  // Union of member supports defines the retained columns P(D_i).
  const PropertySet used = SupportUnion(sig_ids);
  std::vector<int> prop_map(property_names_.size(), -1);
  SignatureIndex sub;
  used.ForEach([&](int p) {
    prop_map[p] = static_cast<int>(sub.property_names_.size());
    sub.property_names_.push_back(property_names_[p]);
    if (kept_props != nullptr) kept_props->push_back(p);
  });
  const std::size_t sub_props = sub.property_names_.size();
  for (int id : sig_ids) {
    PropertySet remapped(sub_props);
    signatures_[id].props().ForEach(
        [&](int p) { remapped.Insert(static_cast<std::size_t>(prop_map[p])); });
    sub.signatures_.emplace_back(std::move(remapped), signatures_[id].count);
    sub.subject_names_.push_back(subject_names_[id]);
  }
  sub.Canonicalize();
  return sub;
}

}  // namespace rdfsr::schema
