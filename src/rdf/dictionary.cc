#include "rdf/dictionary.h"

namespace rdfsr::rdf {

namespace {
constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);

std::size_t SlotsFor(std::size_t terms) {
  std::size_t slots = 64;
  while (slots < 2 * (terms + 1)) slots *= 2;
  return slots;
}
}  // namespace

void Dictionary::Rehash(std::size_t slots) {
  slots_.assign(slots, kEmptySlot);
  const std::size_t mask = slots - 1;
  for (std::size_t id = 0; id < terms_.size(); ++id) {
    std::size_t i = TermHash{}(terms_[id]) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(id);
  }
}

void Dictionary::Reserve(std::size_t terms) {
  const std::size_t slots = SlotsFor(terms);
  if (slots > slots_.size()) Rehash(slots);
}

TermId Dictionary::Intern(const TermView& term) {
  if (slots_.size() < 2 * (terms_.size() + 1)) {
    Rehash(slots_.empty() ? 64 : slots_.size() * 2);
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = TermHash{}(term) & mask;
  while (true) {
    const std::uint32_t slot = slots_[i];
    if (slot == kEmptySlot) {
      const TermId id = static_cast<TermId>(terms_.size());
      terms_.push_back(term.ToTerm());
      slots_[i] = id;
      return id;
    }
    if (TermEq{}(terms_[slot], term)) return slot;
    i = (i + 1) & mask;
  }
}

TermId Dictionary::Find(const TermView& term) const {
  if (slots_.empty()) return kInvalidTermId;
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = TermHash{}(term) & mask;
  while (true) {
    const std::uint32_t slot = slots_[i];
    if (slot == kEmptySlot) return kInvalidTermId;
    if (TermEq{}(terms_[slot], term)) return slot;
    i = (i + 1) & mask;
  }
}

void Dictionary::CheckInvariants() const {
  RDFSR_CHECK_GE(slots_.size(), terms_.empty() ? 0 : 2 * terms_.size())
      << "slot index under-sized for the interned terms";
  std::size_t filled = 0;
  for (std::uint32_t slot : slots_) {
    if (slot == kEmptySlot) continue;
    ++filled;
    RDFSR_CHECK_LT(slot, terms_.size()) << "slot points past the term store";
  }
  RDFSR_CHECK_EQ(filled, terms_.size())
      << "slot index does not cover every term exactly once";
  for (std::size_t id = 0; id < terms_.size(); ++id) {
    RDFSR_CHECK_EQ(Find(TermView(terms_[id])), static_cast<TermId>(id))
        << "round-trip failed for term id " << id;
  }
}

}  // namespace rdfsr::rdf
