#include "rdf/incidence_sink.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <utility>

#include "rdf/vocab.h"
#include "util/failpoint.h"

namespace rdfsr::rdf {

namespace {

constexpr std::uint32_t kEmptySlot = static_cast<std::uint32_t>(-1);
constexpr std::size_t kArenaBlock = 64 * 1024;

/// Appends `text` with `\\` and `quote` backslash-escaped: the canonical
/// spelling of a decoded lexical form or IRI (see the header comment).
void AppendEscaped(std::string_view text, char quote, std::string* out) {
  for (const char c : text) {
    if (c == '\\' || c == quote) out->push_back('\\');
    out->push_back(c);
  }
}

/// The canonical bytes of a decoded term. Equal to the term's N-Triples
/// spelling whenever that spelling has no escape, and injective: `<`, `_`
/// and `"` tell the kinds apart, and the escaped closing quote or `>` ends
/// each part unambiguously.
void Canonicalize(const TermView& term, std::string* out) {
  out->clear();
  switch (term.kind) {
    case TermKind::kIri:
      out->push_back('<');
      AppendEscaped(term.lexical, '>', out);
      out->push_back('>');
      return;
    case TermKind::kBlank:
      out->append("_:");
      out->append(term.lexical);
      return;
    case TermKind::kLiteral:
      out->push_back('"');
      AppendEscaped(term.lexical, '"', out);
      out->push_back('"');
      if (!term.lang.empty()) {
        out->push_back('@');
        out->append(term.lang);
      } else if (!term.datatype.empty()) {
        out->append("^^<");
        AppendEscaped(term.datatype, '>', out);
        out->push_back('>');
      }
      return;
  }
}

/// Probe position seed for (subject, property, object hash): a multiply and
/// the murmur3 finalizer, so all three inputs reach every bit.
std::uint64_t SlotHash(TermId s, TermId p, std::uint64_t object_hash) {
  std::uint64_t h = object_hash ^ (((static_cast<std::uint64_t>(s) << 32) | p) *
                                   0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// The 64-bit hash of an object's canonical bytes.
std::uint64_t ObjectHash(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

/// The smallest power-of-two slot count that keeps `triples` entries at a
/// load factor of at most 3/4.
std::size_t SlotsFor(std::size_t triples) {
  std::size_t slots = 64;
  while (3 * slots < 4 * (triples + 1)) slots *= 2;
  return slots;
}

}  // namespace

std::vector<TermId> IncidenceSink::SortConstants() const {
  std::vector<TermId> sorts;
  std::vector<bool> seen(dict_.size(), false);
  for (const TypePosting& posting : type_postings_) {
    if (!seen[posting.sort]) {
      seen[posting.sort] = true;
      sorts.push_back(posting.sort);
    }
  }
  return sorts;
}

void IncidenceSink::CheckInvariants() const {
  const std::size_t num_terms = dict_.size();
  if (type_property_ != kInvalidTermId) {
    RDFSR_CHECK_LT(type_property_, num_terms) << "rdf:type id not interned";
    RDFSR_CHECK(TermView(dict_.term(type_property_)) ==
                TermView::Iri(vocab::kRdfType))
        << "type_property() is not rdf:type";
  } else {
    RDFSR_CHECK(type_postings_.empty()) << "postings without rdf:type";
  }
  std::size_t posting = 0;
  for (const SubjectProperty& pair : pairs_) {
    RDFSR_CHECK_LT(pair.subject, num_terms) << "subject id not interned";
    RDFSR_CHECK_LT(pair.property, num_terms) << "property id not interned";
    if (pair.property != type_property_) continue;
    RDFSR_CHECK_LT(posting, type_postings_.size()) << "type triple unposted";
    RDFSR_CHECK_EQ(type_postings_[posting].subject, pair.subject)
        << "postings out of type-triple order";
    RDFSR_CHECK_LT(type_postings_[posting].sort, num_terms)
        << "sort id not interned";
    ++posting;
  }
  RDFSR_CHECK_EQ(posting, type_postings_.size())
      << "postings without a type triple";
}

void IncidenceSink::Loader::Grow(std::size_t slots) {
  slots_.assign(slots, kEmptySlot);
  const std::size_t mask = slots - 1;
  for (std::size_t idx = 0; idx < sink_.pairs_.size(); ++idx) {
    const SubjectProperty& pair = sink_.pairs_[idx];
    const std::uint64_t object_hash = ObjectHash(
        std::string_view(object_bytes_[idx], object_sizes_[idx]));
    std::size_t i = SlotHash(pair.subject, pair.property, object_hash) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = static_cast<std::uint32_t>(idx);
  }
}

void IncidenceSink::Loader::Reserve(std::size_t triples) {
  sink_.pairs_.reserve(triples);
  object_bytes_.reserve(triples);
  object_sizes_.reserve(triples);
  if (SlotsFor(triples) > slots_.size()) Grow(SlotsFor(triples));
}

bool IncidenceSink::Loader::Insert(TermId s, TermId p, std::string_view object,
                                   std::uint64_t object_hash) {
  const std::size_t n = sink_.pairs_.size();
  if (4 * (n + 1) > 3 * slots_.size()) Grow(SlotsFor(n));
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = SlotHash(s, p, object_hash) & mask;
  while (true) {
    const std::uint32_t slot = slots_[i];
    if (slot == kEmptySlot) break;
    if (sink_.pairs_[slot] == SubjectProperty{s, p} &&
        object_sizes_[slot] == object.size() &&
        std::memcmp(object_bytes_[slot], object.data(), object.size()) == 0) {
      return false;
    }
    i = (i + 1) & mask;
  }
  RDFSR_CHECK_LE(object.size(), std::size_t{UINT32_MAX});
  slots_[i] = static_cast<std::uint32_t>(n);
  sink_.pairs_.push_back({s, p});
  object_bytes_.push_back(object.data());
  object_sizes_.push_back(static_cast<std::uint32_t>(object.size()));
  return true;
}

std::string_view IncidenceSink::Loader::Keep(std::string_view bytes) {
  if (bytes.size() > arena_left_) {
    const std::size_t block = std::max(kArenaBlock, bytes.size());
    arena_.push_back(std::make_unique<char[]>(block));
    arena_next_ = arena_.back().get();
    arena_left_ = block;
  }
  char* const kept = arena_next_;
  std::memcpy(kept, bytes.data(), bytes.size());
  arena_next_ += bytes.size();
  arena_left_ -= bytes.size();
  return std::string_view(kept, bytes.size());
}

TermId IncidenceSink::Loader::InternRepeated(const TermView& term,
                                             TermId* last) {
  if (*last != kInvalidTermId && TermView(sink_.dict_.term(*last)) == term) {
    return *last;
  }
  *last = sink_.dict_.Intern(term);
  return *last;
}

void IncidenceSink::Loader::Add(const TermView& s, const TermView& p,
                                const TermView& o,
                                std::string_view object_bytes) {
  const TermId sid = InternRepeated(s, &last_subject_);
  const TermId pid = InternRepeated(p, &last_predicate_);
  if (sink_.type_property_ == kInvalidTermId &&
      p == TermView::Iri(vocab::kRdfType)) {
    sink_.type_property_ = pid;
  }
  std::string_view object = object_bytes;
  if (object.empty()) {
    Canonicalize(o, &canonical_);
    object = canonical_;
  }
  if (!Insert(sid, pid, object, ObjectHash(object))) return;
  // A re-encoded object lives in scratch the next triple overwrites.
  if (object_bytes.empty()) object_bytes_.back() = Keep(object).data();
  if (pid == sink_.type_property_) {
    sink_.type_postings_.push_back({sid, sink_.dict_.Intern(o)});
  }
}

Status IncidenceSink::Loader::Append(Loader* shard,
                                     const util::CancellationToken& cancel) {
  RDFSR_CHECK(shard != nullptr && shard != this);
  RDFSR_FAILPOINT("incidence.merge-shards");
  if (cancel.stop_requested()) return cancel.status();
  const IncidenceSink& from = shard->sink_;
  // The shard's ids are its first-occurrence order, so interning them in id
  // order extends this loader's first-occurrence order.
  std::vector<TermId> remap(from.dict_.size());
  for (TermId id = 0; id < remap.size(); ++id) {
    remap[id] = sink_.dict_.Intern(from.dict_.term(id));
  }
  if (sink_.type_property_ == kInvalidTermId &&
      from.type_property_ != kInvalidTermId) {
    sink_.type_property_ = remap[from.type_property_];
  }
  // The shard's re-encoded objects now live as long as this loader.
  for (std::unique_ptr<char[]>& block : shard->arena_) {
    arena_.push_back(std::move(block));
  }
  util::PeriodicCheck check(cancel, 4096);
  Status status = Status::OK();
  std::size_t posting = 0;
  for (std::size_t i = 0; i < from.pairs_.size(); ++i) {
    if (check.ShouldStop()) {
      status = check.token().status();
      break;
    }
    const SubjectProperty& pair = from.pairs_[i];
    const bool is_type = pair.property == from.type_property_;
    const TermId sort = is_type ? from.type_postings_[posting++].sort
                                : kInvalidTermId;
    const TermId s = remap[pair.subject];
    const std::string_view object(shard->object_bytes_[i],
                                  shard->object_sizes_[i]);
    if (!Insert(s, remap[pair.property], object, ObjectHash(object))) continue;
    if (is_type) sink_.type_postings_.push_back({s, remap[sort]});
  }
  *shard = Loader();
  return status;
}

IncidenceSink IncidenceSink::Loader::Finish() {
  IncidenceSink sink = std::move(sink_);
  *this = Loader();
  return sink;
}

}  // namespace rdfsr::rdf
