#include "rdf/graph.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <unordered_set>

#include "rdf/vocab.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

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
  dict_->Reserve(terms);
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
  RDFSR_CHECK_LT(t.subject, dict_->size());
  RDFSR_CHECK_LT(t.predicate, dict_->size());
  RDFSR_CHECK_LT(t.object, dict_->size());
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
  t.subject = dict_->Intern(s);
  t.predicate = dict_->Intern(p);
  t.object = dict_->Intern(o);
  return Add(t);
}

bool Graph::Add(const TermView& s, const TermView& p, const TermView& o) {
  Triple t;
  t.subject = dict_->Intern(s);
  t.predicate = dict_->Intern(p);
  t.object = dict_->Intern(o);
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

// The merge runs in barrier-separated parallel phases; within each phase,
// workers write only per-shard (or per-bucket, or per-id-range) state that no
// other worker touches. Global orders come from per-shard prefix sums over
// per-element flags, never from scheduling order, which is how the result
// stays bit-identical to the serial merge. The two hash tables built by
// atomic CAS (dictionary slots, triple dedup slots) insert keys that are
// pairwise distinct by construction, so claims need no equality probes.
Status Graph::MergeShards(std::vector<Graph>* shards_in, std::size_t count,
                          util::ThreadPool* pool,
                          const util::CancellationToken& cancel) {
  RDFSR_CHECK(pool != nullptr);
  RDFSR_CHECK(shards_in != nullptr);
  RDFSR_CHECK_LE(count, shards_in->size());
  RDFSR_CHECK(triples_.empty());
  RDFSR_CHECK_EQ(dict_->size(), 0u);
  RDFSR_FAILPOINT("graph.merge-shards");
  if (cancel.stop_requested()) return cancel.status();
  std::vector<Graph>& shards = *shards_in;
  const std::size_t m = count;
  if (m == 0) return Status::OK();

  const std::size_t lanes = static_cast<std::size_t>(pool->workers()) + 1;
  std::size_t buckets = 64;
  while (buckets < 4 * lanes) buckets *= 2;
  const std::size_t bmask = buckets - 1;

  std::vector<std::size_t> term_count(m);
  for (std::size_t s = 0; s < m; ++s) term_count[s] = shards[s].dict().size();

  // Phase 1: bin each shard's terms by hash bucket (ascending ids per list).
  std::vector<std::vector<std::vector<std::uint32_t>>> term_bins(m);
  pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      term_bins[s].resize(buckets);
      const Dictionary& dict = shards[s].dict();
      for (std::size_t t = 0; t < term_count[s]; ++t) {
        term_bins[s][TermHash{}(dict.term(static_cast<TermId>(t))) & bmask]
            .push_back(static_cast<std::uint32_t>(t));
      }
    }
  });

  // The destination is untouched through phase 3, so these inter-phase
  // checkpoints can unwind with the graph still empty.
  if (cancel.stop_requested()) return cancel.status();

  // Phase 2: per-bucket cross-shard dedup. canon[s][t] is the packed
  // (shard << 32 | local id) of the term's first occurrence; visiting shards
  // ascending and ids ascending makes "first" mean first in the byte stream.
  std::vector<std::vector<std::uint64_t>> canon(m);
  for (std::size_t s = 0; s < m; ++s) canon[s].resize(term_count[s]);
  pool->ParallelFor(buckets, [&](std::size_t bb, std::size_t be) {
    std::unordered_map<TermView, std::uint64_t, TermHash, TermEq> first;
    for (std::size_t b = bb; b < be; ++b) {
      first.clear();
      for (std::size_t s = 0; s < m; ++s) {
        const Dictionary& dict = shards[s].dict();
        for (std::uint32_t t : term_bins[s][b]) {
          const std::uint64_t self = (static_cast<std::uint64_t>(s) << 32) | t;
          canon[s][t] = first.emplace(TermView(dict.term(t)), self)
                            .first->second;
        }
      }
    }
  });

  if (cancel.stop_requested()) return cancel.status();

  // Phase 3: rank new terms within each shard, then prefix the per-shard
  // counts into id bases — merged id = base[canon shard] + rank there.
  std::vector<std::vector<std::uint32_t>> new_rank(m);
  std::vector<std::size_t> new_count(m);
  pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      new_rank[s].resize(term_count[s]);
      std::uint32_t rank = 0;
      for (std::size_t t = 0; t < term_count[s]; ++t) {
        new_rank[s][t] = rank;
        if (canon[s][t] == ((static_cast<std::uint64_t>(s) << 32) | t)) {
          ++rank;
        }
      }
      new_count[s] = rank;
    }
  });
  std::vector<TermId> base(m + 1, 0);
  for (std::size_t s = 0; s < m; ++s) {
    base[s + 1] = base[s] + static_cast<TermId>(new_count[s]);
  }
  const std::size_t total_terms = base[m];

  std::vector<std::vector<TermId>> remap(m);
  pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      remap[s].resize(term_count[s]);
      for (std::size_t t = 0; t < term_count[s]; ++t) {
        const std::uint64_t c = canon[s][t];
        const std::size_t cs = static_cast<std::size_t>(c >> 32);
        const std::uint32_t ct = static_cast<std::uint32_t>(c);
        remap[s][t] = base[cs] + new_rank[cs][ct];
      }
    }
  });

  // Last checkpoint before the destination is mutated: from here the merge
  // runs to completion (a half-built bulk dictionary is not a valid state to
  // stop in).
  if (cancel.stop_requested()) return cancel.status();

  // Phase 4: move canonical terms into the merged dictionary (no string
  // copies) and publish disjoint id ranges into its index. The bulk-append
  // failpoint throws from inside a worker: ParallelFor rethrows on the
  // calling thread (proving the pool unwinds rather than deadlocks) and the
  // catch below converts it back into a Status.
  try {
    dict_->BulkAppend(total_terms);
    pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
      for (std::size_t s = sb; s < se; ++s) {
        RDFSR_FAILPOINT_THROW("dict.bulk-append");
        Dictionary& dict = shards[s].dict();
        for (std::size_t t = 0; t < term_count[s]; ++t) {
          if (canon[s][t] == ((static_cast<std::uint64_t>(s) << 32) | t)) {
            dict_->BulkSet(remap[s][t], dict.StealTerm(static_cast<TermId>(t)));
          }
        }
      }
    });
    pool->ParallelFor(total_terms, [&](std::size_t b, std::size_t e) {
      dict_->BulkIndex(static_cast<TermId>(b), static_cast<TermId>(e));
    });
  } catch (const util::FailpointError& e) {
    return e.status();
  }

  // Phase 5: remap the shard triples to merged ids, then bin them by hash
  // bucket like the terms.
  std::vector<std::vector<std::vector<std::uint32_t>>> triple_bins(m);
  pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      triple_bins[s].resize(buckets);
      std::vector<Triple>& triples = shards[s].triples_;
      for (std::size_t i = 0; i < triples.size(); ++i) {
        Triple& t = triples[i];
        t.subject = remap[s][t.subject];
        t.predicate = remap[s][t.predicate];
        t.object = remap[s][t.object];
        triple_bins[s][TripleHash{}(t) & bmask].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  });

  // Phase 6: per-bucket cross-shard dedup — keep the first occurrence (the
  // shards already dedup internally, so only cross-shard repeats drop here).
  std::vector<std::vector<char>> keep(m);
  for (std::size_t s = 0; s < m; ++s) keep[s].resize(shards[s].size());
  pool->ParallelFor(buckets, [&](std::size_t bb, std::size_t be) {
    std::unordered_set<Triple, TripleHash> seen;
    for (std::size_t b = bb; b < be; ++b) {
      seen.clear();
      for (std::size_t s = 0; s < m; ++s) {
        const std::vector<Triple>& triples = shards[s].triples_;
        for (std::uint32_t i : triple_bins[s][b]) {
          keep[s][i] = seen.insert(triples[i]).second ? 1 : 0;
        }
      }
    }
  });

  // Phase 7: prefix the keep flags into destination positions and scatter.
  std::vector<std::vector<std::uint32_t>> dest(m);
  std::vector<std::size_t> kept_count(m);
  pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      dest[s].resize(keep[s].size());
      std::uint32_t rank = 0;
      for (std::size_t i = 0; i < keep[s].size(); ++i) {
        dest[s][i] = rank;
        rank += static_cast<std::uint32_t>(keep[s][i]);
      }
      kept_count[s] = rank;
    }
  });
  std::vector<std::size_t> tbase(m + 1, 0);
  for (std::size_t s = 0; s < m; ++s) tbase[s + 1] = tbase[s] + kept_count[s];
  triples_.resize(tbase[m]);
  pool->ParallelFor(m, [&](std::size_t sb, std::size_t se) {
    for (std::size_t s = sb; s < se; ++s) {
      const std::vector<Triple>& triples = shards[s].triples_;
      for (std::size_t i = 0; i < triples.size(); ++i) {
        if (keep[s][i]) triples_[tbase[s] + dest[s][i]] = triples[i];
      }
    }
  });

  // Phase 8: build the dedup slot index over the (pairwise distinct) merged
  // triples by atomic claims.
  std::size_t slots = 64;
  while (slots < 2 * (triples_.size() + 1)) slots *= 2;
  dedup_slots_.assign(slots, kEmptySlot);
  const std::size_t dmask = slots - 1;
  pool->ParallelFor(triples_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t idx = b; idx < e; ++idx) {
      std::size_t i = TripleHash{}(triples_[idx]) & dmask;
      while (true) {
        // owned-by-phase: dedup_slots_ is exclusive to phase 8 — assigned
        // empty before the fan-out, claimed only by these lanes, and handed
        // to single-threaded readers by the ParallelFor join below.
        // lint:allow(atomic-ref: dedup_slots_ owned by merge phase 8; published by the ParallelFor join)
        std::atomic_ref<std::uint32_t> slot(dedup_slots_[i]);
        std::uint32_t expected = kEmptySlot;
        if (slot.load(std::memory_order_relaxed) == kEmptySlot &&
            slot.compare_exchange_strong(expected,
                                         static_cast<std::uint32_t>(idx),
                                         std::memory_order_relaxed)) {
          break;
        }
        i = (i + 1) & dmask;
      }
    }
  });

  // First-appearance subject/property orders: a serial two-array-probe pass
  // (cheap relative to the parallel phases above).
  subject_seen_.assign(dict_->size(), 0);
  property_seen_.assign(dict_->size(), 0);
  for (const Triple& t : triples_) {
    if (MarkSeen(&subject_seen_, t.subject)) subjects_.push_back(t.subject);
    if (MarkSeen(&property_seen_, t.predicate)) {
      properties_.push_back(t.predicate);
    }
  }

  // Audit builds re-validate the CAS-built structures before the merged graph
  // crosses back into single-threaded use.
  RDFSR_AUDIT_CHECK_INVARIANTS(*dict_);
  RDFSR_AUDIT_CHECK_INVARIANTS(*this);
  return Status::OK();
}

void Graph::CheckInvariants() const {
  const std::size_t num_terms = dict_->size();
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
  const TermId type_prop = dict_->FindIri(vocab::kRdfType);
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
