#include "schema/index_builder.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rdf/vocab.h"
#include "schema/property_set.h"
#include "util/thread_pool.h"

namespace rdfsr::schema {

namespace {

// Below this many pairs one lane wins outright: the sort runs std::sort and
// the grouping one range. Low enough that the determinism tests (random
// graphs of a few thousand triples) exercise the parallel stages.
constexpr std::size_t kParallelPairCutoff = 4096;

// Sorts `pairs` on `pool`: power-of-two chunk count over fixed offsets, each
// chunk sorted in parallel, then log2(k) parallel pairwise merge rounds into
// a double buffer. The chunk bounds are pure functions of (n, lane count) and
// std::merge over integers is order-deterministic, so the result is the exact
// byte sequence std::sort produces.
void ParallelSortPairs(std::vector<std::uint64_t>* pairs,
                       util::ThreadPool* pool) {
  const std::size_t n = pairs->size();
  const std::size_t lanes =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->workers()) + 1;
  if (lanes <= 1 || n < kParallelPairCutoff) {
    std::sort(pairs->begin(), pairs->end());
    return;
  }
  std::size_t k = 1;
  while (k < lanes) k <<= 1;
  std::vector<std::size_t> bounds(k + 1);
  for (std::size_t i = 0; i <= k; ++i) bounds[i] = i * n / k;
  pool->ParallelFor(k, [&](std::size_t b, std::size_t e) {
    for (std::size_t j = b; j < e; ++j) {
      std::sort(pairs->begin() + bounds[j], pairs->begin() + bounds[j + 1]);
    }
  });
  std::vector<std::uint64_t> tmp(n);
  std::vector<std::uint64_t>* src = pairs;
  std::vector<std::uint64_t>* dst = &tmp;
  while (k > 1) {
    pool->ParallelFor(k / 2, [&](std::size_t b, std::size_t e) {
      for (std::size_t j = b; j < e; ++j) {
        std::merge(src->begin() + bounds[2 * j],
                   src->begin() + bounds[2 * j + 1],
                   src->begin() + bounds[2 * j + 1],
                   src->begin() + bounds[2 * j + 2],
                   dst->begin() + bounds[2 * j]);
      }
    });
    for (std::size_t j = 0; j <= k / 2; ++j) bounds[j] = bounds[2 * j];
    k /= 2;
    std::swap(src, dst);
  }
  if (src != pairs) pairs->swap(*src);
}

// The index of the sort slice D_t over a triple store given as two walks:
// for_each_posting(fn) calls fn(subject, sort) per rdf:type triple and
// for_each_pair(fn) calls fn(subject, property) per triple, both in order.
// Members are the subjects typed `sort`; every non-type pair of a member
// goes into the index.
template <typename ForEachPosting, typename ForEachPair>
SignatureIndex SliceIndex(const rdf::Dictionary& dict, rdf::TermId type_prop,
                          rdf::TermId sort, ForEachPosting&& for_each_posting,
                          ForEachPair&& for_each_pair, bool keep_subject_names,
                          std::size_t* slice_triples, util::ThreadPool* pool,
                          const util::CancellationToken& cancel) {
  if (slice_triples != nullptr) *slice_triples = 0;
  IndexBuilder builder;
  if (type_prop != rdf::kInvalidTermId && sort != rdf::kInvalidTermId) {
    std::vector<bool> member(dict.size(), false);
    bool any = false;
    for_each_posting([&](rdf::TermId s, rdf::TermId t) {
      if (t != sort) return;
      member[s] = true;
      any = true;
    });
    if (any) {
      std::size_t n = 0;
      for_each_pair([&](rdf::TermId s, rdf::TermId p) {
        if (p == type_prop || !member[s]) return;
        builder.Add(s, p);
        ++n;
      });
      if (slice_triples != nullptr) *slice_triples = n;
    }
  }
  return builder.Build(dict, keep_subject_names, pool, cancel);
}

// Per-range grouping output: distinct signature rows in local first-subject
// order, each with its multiplicity, and (when names are kept) each subject
// of the range in ascending order with its local row.
struct RangeGroups {
  std::unordered_map<PropertySet, std::size_t, PropertySetHash> map;
  std::vector<const PropertySet*> rows;
  std::vector<std::int64_t> counts;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> subject_rows;
};

// The dense subject id of a (row << 32) | column pair.
std::uint32_t SubjectOf(std::uint64_t pair) {
  return static_cast<std::uint32_t>(pair >> 32);
}

// Splits the sorted `pairs` into up to `target` ranges that never split a
// subject's run: the start of each range, then pairs.size().
std::vector<std::size_t> SubjectRanges(const std::vector<std::uint64_t>& pairs,
                                       std::size_t target) {
  std::vector<std::size_t> starts{0};
  for (std::size_t t = 1; t < target; ++t) {
    std::size_t pos = t * pairs.size() / target;
    // Advance to the next subject-run start.
    while (pos > 0 && pos < pairs.size() &&
           SubjectOf(pairs[pos - 1]) == SubjectOf(pairs[pos])) {
      ++pos;
    }
    if (pos > starts.back() && pos < pairs.size()) starts.push_back(pos);
  }
  starts.push_back(pairs.size());
  return starts;
}

}  // namespace

SignatureIndex IndexBuilder::Build(const rdf::Dictionary& dict,
                                   bool keep_subject_names,
                                   util::ThreadPool* pool,
                                   const util::CancellationToken& cancel) {
  SignatureIndex index;
  if (cancel.stop_requested()) return index;
  // Sorting ascending groups each subject's columns contiguously; dense ids
  // are first-appearance ordinals, so subject runs come out in M(D)'s row
  // order.
  ParallelSortPairs(&pairs_, pool);
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end()), pairs_.end());
  if (cancel.stop_requested()) return index;
  index.property_names_.reserve(properties_.size());
  for (rdf::TermId p : properties_) {
    index.property_names_.push_back(dict.term(p).lexical);
  }
  const std::size_t num_props = properties_.size();

  // Split the sorted pair array at subject boundaries into ~2 ranges per
  // lane (one range without a pool or below the cutoff), group each range
  // independently, then fold the ranges into the global signature map in
  // range order. Because ranges never split a subject and are folded
  // ascending, the global discovery order of each signature (its first
  // subject) and the subject order inside each name list are those of one
  // pass over all pairs, for any range count.
  const std::size_t lanes =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->workers()) + 1;
  const std::size_t target =
      lanes > 1 && pairs_.size() >= kParallelPairCutoff ? lanes * 2 : 1;
  const std::vector<std::size_t> starts = SubjectRanges(pairs_, target);
  std::vector<RangeGroups> ranges(starts.size() - 1);
  const auto group = [&](std::size_t r) {
    RangeGroups& rg = ranges[r];
    util::PeriodicCheck check(cancel, 1024);
    std::size_t i = starts[r];
    const std::size_t end = starts[r + 1];
    while (i < end) {
      // A trip stops the range at a subject boundary: the truncated index
      // is structurally valid, just missing the remaining subjects.
      if (check.ShouldStop()) break;
      const std::uint32_t subj = SubjectOf(pairs_[i]);
      PropertySet row(num_props);
      for (; i < end && SubjectOf(pairs_[i]) == subj; ++i) {
        row.Insert(static_cast<std::size_t>(pairs_[i] & 0xffffffffu));
      }
      auto [it, inserted] = rg.map.emplace(std::move(row), rg.rows.size());
      if (inserted) {
        rg.rows.push_back(&it->first);
        rg.counts.push_back(0);
      }
      ++rg.counts[it->second];
      if (keep_subject_names) {
        rg.subject_rows.emplace_back(subj,
                                     static_cast<std::uint32_t>(it->second));
      }
    }
  };
  if (ranges.size() == 1) {
    group(0);
  } else {
    pool->ParallelFor(ranges.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t r = b; r < e; ++r) group(r);
    });
  }

  // signature row -> position in index.signatures_. Range 0's local order
  // is the global discovery order, so its map seeds this one as it stands;
  // a row is new where its position is the next free one.
  std::unordered_map<PropertySet, std::size_t, PropertySetHash> groups =
      std::move(ranges[0].map);
  std::vector<std::size_t> global;  // local row -> position
  for (const RangeGroups& rg : ranges) {
    global.clear();
    for (std::size_t k = 0; k < rg.rows.size(); ++k) {
      const auto it =
          groups.try_emplace(*rg.rows[k], index.signatures_.size()).first;
      if (it->second == index.signatures_.size()) {
        index.signatures_.emplace_back(it->first, std::int64_t{0});
        index.subject_names_.emplace_back();
      }
      index.signatures_[it->second].count += rg.counts[k];
      global.push_back(it->second);
    }
    // Names in subject order, the order the dictionary holds them in.
    for (const auto& [subj, row] : rg.subject_rows) {
      index.subject_names_[global[row]].push_back(
          dict.term(subjects_[subj]).lexical);
    }
  }
  index.Canonicalize();
  return index;
}

SignatureIndex IndexBuilder::FromGraph(const rdf::Graph& graph,
                                       bool keep_subject_names,
                                       util::ThreadPool* pool,
                                       const util::CancellationToken& cancel) {
  IndexBuilder builder;
  builder.ReservePairs(graph.size());
  for (const rdf::Triple& t : graph.triples()) {
    builder.Add(t.subject, t.predicate);
  }
  return builder.Build(graph.dict(), keep_subject_names, pool, cancel);
}

SignatureIndex IndexBuilder::FromSortSlice(const rdf::Graph& graph,
                                           std::string_view type_iri,
                                           bool keep_subject_names,
                                           std::size_t* slice_triples,
                                           util::ThreadPool* pool,
                                           const util::CancellationToken& cancel) {
  const rdf::Dictionary& dict = graph.dict();
  const std::vector<rdf::Triple>& triples = graph.triples();
  return SliceIndex(
      dict, dict.FindIri(rdf::vocab::kRdfType), dict.FindIri(type_iri),
      [&](auto&& fn) {
        for (std::uint32_t i : graph.TypePostings()) {
          fn(triples[i].subject, triples[i].object);
        }
      },
      [&](auto&& fn) {
        for (const rdf::Triple& t : triples) fn(t.subject, t.predicate);
      },
      keep_subject_names, slice_triples, pool, cancel);
}

SignatureIndex IndexBuilder::FromGraph(const rdf::IncidenceSink& triples,
                                       bool keep_subject_names,
                                       util::ThreadPool* pool,
                                       const util::CancellationToken& cancel) {
  IndexBuilder builder;
  builder.ReservePairs(triples.size());
  for (const rdf::SubjectProperty& pair : triples.pairs()) {
    builder.Add(pair.subject, pair.property);
  }
  return builder.Build(triples.dict(), keep_subject_names, pool, cancel);
}

SignatureIndex IndexBuilder::FromSortSlice(const rdf::IncidenceSink& triples,
                                           std::string_view type_iri,
                                           bool keep_subject_names,
                                           std::size_t* slice_triples,
                                           util::ThreadPool* pool,
                                           const util::CancellationToken& cancel) {
  return SliceIndex(
      triples.dict(), triples.type_property(), triples.dict().FindIri(type_iri),
      [&](auto&& fn) {
        for (const rdf::TypePosting& t : triples.type_postings()) {
          fn(t.subject, t.sort);
        }
      },
      [&](auto&& fn) {
        for (const rdf::SubjectProperty& pair : triples.pairs()) {
          fn(pair.subject, pair.property);
        }
      },
      keep_subject_names, slice_triples, pool, cancel);
}

}  // namespace rdfsr::schema
