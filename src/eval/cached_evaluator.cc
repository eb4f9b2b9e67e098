#include "eval/cached_evaluator.h"

#include "util/check.h"

namespace rdfsr::eval {

CachedEvaluator::CachedEvaluator(const Evaluator* inner) : inner_(inner) {
  RDFSR_CHECK(inner != nullptr);
}

SigmaCounts CachedEvaluator::CountsFromStats(const SortStats& stats) const {
  if (inner_->cheap_stats()) return inner_->CountsFromStats(stats);
  // Only the generic (non-cheap) path reaches the memo, so materializing the
  // word-packed key from the hybrid member set is off the closed-form hot
  // paths.
  schema::PropertySet key = stats.members().ToPropertySet();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  const SigmaCounts counts = inner_->CountsFromStats(stats);
  cache_.emplace(std::move(key), counts);
  return counts;
}

SigmaCounts CachedEvaluator::CountsFromMergedStats(const SortStats& a,
                                                   const SortStats& b) const {
  if (inner_->cheap_stats()) return inner_->CountsFromMergedStats(a, b);
  schema::PropertySet key = a.members().ToPropertySet();
  b.members().ForEach([&key](int id) { key.Insert(static_cast<std::size_t>(id)); });
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  const SigmaCounts counts = inner_->CountsFromMergedStats(a, b);
  cache_.emplace(std::move(key), counts);
  return counts;
}

}  // namespace rdfsr::eval
