#include "api/rdfsr.h"

#include <memory>
#include <utility>

#include "rdf/ntriples.h"
#include "schema/ascii_view.h"
#include "schema/index_builder.h"
#include "util/deadline.h"
#include "util/failpoint.h"
#include "util/mapped_file.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace rdfsr::api {

Result<Dataset> Dataset::Build(std::shared_ptr<const rdf::IncidenceSink> triples,
                               const std::string& sort,
                               const DatasetOptions& options,
                               util::ThreadPool* pool, int parse_threads,
                               const util::CancellationToken& cancel) {
  RDFSR_FAILPOINT("schema.index-build");
  auto rep = std::make_shared<Rep>();
  rep->parse_threads = parse_threads;
  // Both paths stream (subject, property) pairs straight into the signature
  // index — no dense subject x property matrix, and no sort slice copied
  // out (membership comes from the rdf:type postings).
  if (!sort.empty()) {
    std::size_t slice_triples = 0;
    rep->index = schema::IndexBuilder::FromSortSlice(
        *triples, sort, options.keep_subject_names, &slice_triples, pool,
        cancel);
    // A tripped token leaves a structurally valid but incomplete index:
    // discard it rather than hand out a silently truncated dataset.
    if (cancel.stop_requested()) return cancel.status();
    if (slice_triples == 0) {
      return Status::NotFound("no subjects of sort <" + sort + ">");
    }
    rep->sort = sort;
    rep->num_triples = slice_triples;
  } else {
    rep->index = schema::IndexBuilder::FromGraph(
        *triples, options.keep_subject_names, pool, cancel);
    if (cancel.stop_requested()) return cancel.status();
    rep->num_triples = triples->size();
  }
  if (options.keep_graph) rep->triples = std::move(triples);
  return Dataset(std::move(rep));
}

Result<Dataset> Dataset::FromNTriplesFile(const std::string& path,
                                          const DatasetOptions& options) {
  auto file = util::MappedFile::Open(path);
  if (!file.ok()) return file.status();
  return Load(*file, options);
}

Result<Dataset> Dataset::FromNTriplesText(std::string_view text,
                                          const DatasetOptions& options) {
  return Load(text, options);
}

template <typename Input>
Result<Dataset> Dataset::Load(const Input& input,
                              const DatasetOptions& options) {
  // The deadline covers the whole chain: parse, shard merge, index build.
  const util::Deadline deadline = util::Deadline::AfterMillis(options.deadline_ms);
  rdf::ParseOptions parse_options;
  parse_options.threads = options.parse_threads;
  parse_options.max_errors = options.max_errors;
  parse_options.diagnostics = options.diagnostics;
  parse_options.cancel = deadline.token();
  const int effective = rdf::EffectiveParseThreads(parse_options, input.size());
  parse_options.threads = effective;
  // One pool carries the whole load: sharded parse and the index build's
  // sort / grouping stages all draw from the same workers (none at one lane).
  util::ThreadPool pool(effective - 1);
  parse_options.pool = &pool;
  auto triples = std::make_shared<rdf::IncidenceSink>();
  Status st = rdf::ParseNTriplesInto(input, triples.get(), parse_options);
  if (!st.ok()) return st;
  return Build(std::move(triples), options.sort, options, &pool, effective,
               deadline.token());
}

Dataset Dataset::FromIndex(schema::SignatureIndex index) {
  auto rep = std::make_shared<Rep>();
  rep->index = std::move(index);
  return Dataset(std::move(rep));
}

Result<Dataset> Dataset::Slice(const std::string& sort_iri,
                               const DatasetOptions& options) const {
  if (rep_->triples == nullptr) {
    return Status::InvalidArgument(
        "dataset retains no triples to slice (built FromIndex or with "
        "keep_graph = false)");
  }
  return Build(rep_->triples, sort_iri, options);  // shares the parent's
}

std::vector<std::string> Dataset::SortIris() const {
  std::vector<std::string> iris;
  if (rep_->triples == nullptr) return iris;
  for (rdf::TermId id : rep_->triples->SortConstants()) {
    iris.push_back(rep_->triples->dict().term(id).lexical);
  }
  return iris;
}

std::size_t Dataset::num_triples() const { return rep_->num_triples; }

std::int64_t Dataset::num_subjects() const {
  return rep_->index.total_subjects();
}

std::size_t Dataset::num_properties() const {
  return rep_->index.num_properties();
}

std::size_t Dataset::num_signatures() const {
  return rep_->index.num_signatures();
}

const std::vector<std::string>& Dataset::property_names() const {
  return rep_->index.property_names();
}

const std::string& Dataset::sort() const { return rep_->sort; }

int Dataset::effective_parse_threads() const { return rep_->parse_threads; }

int Dataset::SignatureOf(const std::string& subject_name) const {
  return rep_->index.FindSubjectSignature(subject_name);
}

std::string Dataset::Describe() const {
  std::string out = FormatCount(rep_->index.total_subjects()) + " subjects, " +
                    std::to_string(rep_->index.num_properties()) +
                    " properties, " +
                    std::to_string(rep_->index.num_signatures()) +
                    " signatures";
  if (!rep_->sort.empty()) out += " (sort <" + rep_->sort + ">)";
  return out;
}

std::string Dataset::RenderView(std::size_t max_rows) const {
  schema::AsciiViewOptions options;
  options.max_rows = max_rows;
  return schema::RenderSignatureView(rep_->index, options);
}

const schema::SignatureIndex& Dataset::index() const { return rep_->index; }

Result<Analysis> Dataset::Analyze(const std::string& rule_spec) const {
  auto rule = ResolveRuleSpec(rule_spec);
  if (!rule.ok()) return rule.status();
  return Analysis(rep_, *std::move(rule));
}

Analysis Dataset::Analyze(rules::Rule rule) const {
  return Analysis(rep_, std::move(rule));
}

}  // namespace rdfsr::api
