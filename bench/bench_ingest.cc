// bench_ingest — end-to-end ingestion: N-Triples bytes -> SignatureIndex.
//
// Motivated by the Figure 8 observation that refinement-search runtime is
// independent of the number of subjects: ingestion must not be the part that
// scales badly. This harness measures the full load chain on synthetic
// DBpedia-shaped files (one sort, ~64 signature templates, ~10 triples per
// subject) at several sizes, in two configurations:
//
//   api       api::Dataset::FromNTriplesFile — the production façade path
//             (the file mapped read-only and each page given back once
//             parsed, zero-copy parse into an IncidenceSink, IndexBuilder
//             pairs -> sort -> group, no dense intermediate)
//   api-mt8   same, with parse_threads = 8 (clamped to the input's chunk
//             count; the per-shard loaders merge serially in chunk order)
//
// One check makes the exit code meaningful: api-mt8 must yield the same
// dataset as api (the whole index — columns, signatures, every subject's
// signature — num_triples and SortIris), fingerprint-compared. Every record
// carries the effective thread count, the process peak RSS, and the input's
// `file_bytes`, so load memory reads against input size (api runs first, so
// api-mt8's peak RSS is at least api's).
//
// The `intermediate_bytes` metric is the index-construction stage's
// transient state, 8 bytes per (subject, property) pair — O(triples) — read
// against `dense_cells_equiv`, the subjects x properties cells a dense
// matrix would take.
//
// Usage: bench_ingest [--json <path>] [--triples N[,N...]]   (default sizes
// 100k and 1M; CI runs 1M in the Release job, where it archives the JSON and
// checks that api-mt8 loaded on more than one thread, and 100k under ASan.)

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/rdfsr.h"
#include "bench_util.h"
#include "rdf/vocab.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rdfsr::bench {
namespace {

constexpr const char* kSort = "http://bench/Entity";

/// The IRI of the synthetic file's i-th subject.
std::string SubjectIri(std::size_t i) {
  return "http://bench/e" + std::to_string(i);
}

/// Writes a synthetic single-sort N-Triples file of roughly `target_triples`
/// triples: 64 properties, 48 signature templates, literal-heavy objects —
/// the shape of the paper's DBpedia Persons dataset. `subjects` receives the
/// subject count (subjects are SubjectIri(0), SubjectIri(1), ...).
std::size_t WriteSyntheticFile(const std::string& path,
                               std::size_t target_triples, std::uint64_t seed,
                               std::size_t* subjects) {
  constexpr int kProps = 64;
  constexpr int kTemplates = 48;
  Rng rng(seed);

  std::vector<std::vector<int>> templates(kTemplates);
  for (auto& tmpl : templates) {
    for (int p = 0; p < kProps; ++p) {
      if (rng.Chance(0.15)) tmpl.push_back(p);
    }
    if (tmpl.empty()) tmpl.push_back(static_cast<int>(rng.Below(kProps)));
  }

  std::vector<std::string> prop_names(kProps);
  for (int p = 0; p < kProps; ++p) {
    prop_names[p] = "<http://bench/p" + std::to_string(p) + ">";
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  RDFSR_CHECK(out.good()) << "cannot write " << path;
  std::size_t triples = 0;
  std::size_t subject = 0;
  while (triples < target_triples) {
    std::string s = "<";
    s += SubjectIri(subject);
    s += '>';
    out << s << " <" << rdf::vocab::kRdfType << "> <" << kSort << "> .\n";
    ++triples;
    const auto& tmpl = templates[subject % kTemplates];
    for (int p : tmpl) {
      out << s << " " << prop_names[p] << " \"v" << subject << "_" << p
          << "\" .\n";
      ++triples;
    }
    ++subject;
  }
  *subjects = subject;
  return triples;
}

struct LoadResult {
  double seconds = 0;
  std::size_t intermediate_bytes = 0;
  std::size_t subjects = 0;
  std::size_t properties = 0;
  std::size_t signatures = 0;
  int threads = 1;             // effective parser threads of the run
  std::size_t peak_rss = 0;    // process high-water RSS after the load
  std::uint64_t fingerprint = 0;  // FingerprintDataset of the load
};

/// Order-sensitive FNV fingerprint of everything a load must reproduce at
/// any thread count: num_triples, SortIris, and the index's columns,
/// signatures and subject -> signature map (over the file's `subjects`
/// subjects).
std::uint64_t FingerprintDataset(const api::Dataset& dataset,
                                 std::size_t subjects) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  const auto mix_str = [&](const std::string& str) {
    mix(str.size());
    for (const char c : str) mix(static_cast<unsigned char>(c));
  };
  mix(dataset.num_triples());
  for (const std::string& sort : dataset.SortIris()) mix_str(sort);
  const schema::SignatureIndex& index = dataset.index();
  for (const std::string& name : index.property_names()) mix_str(name);
  mix(index.num_signatures());
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    mix(static_cast<std::uint64_t>(index.signature(i).count));
    for (const int p : index.signature(i).support()) mix(p);
  }
  for (std::size_t i = 0; i < subjects; ++i) {
    mix(static_cast<std::uint64_t>(index.FindSubjectSignature(SubjectIri(i))));
  }
  return h;
}

/// The production façade path (optionally multi-threaded parse).
LoadResult LoadApi(const std::string& path, int parse_threads,
                   std::size_t subjects) {
  WallTimer timer;
  api::DatasetOptions options;
  options.sort = kSort;
  options.parse_threads = parse_threads;
  auto dataset = api::Dataset::FromNTriplesFile(path, options);
  RDFSR_CHECK(dataset.ok()) << dataset.status().ToString();

  LoadResult r;
  r.seconds = timer.Seconds();
  r.intermediate_bytes = 8 * dataset->num_triples();  // builder pairs
  r.subjects = static_cast<std::size_t>(dataset->num_subjects());
  r.properties = dataset->num_properties();
  r.signatures = dataset->num_signatures();
  r.threads = dataset->effective_parse_threads();
  r.peak_rss = PeakRssBytes();
  r.fingerprint = FingerprintDataset(*dataset, subjects);
  return r;
}

void RecordRun(const std::string& config, std::size_t triples,
               std::size_t file_bytes, const LoadResult& r,
               double speedup_vs_1thread) {
  std::vector<std::pair<std::string, double>> metrics = {
      {"triples", static_cast<double>(triples)},
      {"file_bytes", static_cast<double>(file_bytes)},
      {"triples_per_sec", static_cast<double>(triples) / r.seconds},
      {"threads", static_cast<double>(r.threads)},
      {"peak_rss_bytes", static_cast<double>(r.peak_rss)},
      {"intermediate_bytes", static_cast<double>(r.intermediate_bytes)},
      {"dense_cells_equiv",
       static_cast<double>(r.subjects) * static_cast<double>(r.properties)},
      {"subjects", static_cast<double>(r.subjects)},
      {"properties", static_cast<double>(r.properties)},
      {"signatures", static_cast<double>(r.signatures)},
  };
  if (speedup_vs_1thread > 0) {
    metrics.emplace_back("speedup_vs_1thread", speedup_vs_1thread);
  }
  Json().Record("ingest/" + config,
                {{"config", config}, {"triples", std::to_string(triples)}},
                r.seconds, metrics);
}

int Run(const std::vector<std::size_t>& sizes) {
  Banner("Ingestion: N-Triples bytes -> SignatureIndex",
         "Section 7 datasets; Figure 8 scalability reading");

  TextTable table({"triples", "config", "seconds", "Mtriples/s",
                   "intermediate", "vs 1 thread"});
  bool ok = true;
  for (std::size_t target : sizes) {
    const std::string path =
        "/tmp/bench_ingest_" + std::to_string(target) + ".nt";
    std::size_t subjects = 0;
    const std::size_t triples =
        WriteSyntheticFile(path, target, /*seed=*/42, &subjects);
    const auto file_bytes =
        static_cast<std::size_t>(std::filesystem::file_size(path));

    const LoadResult api = LoadApi(path, /*parse_threads=*/1, subjects);
    const LoadResult api_mt = LoadApi(path, /*parse_threads=*/8, subjects);
    std::remove(path.c_str());

    // Both loads must agree on the whole dataset. Oversubscription is fine:
    // the contract holds for any thread count, so this check is meaningful
    // on any machine.
    const bool identical = api_mt.fingerprint == api.fingerprint;
    if (!identical) {
      std::cerr << "FAIL: api-mt8 dataset (index, num_triples, SortIris) "
                   "differs from api at "
                << triples << " triples\n";
      ok = false;
    }

    const auto row = [&](const std::string& config, const LoadResult& r,
                         double speedup) {
      std::ostringstream mb;
      mb << std::fixed << std::setprecision(1)
         << static_cast<double>(r.intermediate_bytes) / (1024.0 * 1024.0)
         << " MB";
      std::ostringstream rate;
      rate << std::fixed << std::setprecision(2)
           << static_cast<double>(triples) / r.seconds / 1e6;
      std::ostringstream sec;
      sec << std::fixed << std::setprecision(3) << r.seconds;
      std::ostringstream sp;
      if (speedup > 0) {
        sp << std::fixed << std::setprecision(2) << speedup << "x";
      } else {
        sp << "-";
      }
      table.AddRow({std::to_string(triples), config, sec.str(), rate.str(),
                    mb.str(), sp.str()});
      RecordRun(config, triples, file_bytes, r, speedup);
    };
    row("api", api, 0);
    row("api-mt8", api_mt, api.seconds / api_mt.seconds);
    std::cout << "  load determinism @" << triples
              << " triples: api-mt8 dataset fingerprint "
              << (identical ? "== api (bit-identical)\n"
                            : "!= api (MISMATCH)\n");
  }
  std::cout << table.ToString();
  std::cout << "\nintermediate = transient bytes of the index-construction "
               "stage: 8-byte\n  (subject, property) pairs — O(triples), "
               "independent of |S| x |P|\n";
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace rdfsr::bench

int main(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      rdfsr::bench::Json().Open(argv[++i], "bench_ingest");
    } else if (std::strcmp(argv[i], "--triples") == 0 && i + 1 < argc) {
      std::stringstream list(argv[++i]);
      std::string item;
      while (std::getline(list, item, ',')) {
        sizes.push_back(static_cast<std::size_t>(std::stoull(item)));
      }
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--json <path>] [--triples N[,N...]]\n";
      return 2;
    }
  }
  if (sizes.empty()) sizes = {100000, 1000000};
  return rdfsr::bench::Run(sizes);
}
