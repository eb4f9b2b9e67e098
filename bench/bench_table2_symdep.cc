// Table 2: sigma_SymDep over all unordered property pairs of DBpedia
// Persons, ranked. Headline: (givenName, surName) tops the ranking at 1.0 —
// not any pair involving the universal `name` — and the bottom of the table
// is dominated by deathPlace pairs (~0.11).

#include <algorithm>
#include <iostream>

#include "bench_util.h"
#include "eval/evaluator.h"
#include "gen/persons.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace rdfsr;  // NOLINT(build/namespaces)
  bench::InitHarness(argc, argv, "table2_symdep");
  bench::Banner(
      "Table 2: sigma_SymDep ranking on DBpedia Persons",
      "top: (givenName,surName) 1.0, (name,givenName) .95, (name,surName) "
      ".95, (name,birthDate) .53; bottom: (description,givenName) .14, "
      "(deathPlace,name) .11, (deathPlace,givenName) .11, "
      "(deathPlace,surName) .11");

  gen::PersonsConfig config;
  config.num_subjects = 50000;
  const schema::SignatureIndex index = gen::GeneratePersons(config);

  struct Entry {
    std::string p1, p2;
    double value;
  };
  std::vector<Entry> entries;
  WallTimer ranking_timer;
  for (std::size_t i = 0; i < index.num_properties(); ++i) {
    for (std::size_t j = i + 1; j < index.num_properties(); ++j) {
      Entry e;
      e.p1 = index.property_name(i);
      e.p2 = index.property_name(j);
      e.value =
          eval::ClosedFormEvaluator::SymDep(&index, e.p1, e.p2)->SigmaAll();
      entries.push_back(std::move(e));
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.value > b.value; });
  bench::Json().Record(
      "symdep_ranking",
      {{"subjects", std::to_string(config.num_subjects)}},
      ranking_timer.Seconds(),
      {{"pairs", static_cast<double>(entries.size())},
       {"top_sigma", entries.front().value},
       {"bottom_sigma", entries.back().value}});

  TextTable table({"rank", "p1", "p2", "sigma_SymDep"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == 4 && entries.size() > 8) {
      table.AddRow({"...", "...", "...", "..."});
      i = entries.size() - 4;
    }
    table.AddRow({std::to_string(i + 1), entries[i].p1, entries[i].p2,
                  FormatDouble(entries[i].value)});
  }
  std::cout << table.ToString();

  const bool top_is_given_sur =
      (entries[0].p1 == "givenName" && entries[0].p2 == "surName") ||
      (entries[0].p1 == "surName" && entries[0].p2 == "givenName");
  std::cout << "\ntop pair is (givenName, surName): "
            << (top_is_given_sur ? "yes (matches paper)" : "NO") << "\n"
            << "bottom pairs involve deathPlace: "
            << (entries.back().p1 == "deathPlace" ||
                        entries.back().p2 == "deathPlace"
                    ? "yes (matches paper)"
                    : "NO")
            << "\n";
  return 0;
}
