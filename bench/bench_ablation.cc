// Ablations over the encoding decisions documented in the header comment of
// src/core/ilp_builder.h ("Optimizations relative to the paper's literal
// encoding"): symmetry breaking (precedence vs the paper's hash constraints vs
// none), continuous vs binary auxiliary variables, sign-directed vs
// paper-literal linking, and greedy-first vs pure MIP. Each variant answers
// the same decision instances; we report encoding sizes, node counts, and
// wall time.

#include <iostream>

#include "bench_util.h"
#include "core/ilp_builder.h"
#include "eval/enumerator.h"
#include "gen/persons.h"
#include "ilp/branch_and_bound.h"
#include "util/timer.h"

namespace rdfsr {
namespace {

struct Variant {
  const char* name;
  core::IlpBuildOptions build;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"default (precedence, cont-aux, sign-link, subst)", {}});
  {
    Variant v{"paper hash symmetry", {}};
    v.build.symmetry = core::IlpBuildOptions::SymmetryBreaking::kHash;
    variants.push_back(v);
  }
  {
    Variant v{"no symmetry breaking", {}};
    v.build.symmetry = core::IlpBuildOptions::SymmetryBreaking::kNone;
    variants.push_back(v);
  }
  {
    Variant v{"binary aux (U,T integer)", {}};
    v.build.continuous_aux = false;
    variants.push_back(v);
  }
  {
    Variant v{"paper-literal linking", {}};
    v.build.sign_directed_linking = false;
    v.build.substitute_singleton_taus = false;
    variants.push_back(v);
  }
  return variants;
}

}  // namespace
}  // namespace rdfsr

int main(int argc, char** argv) {
  using namespace rdfsr;  // NOLINT(build/namespaces)
  bench::InitHarness(argc, argv, "ablation");
  bench::Banner("Ablation: encoding variants on a DBpedia-Persons instance",
                "encoding optimizations of core/ilp_builder.h; all variants "
                "must agree on the decision");

  gen::PersonsConfig config;
  config.num_subjects = 600;  // small instance so every variant terminates
  const schema::SignatureIndex index = gen::GeneratePersons(config);
  auto cov = eval::ClosedFormEvaluator::Cov(&index);
  const auto taus = eval::EnumerateTauCounts(cov->rule(), index);
  std::cout << "dataset: " << index.num_signatures() << " signatures, "
            << taus.size() << " non-zero taus\n";

  // A feasible and a (likely) infeasible threshold around the optimum.
  const double sigma = cov->SigmaAll();
  const Rational feasible = Rational::FromDouble(sigma + 0.05);
  const Rational hard = Rational::FromDouble(0.99);

  for (const Rational& theta : {feasible, hard}) {
    std::cout << "\n--- k = 2, theta = " << theta.ToString() << " ---\n";
    TextTable table({"variant", "rows", "cols", "decision", "nodes", "ms"});
    for (const auto& variant : Variants()) {
      WallTimer timer;
      core::IlpEncoding enc = core::BuildRefinementIlp(
          index, cov->rule(), taus, 2, theta, variant.build);
      ilp::MipOptions mip;
      mip.time_limit_seconds = 20.0;
      const ilp::MipResult result = ilp::SolveMip(enc.model, mip);
      bench::Json().Record(
          "mip_variant",
          {{"variant", variant.name}, {"theta", theta.ToString()}},
          timer.Seconds(),
          {{"rows", static_cast<double>(enc.model.num_constraints())},
           {"cols", static_cast<double>(enc.model.num_variables())},
           {"nodes", static_cast<double>(result.nodes)}});
      table.AddRow({variant.name, std::to_string(enc.model.num_constraints()),
                    std::to_string(enc.model.num_variables()),
                    ilp::MipStatusName(result.status),
                    std::to_string(result.nodes),
                    FormatDouble(timer.Millis(), 0)});
    }
    std::cout << table.ToString();
  }

  // Greedy-first vs pure MIP on the full sequential theta search.
  std::cout << "\n--- greedy-first vs pure MIP (highest-theta, k = 2) ---\n";
  TextTable table({"mode", "theta found", "seconds"});
  for (bool greedy_first : {true, false}) {
    core::SolverOptions options = bench::BenchSolverOptions();
    options.greedy_first = greedy_first;
    core::RefinementSolver solver(cov.get(), options);
    WallTimer timer;
    const core::HighestThetaResult best = solver.FindHighestTheta(2);
    bench::Json().Record(
        "highest_theta",
        {{"mode", greedy_first ? "greedy-first" : "pure-mip"}, {"k", "2"}},
        timer.Seconds(), {{"theta", best.theta.ToDouble()}});
    table.AddRow({greedy_first ? "greedy-first" : "pure MIP",
                  FormatDouble(best.theta.ToDouble()),
                  FormatDouble(timer.Seconds(), 2)});
  }
  std::cout << table.ToString();

  // Sequential (paper) vs bisection theta search. The paper prefers the
  // sequential scan: "it has proven to be much slower to find an instance
  // infeasible than to find a solution to a feasible instance", and
  // bisection probes more infeasible instances.
  std::cout << "\n--- sequential (paper) vs bisection theta search ---\n";
  TextTable search_table({"strategy", "theta found", "instances", "seconds"});
  for (bool binary : {false, true}) {
    core::SolverOptions options = bench::BenchSolverOptions();
    options.binary_theta_search = binary;
    core::RefinementSolver solver(cov.get(), options);
    WallTimer timer;
    const core::HighestThetaResult best = solver.FindHighestTheta(2);
    bench::Json().Record(
        "theta_search",
        {{"strategy", binary ? "bisection" : "sequential"}, {"k", "2"}},
        timer.Seconds(),
        {{"theta", best.theta.ToDouble()},
         {"instances", static_cast<double>(best.instances)}});
    search_table.AddRow({binary ? "bisection" : "sequential (paper)",
                         FormatDouble(best.theta.ToDouble()),
                         std::to_string(best.instances),
                         FormatDouble(timer.Seconds(), 2)});
  }
  std::cout << search_table.ToString();
  return 0;
}
