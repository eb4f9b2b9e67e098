#include "core/report.h"

#include <algorithm>
#include <sstream>

#include "eval/closed_form.h"
#include "schema/ascii_view.h"
#include "util/check.h"
#include "util/table.h"

namespace rdfsr::core {

std::vector<SortProfile> ProfileRefinement(const schema::SignatureIndex& index,
                                           const SortRefinement& refinement) {
  const std::size_t num_props = index.num_properties();

  // Dataset-wide coverage per property.
  std::vector<double> global_coverage(num_props, 0.0);
  for (std::size_t p = 0; p < num_props; ++p) {
    global_coverage[p] =
        index.total_subjects() == 0
            ? 0.0
            : static_cast<double>(index.PropertyCount(p)) /
                  static_cast<double>(index.total_subjects());
  }

  std::vector<SortProfile> profiles;
  for (const std::vector<int>& sort : refinement.sorts) {
    SortProfile profile;
    profile.signatures = sort.size();
    eval::SortStats stats(&index);
    stats.AddAll(sort);
    profile.subjects = static_cast<std::int64_t>(stats.subjects());
    profile.sigma_cov = eval::CovCountsFromStats(stats).Value();
    profile.sigma_sim = eval::SimCountsFromStats(stats).Value();

    for (std::size_t p = 0; p < num_props; ++p) {
      const std::int64_t count = stats.property_count(p);
      const double coverage =
          profile.subjects == 0 ? 0.0
                                : static_cast<double>(count) /
                                      static_cast<double>(profile.subjects);
      const std::string& name = index.property_name(p);
      if (count == 0) {
        profile.absent_properties.push_back(name);
      } else if (count == profile.subjects) {
        profile.universal_properties.push_back(name);
      // lint:allow(float-compare: display bucketing, not a solver decision)
      } else if (coverage >= 0.5) {
        profile.common_properties.push_back(name);
      }
      // Coverage of the remainder of the dataset for the discrimination
      // score: remainder = global minus this sort.
      const std::int64_t rest_subjects =
          index.total_subjects() - profile.subjects;
      // With an empty remainder there is nothing to discriminate against.
      const double rest_coverage =
          rest_subjects == 0
              ? coverage
              : (global_coverage[p] * index.total_subjects() -
                 static_cast<double>(count)) /
                    rest_subjects;
      profile.discriminating_properties.emplace_back(name,
                                                     coverage - rest_coverage);
    }
    std::sort(profile.discriminating_properties.begin(),
              profile.discriminating_properties.end(),
              [](const auto& a, const auto& b) {
                return std::abs(a.second) > std::abs(b.second);
              });
    profile.discriminating_properties.resize(
        std::min<std::size_t>(3, profile.discriminating_properties.size()));
    profiles.push_back(std::move(profile));
  }
  return profiles;
}

std::string RenderReport(const schema::SignatureIndex& index,
                         const SortRefinement& refinement) {
  const std::vector<SortProfile> profiles =
      ProfileRefinement(index, refinement);
  std::ostringstream out;
  auto join = [](const std::vector<std::string>& names) {
    std::string s;
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i > 0) s += ", ";
      s += schema::AbbreviateProperty(names[i]);
    }
    return s.empty() ? std::string("(none)") : s;
  };
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const SortProfile& p = profiles[i];
    out << "implicit sort " << (i + 1) << ": " << FormatCount(p.subjects)
        << " subjects, " << p.signatures << " signatures, sigma_Cov "
        << FormatDouble(p.sigma_cov) << ", sigma_Sim "
        << FormatDouble(p.sigma_sim) << "\n";
    out << "  always present: " << join(p.universal_properties) << "\n";
    if (!p.common_properties.empty()) {
      out << "  usually present: " << join(p.common_properties) << "\n";
    }
    if (!p.absent_properties.empty()) {
      out << "  never present:  " << join(p.absent_properties) << "\n";
    }
    if (!p.discriminating_properties.empty()) {
      out << "  vs rest:        ";
      for (std::size_t d = 0; d < p.discriminating_properties.size(); ++d) {
        if (d > 0) out << ", ";
        const auto& [name, diff] = p.discriminating_properties[d];
        out << schema::AbbreviateProperty(name) << " "
            << (diff >= 0 ? "+" : "") << FormatDouble(diff);
      }
      out << "\n";
    }
  }
  return out.str();
}

}  // namespace rdfsr::core
