#include "schema/index_io.h"

#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

namespace rdfsr::schema {

namespace {
constexpr const char* kHeader = "# rdfsr-signature-index v1";
}  // namespace

std::string SerializeIndex(const SignatureIndex& index) {
  std::ostringstream out;
  out << kHeader << "\n";
  out << "properties " << index.num_properties() << "\n";
  for (std::size_t p = 0; p < index.num_properties(); ++p) {
    out << index.property_name(p) << "\n";
  }
  out << "signatures " << index.num_signatures() << "\n";
  for (std::size_t i = 0; i < index.num_signatures(); ++i) {
    const Signature& sig = index.signature(i);
    out << sig.count << " " << sig.props().Popcount();
    for (int p : sig.props()) out << " " << p;
    out << "\n";
  }
  return out.str();
}

Result<SignatureIndex> ParseIndex(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;

  auto next_line = [&](const char* what) -> Result<std::string> {
    if (!std::getline(in, line)) {
      return Status::ParseError(std::string("unexpected end of input: "
                                            "expected ") + what);
    }
    return line;
  };

  Result<std::string> header = next_line("header");
  if (!header.ok()) return header.status();
  if (*header != kHeader) {
    return Status::ParseError("bad header: '" + *header + "'");
  }

  Result<std::string> props_line = next_line("'properties <n>'");
  if (!props_line.ok()) return props_line.status();
  std::size_t num_props = 0;
  {
    std::istringstream ls(*props_line);
    std::string keyword;
    if (!(ls >> keyword >> num_props) || keyword != "properties") {
      return Status::ParseError("expected 'properties <n>', got '" +
                                *props_line + "'");
    }
  }
  std::vector<std::string> names;
  std::unordered_set<std::string> seen_names;
  for (std::size_t p = 0; p < num_props; ++p) {
    Result<std::string> name = next_line("property name");
    if (!name.ok()) return name.status();
    if (name->empty()) return Status::ParseError("empty property name");
    if (!seen_names.insert(*name).second) {
      return Status::ParseError("duplicate property name '" + *name + "'");
    }
    names.push_back(*name);
  }

  Result<std::string> sigs_line = next_line("'signatures <n>'");
  if (!sigs_line.ok()) return sigs_line.status();
  std::size_t num_sigs = 0;
  {
    std::istringstream ls(*sigs_line);
    std::string keyword;
    if (!(ls >> keyword >> num_sigs) || keyword != "signatures") {
      return Status::ParseError("expected 'signatures <n>', got '" +
                                *sigs_line + "'");
    }
  }
  std::vector<Signature> signatures;
  std::set<std::vector<int>> seen_supports;
  std::int64_t total_subjects = 0;
  for (std::size_t i = 0; i < num_sigs; ++i) {
    Result<std::string> row = next_line("signature row");
    if (!row.ok()) return row.status();
    std::istringstream ls(*row);
    std::int64_t count = 0;
    std::size_t support_size = 0;
    if (!(ls >> count >> support_size)) {
      return Status::ParseError("bad signature row: '" + *row + "'");
    }
    if (count <= 0) {
      return Status::ParseError("signature with non-positive count");
    }
    if (count > std::numeric_limits<std::int64_t>::max() - total_subjects) {
      return Status::ParseError("signature counts sum past 2^63 - 1");
    }
    total_subjects += count;
    std::vector<int> support;
    int prev = -1;
    for (std::size_t j = 0; j < support_size; ++j) {
      int p = -1;
      if (!(ls >> p)) {
        return Status::ParseError("truncated support in row: '" + *row + "'");
      }
      if (p <= prev || static_cast<std::size_t>(p) >= num_props) {
        return Status::ParseError(
            "support ids must be strictly increasing property ids: '" + *row +
            "'");
      }
      support.push_back(p);
      prev = p;
    }
    int extra;
    if (ls >> extra) {
      return Status::ParseError("trailing tokens in row: '" + *row + "'");
    }
    if (support.empty()) {
      return Status::ParseError("signature with empty support");
    }
    if (!seen_supports.insert(support).second) {
      return Status::ParseError("duplicate signature support in row: '" +
                                *row + "'");
    }
    signatures.emplace_back(std::move(support), count);
  }

  // FromSignatures re-validates (all properties used, supports sorted).
  // Catch its invariants here with a friendlier error for unused columns.
  std::vector<bool> used(num_props, false);
  for (const Signature& sig : signatures) {
    for (int p : sig.support()) used[p] = true;
  }
  for (std::size_t p = 0; p < num_props; ++p) {
    if (!used[p]) {
      return Status::ParseError("property '" + names[p] +
                                "' unused by every signature");
    }
  }
  return SignatureIndex::FromSignatures(std::move(names),
                                        std::move(signatures));
}

Status WriteIndexFile(const SignatureIndex& index, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out << SerializeIndex(index);
  if (!out) return Status::Internal("write failed: " + path);
  return Status::OK();
}

Result<SignatureIndex> ReadIndexFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseIndex(buf.str());
}

}  // namespace rdfsr::schema
