#include "rdf/term.h"

#include <utility>

namespace rdfsr::rdf {

namespace {

/// Escapes a literal lexical form per N-Triples rules.
std::string EscapeLiteral(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Term Term::Iri(std::string iri) {
  Term t;
  t.kind = TermKind::kIri;
  t.lexical = std::move(iri);
  return t;
}

Term Term::Literal(std::string lexical, std::string datatype, std::string lang) {
  Term t;
  t.kind = TermKind::kLiteral;
  t.lexical = std::move(lexical);
  t.datatype = std::move(datatype);
  t.lang = std::move(lang);
  return t;
}

Term Term::Blank(std::string label) {
  Term t;
  t.kind = TermKind::kBlank;
  t.lexical = std::move(label);
  return t;
}

std::string Term::ToString() const {
  switch (kind) {
    case TermKind::kIri:
      return "<" + lexical + ">";
    case TermKind::kBlank:
      return "_:" + lexical;
    case TermKind::kLiteral: {
      std::string out = "\"";
      out += EscapeLiteral(lexical);
      out += '"';
      if (!lang.empty()) {
        out += "@" + lang;
      } else if (!datatype.empty()) {
        out += "^^<" + datatype + ">";
      }
      return out;
    }
  }
  return "";
}

std::size_t TermHash::operator()(const TermView& t) const {
  std::size_t h = std::hash<std::string_view>()(t.lexical);
  h ^= std::hash<std::string_view>()(t.datatype) + 0x9e3779b9 + (h << 6) +
       (h >> 2);
  h ^= std::hash<std::string_view>()(t.lang) + 0x9e3779b9 + (h << 6) + (h >> 2);
  h ^= static_cast<std::size_t>(t.kind) + 0x9e3779b9 + (h << 6) + (h >> 2);
  return h;
}

}  // namespace rdfsr::rdf
