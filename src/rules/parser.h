// Text parser for the rule language.
//
// Concrete syntax (whitespace-insensitive):
//
//   rule     := formula "->" formula
//   formula  := conj ("||" conj)*
//   conj     := unary ("&&" unary)*
//   unary    := "!" unary | "(" formula ")" | atom
//   atom     := "val"  "(" var ")" eq ( "0" | "1" | "val"  "(" var ")" )
//             | "subj" "(" var ")" eq ( const      | "subj" "(" var ")" )
//             | "prop" "(" var ")" eq ( const      | "prop" "(" var ")" )
//             | var eq var
//   eq       := "=" | "!="            ("!=" is sugar for negated equality)
//   const    := "<" uri ">" | identifier
//   var      := identifier            (not one of val/subj/prop)
//
// "(" and "!" may nest at most 256 levels deep, combined, and one formula or
// rule may join at most 1024 operands with "&&" and "||" (1023 operators in
// total); deeper or longer input is a ParseError rather than a stack overflow.
//
// Examples (the builtin rules of Section 2.2 in this syntax):
//   Cov:    c = c -> val(c) = 1
//   Sim:    !(c1 = c2) && prop(c1) = prop(c2) && val(c1) = 1 -> val(c2) = 1
//   Dep:    subj(c1) = subj(c2) && prop(c1) = p1 && prop(c2) = p2 &&
//           val(c1) = 1 -> val(c2) = 1

#ifndef RDFSR_RULES_PARSER_H_
#define RDFSR_RULES_PARSER_H_

#include <string_view>

#include "rules/ast.h"
#include "util/status.h"

namespace rdfsr::rules {

/// Parses a formula; fails with ParseError (position included) on bad input.
Result<FormulaPtr> ParseFormula(std::string_view text);

/// Parses a full rule "phi1 -> phi2" and validates the variable condition.
Result<Rule> ParseRule(std::string_view text, std::string name = "");

}  // namespace rdfsr::rules

#endif  // RDFSR_RULES_PARSER_H_
