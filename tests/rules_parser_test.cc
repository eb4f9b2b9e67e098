// Unit tests for the rule-language parser and printer (round trips, operator
// precedence, builtin forms, error reporting).

#include <gtest/gtest.h>

#include <string>

#include "rules/ast.h"
#include "rules/builtins.h"
#include "rules/parser.h"
#include "rules/printer.h"

namespace rdfsr::rules {
namespace {

TEST(ParserTest, ParsesAtoms) {
  EXPECT_TRUE(ParseFormula("val(c) = 1").ok());
  EXPECT_TRUE(ParseFormula("val(c) = 0").ok());
  EXPECT_TRUE(ParseFormula("prop(c) = name").ok());
  EXPECT_TRUE(ParseFormula("prop(c) = <http://x/p>").ok());
  EXPECT_TRUE(ParseFormula("subj(c) = <http://x/s>").ok());
  EXPECT_TRUE(ParseFormula("c1 = c2").ok());
  EXPECT_TRUE(ParseFormula("val(c1) = val(c2)").ok());
  EXPECT_TRUE(ParseFormula("subj(c1) = subj(c2)").ok());
  EXPECT_TRUE(ParseFormula("prop(c1) = prop(c2)").ok());
}

TEST(ParserTest, NotEqualsIsSugarForNegation) {
  auto f = ParseFormula("c1 != c2");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, FormulaKind::kNot);
  EXPECT_EQ((*f)->left->kind, FormulaKind::kVarEq);
}

TEST(ParserTest, PrecedenceAndBindsTighterThanOr) {
  auto f = ParseFormula("val(a) = 1 || val(b) = 1 && val(c) = 1");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, FormulaKind::kOr);
  EXPECT_EQ((*f)->right->kind, FormulaKind::kAnd);
}

TEST(ParserTest, ParensOverridePrecedence) {
  auto f = ParseFormula("(val(a) = 1 || val(b) = 1) && val(c) = 1");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, FormulaKind::kAnd);
  EXPECT_EQ((*f)->left->kind, FormulaKind::kOr);
}

TEST(ParserTest, NotBindsTightest) {
  auto f = ParseFormula("!val(a) = 1 && val(b) = 1");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind, FormulaKind::kAnd);
  EXPECT_EQ((*f)->left->kind, FormulaKind::kNot);
}

TEST(ParserTest, ParsesRules) {
  auto r = ParseRule("c = c -> val(c) = 1");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->variables().size(), 1u);
}

TEST(ParserTest, RejectsConsequentWithFreshVariables) {
  auto r = ParseRule("val(c1) = 1 -> val(c2) = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("c2"), std::string::npos);
}

TEST(ParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(ParseFormula("val(c = 1").ok());
  EXPECT_FALSE(ParseFormula("val(c) == 1").ok());
  EXPECT_FALSE(ParseFormula("val(c) = 2").ok());
  EXPECT_FALSE(ParseFormula("val(c) = ").ok());
  EXPECT_FALSE(ParseFormula("prop(c) = prop(").ok());
  EXPECT_FALSE(ParseFormula("val(c) = 1 &&").ok());
  EXPECT_FALSE(ParseFormula("val(c) = 1 & val(d) = 1").ok());
  EXPECT_FALSE(ParseFormula("val(c) = 1 | val(d) = 1").ok());
  EXPECT_FALSE(ParseFormula("(val(c) = 1").ok());
  EXPECT_FALSE(ParseFormula("val(c) = 1 extra").ok());
  EXPECT_FALSE(ParseFormula("prop(c) = <>").ok());
  EXPECT_FALSE(ParseFormula("subj(c) = val(d)").ok());
  EXPECT_FALSE(ParseRule("val(c) = 1").ok());  // no arrow
  EXPECT_FALSE(ParseRule("val(c) = 1 -> ").ok());
  // '(' and '!' nest at most 256 deep, combined; hostile depth is a
  // ParseError instead of a stack overflow.
  const std::string atom = "val(c) = 1";
  EXPECT_TRUE(ParseFormula(std::string(256, '(') + atom + std::string(256, ')'))
                  .ok());
  EXPECT_TRUE(ParseFormula(std::string(256, '!') + atom).ok());
  EXPECT_EQ(ParseFormula(std::string(257, '!') + atom).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseFormula("!(" + std::string(255, '!') + atom + ")")
                .status()
                .code(),
            StatusCode::kParseError);
  const std::size_t deep = 100000;
  EXPECT_EQ(ParseFormula(std::string(deep, '(') + atom + std::string(deep, ')'))
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseFormula(std::string(deep, '!') + atom).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseRule(std::string(deep, '(') + atom + std::string(deep, ')') +
                      " -> " + atom)
                .status()
                .code(),
            StatusCode::kParseError);
  // '&&' and '||' join at most 1024 operands per text; a longer chain is a
  // ParseError instead of a left-deep tree the recursive walkers overflow on.
  // At the cap, the printer's walk must still fit the stack.
  const auto chain = [&](std::size_t operands, const std::string& op) {
    std::string text = atom;
    text.reserve(operands * (atom.size() + op.size() + 2));
    for (std::size_t i = 1; i < operands; ++i) text += " " + op + " " + atom;
    return text;
  };
  for (const std::string op : {"&&", "||"}) {
    const auto longest = ParseFormula(chain(1024, op));
    ASSERT_TRUE(longest.ok()) << op;
    EXPECT_EQ(ToString(*longest), chain(1024, op));
  }
  EXPECT_EQ(ParseFormula(chain(1025, "&&")).status().code(),
            StatusCode::kParseError);
  for (const std::string op : {"&&", "||"}) {
    EXPECT_EQ(ParseRule(chain(1000000, op) + " -> " + atom).status().code(),
              StatusCode::kParseError)
        << op;
  }
}

TEST(ParserTest, ErrorsMentionOffset) {
  auto f = ParseFormula("val(c) = 9");
  ASSERT_FALSE(f.ok());
  EXPECT_NE(f.status().message().find("offset"), std::string::npos);
}

TEST(PrinterTest, RoundTripsBuiltins) {
  const Rule rules[] = {
      CovRule(),
      SimRule(),
      DepRule("p1", "p2"),
      SymDepRule("deathPlace", "deathDate"),
      DepDisjunctiveRule("a", "b"),
      CovRuleIgnoring({"type", "label"}),
  };
  for (const Rule& rule : rules) {
    const std::string text = ToString(rule);
    auto reparsed = ParseRule(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
    EXPECT_EQ(ToString(*reparsed), text) << "unstable print for " << text;
  }
}

TEST(PrinterTest, RoundTripsArbitraryFormulas) {
  const char* cases[] = {
      "val(c) = 1",
      "!(c1 = c2) && prop(c1) = prop(c2)",
      "val(a) = 0 || val(b) = 1 && subj(a) = subj(b)",
      "(val(a) = 1 || val(b) = 1) && !(prop(a) = <http://x/p q>)",
      "subj(c) = s0 && prop(c) = p0",
  };
  for (const char* text : cases) {
    auto f1 = ParseFormula(text);
    ASSERT_TRUE(f1.ok()) << text;
    const std::string printed = ToString(*f1);
    auto f2 = ParseFormula(printed);
    ASSERT_TRUE(f2.ok()) << printed;
    EXPECT_EQ(ToString(*f2), printed);
  }
}

TEST(PrinterTest, QuotesNonIdentifierConstants) {
  auto f = ParseFormula("prop(c) = <http://x/p>");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(ToString(*f), "prop(c) = <http://x/p>");
  auto g = ParseFormula("prop(c) = name");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(ToString(*g), "prop(c) = name");
}

TEST(AstTest, CollectVariablesInFirstAppearanceOrder) {
  auto f = ParseFormula("subj(c2) = subj(c1) && val(c3) = 1 && c1 = c2");
  ASSERT_TRUE(f.ok());
  std::vector<std::string> vars;
  CollectVariables(*f, &vars);
  ASSERT_EQ(vars.size(), 3u);
  EXPECT_EQ(vars[0], "c2");
  EXPECT_EQ(vars[1], "c1");
  EXPECT_EQ(vars[2], "c3");
}

TEST(AstTest, CollectConstants) {
  auto f = ParseFormula(
      "subj(c) = s1 && prop(c) = p1 && (subj(c) = s2 || prop(c) = p1)");
  ASSERT_TRUE(f.ok());
  std::vector<std::string> subjects, props;
  CollectSubjectConstants(*f, &subjects);
  CollectPropertyConstants(*f, &props);
  EXPECT_EQ(subjects, (std::vector<std::string>{"s1", "s2"}));
  EXPECT_EQ(props, (std::vector<std::string>{"p1"}));
}

TEST(AstTest, RuleConjunction) {
  const Rule cov = CovRule();
  const FormulaPtr both = cov.Conjunction();
  EXPECT_EQ(both->kind, FormulaKind::kAnd);
}

TEST(AstTest, BuiltinNames) {
  EXPECT_EQ(CovRule().name(), "Cov");
  EXPECT_EQ(SimRule().name(), "Sim");
  EXPECT_EQ(DepRule("a", "b").name(), "Dep[a,b]");
  EXPECT_EQ(SymDepRule("a", "b").name(), "SymDep[a,b]");
}

TEST(AstTest, BuiltinVariableCounts) {
  EXPECT_EQ(CovRule().variables().size(), 1u);
  EXPECT_EQ(SimRule().variables().size(), 2u);
  EXPECT_EQ(DepRule("a", "b").variables().size(), 2u);
  EXPECT_EQ(SymDepRule("a", "b").variables().size(), 2u);
}

}  // namespace
}  // namespace rdfsr::rules
