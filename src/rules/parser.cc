#include "rules/parser.h"

#include <cctype>
#include <string>

namespace rdfsr::rules {

namespace {

// Bound on the combined nesting of '(' and '!'. The parser recurses once per
// level, so an unbounded depth lets hostile rule text exhaust the stack; the
// printed rule r0 of Appendix A nests 2 deep.
constexpr int kMaxNesting = 256;

// Bound on the operands '&&' and '||' join in one text: at most
// kMaxOperands - 1 operators. The parser folds a chain into a left-deep tree
// that the recursive walkers (printer, normalizer, evaluator) descend one
// level per operand, so an unbounded chain exhausts the stack just as
// unbounded nesting does (under AddressSanitizer the printer overflows an
// 8 MiB stack near 2048 operands). The lexer counts, so an over-long chain
// fails before it is tokenized in full; the builtin rules join at most four.
constexpr int kMaxOperands = 1024;

enum class TokenKind {
  kIdent,
  kUri,     // <...>
  kNumber,  // 0 or 1
  kLParen,
  kRParen,
  kEq,
  kNeq,
  kNot,
  kAnd,
  kOr,
  kArrow,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  std::size_t pos = 0;
};

/// Single-pass tokenizer.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) break;
      const std::size_t start = pos_;
      const char c = text_[pos_];
      if (c == '(') {
        tokens.push_back({TokenKind::kLParen, "(", start});
        ++pos_;
      } else if (c == ')') {
        tokens.push_back({TokenKind::kRParen, ")", start});
        ++pos_;
      } else if (c == '=') {
        tokens.push_back({TokenKind::kEq, "=", start});
        ++pos_;
      } else if (c == '!') {
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '=') {
          tokens.push_back({TokenKind::kNeq, "!=", start});
          ++pos_;
        } else {
          tokens.push_back({TokenKind::kNot, "!", start});
        }
      } else if (c == '&') {
        ++pos_;
        if (pos_ >= text_.size() || text_[pos_] != '&') {
          return Error(start, "expected '&&'");
        }
        if (++operators_ == kMaxOperands) return TooManyOperands(start);
        tokens.push_back({TokenKind::kAnd, "&&", start});
        ++pos_;
      } else if (c == '|') {
        ++pos_;
        if (pos_ >= text_.size() || text_[pos_] != '|') {
          return Error(start, "expected '||'");
        }
        if (++operators_ == kMaxOperands) return TooManyOperands(start);
        tokens.push_back({TokenKind::kOr, "||", start});
        ++pos_;
      } else if (c == '-') {
        ++pos_;
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Error(start, "expected '->'");
        }
        tokens.push_back({TokenKind::kArrow, "->", start});
        ++pos_;
      } else if (c == '<') {
        ++pos_;
        std::string uri;
        while (pos_ < text_.size() && text_[pos_] != '>') {
          uri.push_back(text_[pos_++]);
        }
        if (pos_ >= text_.size()) return Error(start, "unterminated '<...>'");
        ++pos_;  // consume '>'
        if (uri.empty()) return Error(start, "empty constant '<>'");
        tokens.push_back({TokenKind::kUri, std::move(uri), start});
      } else if (c == '0' || c == '1') {
        // Numbers longer than one digit are invalid values for val().
        std::string num;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          num.push_back(text_[pos_++]);
        }
        if (num.size() != 1) return Error(start, "values must be 0 or 1");
        tokens.push_back({TokenKind::kNumber, std::move(num), start});
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::string ident;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ident.push_back(text_[pos_++]);
        }
        tokens.push_back({TokenKind::kIdent, std::move(ident), start});
      } else {
        return Error(start, std::string("unexpected character '") + c + "'");
      }
    }
    tokens.push_back({TokenKind::kEnd, "", pos_});
    return tokens;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Error(std::size_t pos, const std::string& msg) {
    return Status::ParseError("at offset " + std::to_string(pos) + ": " + msg);
  }

  Status TooManyOperands(std::size_t pos) {
    return Error(pos, "more than " + std::to_string(kMaxOperands) +
                          " operands joined by '&&' and '||'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int operators_ = 0;  // '&&' and '||' tokens so far
};

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<FormulaPtr> ParseFormulaOnly() {
    Result<FormulaPtr> f = ParseOr();
    if (!f.ok()) return f;
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after formula");
    }
    return f;
  }

  Result<Rule> ParseRuleText(std::string name) {
    Result<FormulaPtr> ante = ParseOr();
    if (!ante.ok()) return ante.status();
    if (Peek().kind != TokenKind::kArrow) {
      return Error("expected '->' between antecedent and consequent");
    }
    Advance();
    Result<FormulaPtr> cons = ParseOr();
    if (!cons.ok()) return cons.status();
    if (Peek().kind != TokenKind::kEnd) {
      return Error("trailing input after rule");
    }
    return Rule::Create(*ante, *cons, std::move(name));
  }

 private:
  Result<FormulaPtr> ParseOr() {
    Result<FormulaPtr> left = ParseAnd();
    if (!left.ok()) return left;
    FormulaPtr acc = *left;
    while (Peek().kind == TokenKind::kOr) {
      Advance();
      Result<FormulaPtr> right = ParseAnd();
      if (!right.ok()) return right;
      acc = Or(acc, *right);
    }
    return acc;
  }

  Result<FormulaPtr> ParseAnd() {
    Result<FormulaPtr> left = ParseUnary();
    if (!left.ok()) return left;
    FormulaPtr acc = *left;
    while (Peek().kind == TokenKind::kAnd) {
      Advance();
      Result<FormulaPtr> right = ParseUnary();
      if (!right.ok()) return right;
      acc = And(acc, *right);
    }
    return acc;
  }

  Result<FormulaPtr> ParseUnary() {
    const TokenKind kind = Peek().kind;
    if (kind != TokenKind::kNot && kind != TokenKind::kLParen) {
      return ParseAtom();
    }
    if (depth_ == kMaxNesting) {
      return Error("'(' and '!' nested deeper than " +
                   std::to_string(kMaxNesting) + " levels");
    }
    Advance();
    ++depth_;
    Result<FormulaPtr> inner =
        kind == TokenKind::kNot ? ParseUnary() : ParseOr();
    --depth_;
    if (!inner.ok()) return inner;
    if (kind == TokenKind::kNot) return Not(*inner);
    if (Peek().kind != TokenKind::kRParen) return Error("expected ')'");
    Advance();
    return inner;
  }

  /// Parses the equality operator; sets `negated` for '!='.
  Result<bool> ParseEqOp() {
    if (Peek().kind == TokenKind::kEq) {
      Advance();
      return false;
    }
    if (Peek().kind == TokenKind::kNeq) {
      Advance();
      return true;
    }
    return Status(StatusCode::kParseError, ErrorText("expected '=' or '!='"));
  }

  Result<FormulaPtr> ParseAtom() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected atom (val/subj/prop/variable)");
    }
    const std::string head = Peek().text;
    const bool is_functional =
        (head == "val" || head == "subj" || head == "prop") &&
        PeekAhead(1).kind == TokenKind::kLParen;

    if (is_functional) return ParseFunctionalAtom(head);

    // var = var
    Advance();
    Result<bool> neg = ParseEqOp();
    if (!neg.ok()) return neg.status();
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected variable on right-hand side of '='");
    }
    const std::string rhs = Peek().text;
    if (rhs == "val" || rhs == "subj" || rhs == "prop") {
      return Error("mixed term equality (variable vs functional term)");
    }
    Advance();
    FormulaPtr atom = VarEq(head, rhs);
    return *neg ? Not(atom) : atom;
  }

  Result<FormulaPtr> ParseFunctionalAtom(const std::string& fn) {
    Advance();  // fn
    Advance();  // '('
    if (Peek().kind != TokenKind::kIdent) return Error("expected variable");
    const std::string var = Peek().text;
    Advance();
    if (Peek().kind != TokenKind::kRParen) return Error("expected ')'");
    Advance();
    Result<bool> neg = ParseEqOp();
    if (!neg.ok()) return neg.status();

    FormulaPtr atom;
    if (Peek().kind == TokenKind::kIdent && Peek().text == fn &&
        PeekAhead(1).kind == TokenKind::kLParen) {
      // fn(c1) = fn(c2)
      Advance();
      Advance();
      if (Peek().kind != TokenKind::kIdent) return Error("expected variable");
      const std::string var2 = Peek().text;
      Advance();
      if (Peek().kind != TokenKind::kRParen) return Error("expected ')'");
      Advance();
      if (fn == "val") {
        atom = ValEqVal(var, var2);
      } else if (fn == "subj") {
        atom = SubjEqSubj(var, var2);
      } else {
        atom = PropEqProp(var, var2);
      }
    } else if (fn == "val") {
      if (Peek().kind != TokenKind::kNumber) {
        return Error("val(c) compares against 0, 1, or val(c')");
      }
      atom = ValEqConst(var, Peek().text == "1" ? 1 : 0);
      Advance();
    } else {
      // subj/prop against a constant (URI or bareword identifier).
      if (Peek().kind == TokenKind::kUri) {
        atom = fn == "subj" ? SubjEqConst(var, Peek().text)
                            : PropEqConst(var, Peek().text);
        Advance();
      } else if (Peek().kind == TokenKind::kIdent) {
        atom = fn == "subj" ? SubjEqConst(var, Peek().text)
                            : PropEqConst(var, Peek().text);
        Advance();
      } else {
        return Error("expected constant on right-hand side");
      }
    }
    return *neg ? Not(atom) : atom;
  }

  const Token& Peek() const { return tokens_[index_]; }
  const Token& PeekAhead(std::size_t n) const {
    const std::size_t i = index_ + n;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (index_ + 1 < tokens_.size()) ++index_;
  }

  std::string ErrorText(const std::string& msg) const {
    return "at offset " + std::to_string(Peek().pos) + ": " + msg +
           (Peek().text.empty() ? "" : " (got '" + Peek().text + "')");
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(ErrorText(msg));
  }

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
  int depth_ = 0;  // '(' and '!' levels open around the current token
};

}  // namespace

Result<FormulaPtr> ParseFormula(std::string_view text) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseFormulaOnly();
}

Result<Rule> ParseRule(std::string_view text, std::string name) {
  Lexer lexer(text);
  Result<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(*tokens));
  return parser.ParseRuleText(std::move(name));
}

}  // namespace rdfsr::rules
