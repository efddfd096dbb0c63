#include "db/parser.h"

#include <cctype>

#include "util/strings.h"

namespace sbroker::db {
namespace {

enum class TokKind { kIdent, kNumber, kSymbol, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view sql) : sql_(sql) { advance(); }

  const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

 private:
  void advance() {
    while (pos_ < sql_.size() && std::isspace(static_cast<unsigned char>(sql_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= sql_.size()) {
      current_ = {TokKind::kEnd, ""};
      return;
    }
    char c = sql_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < sql_.size() &&
             (std::isalnum(static_cast<unsigned char>(sql_[pos_])) || sql_[pos_] == '_')) {
        ++pos_;
      }
      current_ = {TokKind::kIdent, std::string(sql_.substr(start, pos_ - start))};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      ++pos_;
      bool seen_dot = false;
      while (pos_ < sql_.size() &&
             (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
              (sql_[pos_] == '.' && !seen_dot))) {
        if (sql_[pos_] == '.') seen_dot = true;
        ++pos_;
      }
      current_ = {TokKind::kNumber, std::string(sql_.substr(start, pos_ - start))};
      return;
    }
    if (c == '=' || c == ',' || c == '*' || c == ';') {
      ++pos_;
      current_ = {TokKind::kSymbol, std::string(1, c)};
      return;
    }
    throw ParseError(std::string("unexpected character '") + c + "' in query");
  }

  std::string_view sql_;
  size_t pos_ = 0;
  Token current_;
};

bool is_keyword(const Token& t, std::string_view kw) {
  return t.kind == TokKind::kIdent && util::iequals(t.text, kw);
}

Token expect_ident(Lexer& lex, const char* what) {
  Token t = lex.take();
  if (t.kind != TokKind::kIdent) {
    throw ParseError(std::string("expected ") + what + ", got '" + t.text + "'");
  }
  return t;
}

bool is_symbol(const Token& t, std::string_view sym) {
  return t.kind == TokKind::kSymbol && t.text == sym;
}

Value parse_literal(Lexer& lex) {
  Token t = lex.take();
  if (t.kind == TokKind::kNumber) {
    if (t.text.find('.') != std::string::npos) {
      auto d = util::parse_double(t.text);
      if (!d) throw ParseError("bad numeric literal '" + t.text + "'");
      return Value(*d);
    }
    auto i = util::parse_int(t.text);
    if (!i) throw ParseError("bad integer literal '" + t.text + "'");
    return Value(*i);
  }
  throw ParseError("expected literal, got '" + t.text + "'");
}

uint64_t parse_limit(Lexer& lex) {
  Token t = lex.take();
  if (t.kind != TokKind::kNumber) throw ParseError("expected number after LIMIT");
  auto v = util::parse_int(t.text);
  if (!v) throw ParseError("bad count after LIMIT: '" + t.text + "'");
  return static_cast<uint64_t>(*v);
}

}  // namespace

SelectQuery parse_select(std::string_view sql) {
  Lexer lex(sql);
  SelectQuery q;

  if (!is_keyword(lex.peek(), "select")) throw ParseError("query must start with SELECT");
  lex.take();

  // Select list.
  if (is_symbol(lex.peek(), "*")) {
    lex.take();
  } else {
    q.columns.push_back(expect_ident(lex, "column name").text);
    while (is_symbol(lex.peek(), ",")) {
      lex.take();
      q.columns.push_back(expect_ident(lex, "column name").text);
    }
  }

  if (!is_keyword(lex.peek(), "from")) throw ParseError("expected FROM");
  lex.take();
  q.table = expect_ident(lex, "table name").text;

  if (is_keyword(lex.peek(), "where")) {
    lex.take();
    Predicate p;
    p.column = expect_ident(lex, "column name").text;
    if (!is_symbol(lex.take(), "=")) throw ParseError("expected '=' after WHERE column");
    p.literal = parse_literal(lex);
    q.where = std::move(p);
  }

  if (is_keyword(lex.peek(), "limit")) {
    lex.take();
    q.limit = parse_limit(lex);
  }

  if (is_symbol(lex.peek(), ";")) lex.take();
  if (lex.peek().kind != TokKind::kEnd) {
    throw ParseError("trailing tokens after query: '" + lex.peek().text + "'");
  }
  return q;
}

}  // namespace sbroker::db
