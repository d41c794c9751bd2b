#include "query/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <vector>

namespace ddc {

namespace {

struct Token {
  std::string text;   // Upper-cased for keywords; verbatim otherwise.
  std::string raw;    // Original spelling, for error messages.
  size_t position;    // Byte offset in the input.
};

// Splits on whitespace; brackets, commas and '=' are their own tokens. A
// run of dots is one token, so "[3..7]" and "[3 .. 7]" both yield the range
// separator ".." (a lone "." or "..." token fails parsing with a clean
// error instead of gluing onto a number).
std::vector<Token> Tokenize(const std::string& text) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    const char c = text[i];
    if (c == '[' || c == ']' || c == ',' || c == '=') {
      tokens.push_back(Token{std::string(1, c), std::string(1, c), i});
      ++i;
      continue;
    }
    if (c == '.') {
      size_t start = i;
      while (i < text.size() && text[i] == '.') ++i;
      std::string dots = text.substr(start, i - start);
      tokens.push_back(Token{dots, dots, start});
      continue;
    }
    size_t start = i;
    while (i < text.size() &&
           !std::isspace(static_cast<unsigned char>(text[i])) &&
           text[i] != '[' && text[i] != ']' && text[i] != ',' &&
           text[i] != '=' && text[i] != '.') {
      ++i;
    }
    std::string raw = text.substr(start, i - start);
    std::string upper = raw;
    for (char& ch : upper) {
      ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
    }
    tokens.push_back(Token{upper, raw, start});
  }
  return tokens;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string* error)
      : tokens_(std::move(tokens)), error_(error) {}

  std::optional<Statement> ParseStatement() {
    ExplainMode explain = ExplainMode::kNone;
    if (!AtEnd() && Peek().text == "EXPLAIN") {
      Next();
      explain = ExplainMode::kPlan;
      if (!AtEnd() && Peek().text == "ANALYZE") {
        Next();
        explain = ExplainMode::kAnalyze;
      }
      if (AtEnd()) return Fail("expected a statement after EXPLAIN");
    }
    if (!AtEnd() && (Peek().text == "ADD" || Peek().text == "SET")) {
      std::optional<WriteStatement> write = ParseWrite();
      if (!write.has_value()) return std::nullopt;
      Statement statement;
      statement.write = std::move(write);
      statement.explain = explain;
      return statement;
    }
    std::optional<Query> query = Parse();
    if (!query.has_value()) return std::nullopt;
    Statement statement;
    statement.query = std::move(query);
    statement.explain = explain;
    return statement;
  }

  std::optional<Query> Parse() {
    Query query;
    // Aggregate.
    if (AtEnd()) return Fail("expected SUM, COUNT or AVG");
    const std::string head = Next().text;
    if (head == "SUM") {
      query.aggregate = Aggregate::kSum;
    } else if (head == "COUNT") {
      query.aggregate = Aggregate::kCount;
    } else if (head == "AVG" || head == "AVERAGE") {
      query.aggregate = Aggregate::kAvg;
    } else {
      return Fail("expected SUM, COUNT or AVG, got '" + Prev().raw + "'");
    }

    // Optional GROUP BY.
    if (!AtEnd() && Peek().text == "GROUP") {
      Next();
      if (AtEnd() || Next().text != "BY") return Fail("expected BY");
      GroupBySpec spec;
      if (!ParseDim(&spec.dim)) return std::nullopt;
      if (!AtEnd() && Peek().text == "SIZE") {
        Next();
        int64_t size = 0;
        if (!ParseInt(&size)) return std::nullopt;
        if (size < 1) return Fail("GROUP BY SIZE must be >= 1");
        spec.group_size = size;
      }
      query.group_by = spec;
    }

    // Optional WHERE.
    if (!AtEnd() && Peek().text == "WHERE") {
      Next();
      while (true) {
        Predicate pred;
        if (!ParseDim(&pred.dim)) return std::nullopt;
        if (AtEnd()) return Fail("expected IN or = after dimension");
        const std::string op = Next().text;
        if (op == "IN") {
          if (!Expect("[")) return std::nullopt;
          int64_t lo = 0;
          int64_t hi = 0;
          if (!ParseInt(&lo)) return std::nullopt;
          if (!Expect(",")) return std::nullopt;
          if (!ParseInt(&hi)) return std::nullopt;
          if (!Expect("]")) return std::nullopt;
          if (lo > hi) return Fail("empty range: lo > hi");
          pred.lo = lo;
          pred.hi = hi;
        } else if (op == "=") {
          int64_t v = 0;
          if (!ParseInt(&v)) return std::nullopt;
          pred.lo = v;
          pred.hi = v;
        } else {
          return Fail("expected IN or =, got '" + Prev().raw + "'");
        }
        query.predicates.push_back(pred);
        if (AtEnd()) break;
        if (Peek().text != "AND") {
          return Fail("expected AND or end of query, got '" + Peek().raw +
                      "'");
        }
        Next();
      }
    }

    if (!AtEnd()) {
      return Fail("unexpected trailing token '" + Peek().raw + "'");
    }
    return query;
  }

 private:
  // write  := ("ADD" | "SET") target ("," target)*
  // target := "AT" "[" int ("," int)* "]" "=" int
  //         | int "IN" "[" int ("," int)* ".." int ("," int)* "]"
  // A point target carries the statement's verb (ADD → kAdd, SET → kSet); a
  // range target carries its range twin (kRangeAdd / kRangeSet). Inverted
  // bounds (lo > hi in any dimension) parse fine and denote the empty box —
  // a no-op write — mirroring the empty-box convention everywhere else.
  std::optional<WriteStatement> ParseWrite() {
    const bool is_set = Next().text == "SET";
    WriteStatement write;
    while (true) {
      if (AtEnd()) return Fail("expected AT or a range value");
      if (Peek().text == "AT") {
        Next();
        if (!Expect("[")) return std::nullopt;
        Cell cell;
        if (!ParseCoords(&cell)) return std::nullopt;
        if (!Expect("]")) return std::nullopt;
        if (!Expect("=")) return std::nullopt;
        int64_t value = 0;
        if (!ParseInt(&value)) return std::nullopt;
        write.mutations.push_back(
            Mutation{std::move(cell), value,
                     is_set ? MutationKind::kSet : MutationKind::kAdd});
      } else {
        int64_t value = 0;
        if (!ParseInt(&value)) return std::nullopt;
        if (!Expect("IN")) return std::nullopt;
        if (!Expect("[")) return std::nullopt;
        Cell lo;
        if (!ParseCoords(&lo)) return std::nullopt;
        if (!Expect("..")) return std::nullopt;
        Cell hi;
        if (!ParseCoords(&hi)) return std::nullopt;
        if (!Expect("]")) return std::nullopt;
        if (lo.size() != hi.size()) {
          return Fail("range corners have mismatched arity (" +
                      std::to_string(lo.size()) + " vs " +
                      std::to_string(hi.size()) + " coordinates)");
        }
        write.mutations.push_back(
            is_set ? MakeRangeSet(std::move(lo), std::move(hi), value)
                   : MakeRangeAdd(std::move(lo), std::move(hi), value));
      }
      if (AtEnd()) break;
      if (Peek().text != ",") {
        return Fail("expected ',' or end of statement, got '" + Peek().raw +
                    "'");
      }
      Next();
    }
    return write;
  }

  // Comma-separated integer list (at least one), e.g. "3, 4, 5".
  bool ParseCoords(Cell* cell) {
    while (true) {
      int64_t coord = 0;
      if (!ParseInt(&coord)) return false;
      cell->push_back(coord);
      if (!AtEnd() && Peek().text == ",") {
        Next();
        continue;
      }
      return true;
    }
  }

  bool AtEnd() const { return index_ >= tokens_.size(); }
  const Token& Peek() const { return tokens_[index_]; }
  const Token& Next() { return tokens_[index_++]; }
  const Token& Prev() const { return tokens_[index_ - 1]; }

  std::nullopt_t Fail(const std::string& message) {
    return FailAt(AtEnd() ? (tokens_.empty() ? 0 : tokens_.back().position)
                          : Peek().position,
                  message);
  }
  std::nullopt_t FailAt(size_t position, const std::string& message) {
    *error_ = message + " (near byte " + std::to_string(position) + ")";
    return std::nullopt;
  }

  bool Expect(const std::string& token) {
    if (AtEnd() || Peek().text != token) {
      Fail("expected '" + token + "'");
      return false;
    }
    Next();
    return true;
  }

  bool ParseDim(int* dim) {
    if (AtEnd()) {
      Fail("expected dimension (d0, d1, ...)");
      return false;
    }
    const Token& token = Next();
    if (token.text.size() < 2 || token.text[0] != 'D') {
      Fail("expected dimension (d0, d1, ...), got '" + token.raw + "'");
      return false;
    }
    char* end = nullptr;
    const long value = std::strtol(token.text.c_str() + 1, &end, 10);
    if (*end != '\0' || value < 0 || value > 19) {
      Fail("bad dimension '" + token.raw + "'");
      return false;
    }
    *dim = static_cast<int>(value);
    return true;
  }

  bool ParseInt(int64_t* value) {
    if (AtEnd()) {
      Fail("expected integer");
      return false;
    }
    const Token& token = Next();
    char* end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(token.raw.c_str(), &end, 10);
    if (token.raw.empty() || *end != '\0') {
      Fail("expected integer, got '" + token.raw + "'");
      return false;
    }
    // strtoll saturates an out-of-range literal and reports only via errno.
    if (errno == ERANGE) {
      FailAt(token.position, "integer out of range");
      return false;
    }
    *value = parsed;
    return true;
  }

  std::vector<Token> tokens_;
  std::string* error_;
  size_t index_ = 0;
};

}  // namespace

std::optional<Query> ParseQuery(const std::string& text, std::string* error) {
  Parser parser(Tokenize(text), error);
  return parser.Parse();
}

std::optional<Statement> ParseStatement(const std::string& text,
                                        std::string* error) {
  Parser parser(Tokenize(text), error);
  return parser.ParseStatement();
}

}  // namespace ddc
