#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace ddc {

namespace {

// A token is a view into the statement text and its byte offset; the empty
// token marks the end of input.
struct Token {
  std::string_view text;
  size_t position = 0;
};

bool IsSpace(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
bool IsPunct(char c) { return c == '[' || c == ']' || c == ',' || c == '='; }

// Case-insensitive match of a token against an upper-case keyword or a
// punctuation token. The end-of-input token matches nothing.
bool Is(const Token& token, std::string_view keyword) {
  return std::equal(keyword.begin(), keyword.end(), token.text.begin(),
                    token.text.end(), [](char k, char c) {
                      return k == std::toupper(static_cast<unsigned char>(c));
                    });
}

// A single-pass recursive-descent parser: one cursor over the text lexes
// each token on demand, so parsing copies no token and allocates only the
// Statement it returns. Tokens split on whitespace; brackets, commas and
// '=' are their own tokens. A run of dots is one token, so "[3..7]" and
// "[3 .. 7]" both yield the range separator ".." (a lone "." or "..." token
// fails parsing with a clean error instead of gluing onto a number).
class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {
    Advance();
  }

  std::optional<Statement> ParseStatement() {
    Statement statement;
    if (Accept("EXPLAIN")) {
      statement.explain =
          Accept("ANALYZE") ? ExplainMode::kAnalyze : ExplainMode::kPlan;
      if (AtEnd()) return Fail("expected a statement after EXPLAIN");
    }
    if (Is(cur_, "ADD") || Is(cur_, "SET")) {
      statement.write = ParseWrite();
      if (!statement.write.has_value()) return std::nullopt;
    } else {
      statement.query = Parse();
      if (!statement.query.has_value()) return std::nullopt;
    }
    return statement;
  }

  std::optional<Query> Parse() {
    Query query;
    // Aggregate.
    if (AtEnd()) return Fail("expected SUM, COUNT or AVG");
    if (Accept("SUM")) {
      query.aggregate = Aggregate::kSum;
    } else if (Accept("COUNT")) {
      query.aggregate = Aggregate::kCount;
    } else if (Accept("AVG") || Accept("AVERAGE")) {
      query.aggregate = Aggregate::kAvg;
    } else {
      return FailQuoting("expected SUM, COUNT or AVG, got ", Next().text);
    }

    // Optional GROUP BY.
    if (Accept("GROUP")) {
      if (AtEnd() || !Is(Next(), "BY")) return Fail("expected BY");
      GroupBySpec spec;
      if (!ParseDim(&spec.dim)) return std::nullopt;
      if (Accept("SIZE")) {
        if (!ParseInt(&spec.group_size)) return std::nullopt;
        if (spec.group_size < 1) return Fail("GROUP BY SIZE must be >= 1");
      }
      query.group_by = spec;
    }

    // Optional WHERE.
    if (Accept("WHERE")) {
      while (true) {
        Predicate pred;
        if (!ParseDim(&pred.dim)) return std::nullopt;
        if (AtEnd()) return Fail("expected IN or = after dimension");
        if (Accept("IN")) {
          if (!Expect("[") || !ParseInt(&pred.lo) || !Expect(",") ||
              !ParseInt(&pred.hi) || !Expect("]")) {
            return std::nullopt;
          }
          if (pred.lo > pred.hi) return Fail("empty range: lo > hi");
        } else if (Accept("=")) {
          if (!ParseInt(&pred.lo)) return std::nullopt;
          pred.hi = pred.lo;
        } else {
          return FailQuoting("expected IN or =, got ", Next().text);
        }
        query.predicates.push_back(pred);
        if (AtEnd()) break;
        if (!Accept("AND")) {
          return FailQuoting("expected AND or end of query, got ", cur_.text);
        }
      }
    }

    if (!AtEnd()) return FailQuoting("unexpected trailing token ", cur_.text);
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
    const bool is_set = Is(Next(), "SET");
    WriteStatement write;
    // Every target holds exactly one ']', so this bound sizes the batch in
    // one allocation.
    write.mutations.reserve(static_cast<size_t>(
        std::count(text_.begin() + cur_.position, text_.end(), ']')));
    while (true) {
      if (AtEnd()) return Fail("expected AT or a range value");
      if (Accept("AT")) {
        Cell cell;
        int64_t value = 0;
        if (!Expect("[") || !ParseCoords(&cell) || !Expect("]") ||
            !Expect("=") || !ParseInt(&value)) {
          return std::nullopt;
        }
        write.mutations.push_back(
            Mutation{std::move(cell), value,
                     is_set ? MutationKind::kSet : MutationKind::kAdd});
      } else {
        int64_t value = 0;
        Cell lo;
        Cell hi;
        if (!ParseInt(&value) || !Expect("IN") || !Expect("[") ||
            !ParseCoords(&lo) || !Expect("..") || !ParseCoords(&hi) ||
            !Expect("]")) {
          return std::nullopt;
        }
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
      if (!Accept(",")) {
        return FailQuoting("expected ',' or end of statement, got ",
                           cur_.text);
      }
    }
    return write;
  }

  // Comma-separated integer list (at least one), e.g. "3, 4, 5", into a
  // cell reserved to the arity of the statement's first target.
  bool ParseCoords(Cell* cell) {
    cell->reserve(arity_);
    do {
      int64_t coord = 0;
      if (!ParseInt(&coord)) return false;
      cell->push_back(coord);
    } while (Accept(","));
    if (arity_ == 0) arity_ = cell->size();
    return true;
  }

  // Lexes the token that starts at or after pos_ into cur_.
  void Advance() {
    size_t start = pos_;
    while (start < text_.size() && IsSpace(text_[start])) ++start;
    size_t end = start;
    if (end < text_.size() && IsPunct(text_[end])) {
      ++end;
    } else if (end < text_.size() && text_[end] == '.') {
      while (end < text_.size() && text_[end] == '.') ++end;
    } else {
      while (end < text_.size() && !IsSpace(text_[end]) &&
             !IsPunct(text_[end]) && text_[end] != '.') {
        ++end;
      }
    }
    cur_ = Token{text_.substr(start, end - start), start};
    pos_ = end;
  }

  bool AtEnd() const { return cur_.text.empty(); }
  Token Next() {
    last_ = cur_;
    Advance();
    return last_;
  }
  // Consumes the current token if it is `keyword`.
  bool Accept(std::string_view keyword) {
    if (!Is(cur_, keyword)) return false;
    Next();
    return true;
  }

  // A failure is reported at the current token, or at the start of the
  // last token when the input has run out.
  std::nullopt_t Fail(const std::string& message) {
    return FailAt(AtEnd() ? last_.position : cur_.position, message);
  }
  std::nullopt_t FailAt(size_t position, const std::string& message) {
    *error_ = message + " (near byte " + std::to_string(position) + ")";
    return std::nullopt;
  }
  std::nullopt_t FailQuoting(std::string_view message, std::string_view token) {
    return Fail(std::string(message) + "'" + std::string(token) + "'");
  }

  bool Expect(std::string_view token) {
    if (Accept(token)) return true;
    FailQuoting("expected ", token);
    return false;
  }

  // "d" or "D" followed by decimal digits, at most 19.
  bool ParseDim(int* dim) {
    if (AtEnd()) {
      Fail("expected dimension (d0, d1, ...)");
      return false;
    }
    const Token token = Next();
    if (token.text.size() < 2 ||
        std::toupper(static_cast<unsigned char>(token.text[0])) != 'D') {
      FailQuoting("expected dimension (d0, d1, ...), got ", token.text);
      return false;
    }
    // Digits only: from_chars, like strtol before it, would take a sign.
    const char* end = token.text.data() + token.text.size();
    const auto [ptr, ec] = std::from_chars(token.text.data() + 1, end, *dim);
    if (!std::isdigit(static_cast<unsigned char>(token.text[1])) ||
        ptr != end || ec != std::errc() || *dim > 19) {
      FailQuoting("bad dimension ", token.text);
      return false;
    }
    return true;
  }

  // An optional sign and decimal digits, as strtoll reads them.
  bool ParseInt(int64_t* value) {
    if (AtEnd()) {
      Fail("expected integer");
      return false;
    }
    const Token token = Next();
    std::string_view digits = token.text;
    // strtoll takes one sign, '+' included; from_chars takes only '-'.
    if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-') {
      digits.remove_prefix(1);
    }
    const char* end = digits.data() + digits.size();
    const auto [ptr, ec] = std::from_chars(digits.data(), end, *value);
    if (ptr != end) {
      FailQuoting("expected integer, got ", token.text);
      return false;
    }
    if (ec == std::errc::result_out_of_range) {
      FailAt(token.position, "integer out of range");
      return false;
    }
    return true;
  }

  std::string_view text_;
  std::string* error_;
  size_t pos_ = 0;  // Scan position: the end of cur_.
  Token cur_;       // The next token to consume.
  Token last_;      // The token consumed last.
  size_t arity_ = 0;  // Coordinates in the first target of a write.
};

}  // namespace

std::optional<Query> ParseQuery(std::string_view text, std::string* error) {
  return Parser(text, error).Parse();
}

std::optional<Statement> ParseStatement(std::string_view text,
                                        std::string* error) {
  return Parser(text, error).ParseStatement();
}

}  // namespace ddc
