// Parser for the query language of query.h.

#ifndef DDC_QUERY_PARSER_H_
#define DDC_QUERY_PARSER_H_

#include <optional>
#include <string>
#include <string_view>

#include "query/query.h"

namespace ddc {

// Parses `text` into a Query. On failure returns nullopt and describes the
// problem (with its token position) in *error. Write statements are a parse
// error here; use ParseStatement.
std::optional<Query> ParseQuery(std::string_view text, std::string* error);

// Parses `text` into a Statement — a read query or an ADD/SET write (the
// leading keyword decides). On failure returns nullopt and describes the
// problem in *error.
std::optional<Statement> ParseStatement(std::string_view text,
                                        std::string* error);

}  // namespace ddc

#endif  // DDC_QUERY_PARSER_H_
