// Small string utilities shared across modules.

#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace prairie::common {

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the single character `sep`; empty fields are kept.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders a double without trailing zeros ("3.5", "12", "0.001").
std::string FormatDouble(double v);

/// Indents every line of `text` by `spaces` spaces.
std::string Indent(std::string_view text, int spaces);

/// Escapes `s` for embedding inside a double-quoted JSON string: quotes,
/// backslashes, and control characters (RFC 8259). Does not add the
/// surrounding quotes.
std::string JsonEscape(std::string_view s);

}  // namespace prairie::common
