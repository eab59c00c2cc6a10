#ifndef SAPHYRA_SERVICE_JSON_UTIL_H_
#define SAPHYRA_SERVICE_JSON_UTIL_H_

/// \file
/// Minimal JSON support for the serving layer: a strict recursive-descent
/// parser into a small value tree, plus escaping writers. Covers exactly
/// what `saphyra_serve`'s newline-delimited request/response protocol
/// needs (objects, arrays, strings, finite numbers, booleans, null) — no
/// comments, no NaN/Infinity, no duplicate-key policing beyond last-wins.
/// The repo deliberately has no third-party JSON dependency; this stays
/// small and fully tested (tests/json_util_test.cc) instead.
///
/// Ownership/threading: JsonValue is a plain value type; parsing and
/// writing are pure functions with no global state, safe to call from any
/// thread concurrently.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace saphyra {

/// \brief One parsed JSON value. A tagged union over the JSON types;
/// numbers keep both the double value and the raw uint64 when the literal
/// was a non-negative integer (seeds and node ids exceed 2^53).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  /// Exact value for non-negative integer literals without '.', 'e', or a
  /// leading '-'; meaningful only when `is_uint` is true.
  uint64_t uint_value = 0;
  bool is_uint = false;
  std::string string_value;
  std::vector<JsonValue> array;
  /// Insertion order is irrelevant to the protocol; a sorted map keeps
  /// lookups simple.
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }

  /// \brief Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// \brief Parse exactly one JSON document from `text` (surrounding
/// whitespace allowed, trailing garbage rejected).
Status ParseJson(const std::string& text, JsonValue* out);

/// \brief `s` with JSON string escaping applied, including the quotes.
std::string JsonQuote(const std::string& s);

/// \brief Round-trip rendering of a double: the first of %.15g, %.16g and
/// %.17g that parses back equal. Keeps the NDJSON responses
/// bitwise-faithful to the computed estimates.
std::string JsonNumber(double v);

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_JSON_UTIL_H_
