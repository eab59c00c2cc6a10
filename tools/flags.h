// Flag-value parsing shared by the command-line tools (saphyra_rank,
// saphyra_serve, saphyra_worker). Header-only: each tool is one
// translation unit.

#ifndef SAPHYRA_TOOLS_FLAGS_H_
#define SAPHYRA_TOOLS_FLAGS_H_

#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>

namespace saphyra {

/// Parses `val` as an unsigned decimal integer: the whole token must be
/// decimal digits (no sign, whitespace or suffix) and the value must fit T.
template <typename T>
bool ParseUnsigned(const char* val, T* out) {
  static_assert(std::is_unsigned_v<T>);
  const char* end = val + std::strlen(val);
  T x = 0;
  const auto [ptr, ec] = std::from_chars(val, end, x, 10);
  if (ec != std::errc() || ptr != end) return false;
  *out = x;
  return true;
}

/// ParseUnsigned for the value of `flag`; on failure prints the reason to
/// stderr (the caller then exits with the usage status 2).
template <typename T>
bool ParseUnsignedFlag(const char* flag, const char* val, T* out) {
  if (ParseUnsigned(val, out)) return true;
  std::fprintf(stderr, "%s must be an integer in [0, %llu], got '%s'\n", flag,
               static_cast<unsigned long long>(std::numeric_limits<T>::max()),
               val);
  return false;
}

/// Splits a `--graph [NAME=]PATH` value into (name, path): NAME=PATH, or a
/// bare PATH registered under its own spelling (the single-graph
/// invocation everyone already has in scripts).
inline std::pair<std::string, std::string> SplitGraphSpec(
    const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos) return {spec, spec};
  return {spec.substr(0, eq), spec.substr(eq + 1)};
}

}  // namespace saphyra

#endif  // SAPHYRA_TOOLS_FLAGS_H_
