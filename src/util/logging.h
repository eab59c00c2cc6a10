#ifndef SAPHYRA_UTIL_LOGGING_H_
#define SAPHYRA_UTIL_LOGGING_H_

#include <cstdio>
#include <cstdlib>

namespace saphyra {

/// \brief Internal invariant check. Aborts with a message on violation.
///
/// These stay on in release builds: the algorithms here rely on probability
/// normalization invariants that silent corruption would turn into subtly
/// wrong experimental results rather than crashes.
#define SAPHYRA_CHECK(cond)                                                 \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "SAPHYRA_CHECK failed at %s:%d: %s\n", __FILE__, \
                   __LINE__, #cond);                                        \
      std::abort();                                                         \
    }                                                                       \
  } while (false)

/// `msg` must be a C string: the cast rejects a std::string at compile
/// time instead of passing it through varargs to %s.
#define SAPHYRA_CHECK_MSG(cond, msg)                                       \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "SAPHYRA_CHECK failed at %s:%d: %s (%s)\n",     \
                   __FILE__, __LINE__, #cond,                              \
                   static_cast<const char*>(msg));                         \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

}  // namespace saphyra

#endif  // SAPHYRA_UTIL_LOGGING_H_
