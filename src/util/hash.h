#ifndef SAPHYRA_UTIL_HASH_H_
#define SAPHYRA_UTIL_HASH_H_

/// \file
/// Incremental FNV-1a (64-bit) hashing. Used wherever the codebase needs a
/// stable, process-independent content digest: the `.sgr` graph content
/// fingerprint (graph/binary_io.h) and the serving layer's canonical query
/// cache keys (service/query.h). Not cryptographic — collisions are handled
/// by the callers (the memo compares full canonical encodings on hit).

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace saphyra {

/// \brief Streaming FNV-1a over arbitrary byte runs. Deterministic across
/// runs and processes (no per-process seeding), which is what makes the
/// digests usable as on-disk fingerprints and cross-session cache keys.
class Fnv1a64 {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  void Update(const void* data, size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t h = hash_;
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= kPrime;
    }
    hash_ = h;
  }

  /// \brief Hash a trivially-copyable value by its object representation.
  /// Only use with types whose representation is stable across builds
  /// (fixed-width integers, not structs with padding).
  template <typename T>
  void UpdateValue(const T& value) {
    Update(&value, sizeof(value));
  }

  void Update(std::string_view s) { Update(s.data(), s.size()); }

  uint64_t Digest() const { return hash_; }

 private:
  uint64_t hash_ = kOffsetBasis;
};

}  // namespace saphyra

#endif  // SAPHYRA_UTIL_HASH_H_
