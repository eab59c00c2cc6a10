#ifndef SAPHYRA_UTIL_RNG_H_
#define SAPHYRA_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace saphyra {

/// \brief Fast, seedable pseudo-random number generator (xoshiro256**).
///
/// Every randomized component in the library takes an explicit seed so that
/// experiments are reproducible. The generator satisfies the C++
/// UniformRandomBitGenerator concept and can be used with <random>
/// distributions, but also exposes the handful of primitives the samplers
/// need (uniform index, uniform double, weighted index) without the libstdc++
/// distribution overhead.
class Rng {
 public:
  using result_type = uint64_t;

  /// \brief Construct from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// \brief Next 64 random bits.
  uint64_t Next();
  uint64_t operator()() { return Next(); }

  /// \brief Uniform integer in [0, bound). Requires bound > 0.
  ///
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t UniformInt(uint64_t bound);

  /// \brief Uniform double in [0, 1).
  double UniformDouble();

  /// \brief Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// \brief Index drawn proportionally to the non-negative weights.
  ///
  /// Linear scan; suitable for small weight vectors. Requires a positive
  /// total weight.
  size_t WeightedIndex(const std::vector<double>& weights);

  /// \brief Derive an independent child generator (for per-thread streams).
  Rng Split();

 private:
  uint64_t s_[4];
};

/// \brief Alias table for O(1) sampling from a fixed discrete distribution.
///
/// Built once in O(k) from a weight vector; each Sample() costs one random
/// draw and one comparison. Used by the multistage sampler where the
/// bi-component / source-node distributions are fixed for the whole run.
/// The static Build/Sample pair runs the same construction and draw on
/// caller-owned storage, so many tables can share flat arrays (IspIndex
/// keeps one slice per biconnected component).
class AliasTable {
 public:
  AliasTable() = default;

  /// \brief Build from non-negative weights with positive total mass.
  explicit AliasTable(const std::vector<double>& weights);

  /// \brief Number of outcomes (0 if empty).
  size_t size() const { return prob_.size(); }
  bool empty() const { return prob_.empty(); }

  /// \brief Draw an index in [0, size()). Requires a non-empty table.
  size_t Sample(Rng* rng) const { return Sample(prob_, alias_, rng); }

  /// \brief Vose's construction over `weights` (non-negative, positive
  /// total) into `prob` and `alias`, both sized like `weights`.
  static void Build(std::span<const double> weights, std::span<double> prob,
                    std::span<uint32_t> alias);

  /// \brief Draw from a table Build() wrote. Requires a non-empty table.
  static size_t Sample(std::span<const double> prob,
                       std::span<const uint32_t> alias, Rng* rng);

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
};

}  // namespace saphyra

#endif  // SAPHYRA_UTIL_RNG_H_
