#include "util/rng.h"

#include <algorithm>
#include <cassert>

namespace saphyra {

namespace {
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless unbiased bounded sampling.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::UniformDouble() {
  // 53 high-quality bits -> [0, 1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double r = UniformDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r <= 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Split() { return Rng(Next()); }

AliasTable::AliasTable(const std::vector<double>& weights)
    : prob_(weights.size()), alias_(weights.size()) {
  if (!weights.empty()) Build(weights, prob_, alias_);
}

void AliasTable::Build(std::span<const double> weights, std::span<double> prob,
                       std::span<uint32_t> alias) {
  const size_t k = weights.size();
  assert(prob.size() == k && alias.size() == k && k > 0);
  std::fill(prob.begin(), prob.end(), 0.0);
  std::fill(alias.begin(), alias.end(), 0);
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  // Vose's algorithm.
  std::vector<double> scaled(k);
  for (size_t i = 0; i < k; ++i) scaled[i] = weights[i] * k / total;
  std::vector<uint32_t> small, large;
  small.reserve(k);
  large.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  while (!large.empty()) {
    prob[large.back()] = 1.0;
    large.pop_back();
  }
  while (!small.empty()) {
    prob[small.back()] = 1.0;
    small.pop_back();
  }
}

size_t AliasTable::Sample(std::span<const double> prob,
                          std::span<const uint32_t> alias, Rng* rng) {
  assert(!prob.empty());
  size_t i = rng->UniformInt(prob.size());
  return rng->UniformDouble() < prob[i] ? i : alias[i];
}

}  // namespace saphyra
