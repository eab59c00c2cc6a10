#include "host_speed.h"

#include <algorithm>
#include <array>
#include <chrono>

namespace e2e {

namespace {

constexpr uint32_t kNodes = 4096;
constexpr uint32_t kEdgesPerNode = 3;
constexpr int kRounds = 5;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HostSpeed::HostSpeed() : n_(kNodes) {
  // Preferential attachment: each new node links to kEdgesPerNode
  // endpoints of earlier edges, so hubs form as in the social graphs.
  uint64_t rng = 0x5eedULL;
  std::vector<uint32_t> ends = {0, 1};
  std::vector<std::vector<uint32_t>> adj(n_);
  adj[0].push_back(1);
  adj[1].push_back(0);
  for (uint32_t u = 2; u < n_; ++u) {
    for (uint32_t k = 0; k < kEdgesPerNode; ++k) {
      const uint32_t v = ends[SplitMix64(&rng) % ends.size()];
      adj[u].push_back(v);
      adj[v].push_back(u);
      ends.push_back(u);
      ends.push_back(v);
    }
  }
  offsets_.assign(n_ + 1, 0);
  for (uint32_t u = 0; u < n_; ++u) {
    offsets_[u + 1] = offsets_[u] + static_cast<uint32_t>(adj[u].size());
    neighbours_.insert(neighbours_.end(), adj[u].begin(), adj[u].end());
  }
  dist_.resize(n_);
  order_.resize(n_);
  sigma_.resize(n_);
  delta_.resize(n_);
}

double HostSpeed::Round(uint32_t source) {
  const auto t0 = std::chrono::steady_clock::now();
  std::fill(dist_.begin(), dist_.end(), -1);
  uint32_t head = 0, tail = 0;
  order_[tail++] = source;
  dist_[source] = 0;
  sigma_[source] = 1.0;
  while (head < tail) {
    const uint32_t u = order_[head++];
    for (uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const uint32_t v = neighbours_[e];
      if (dist_[v] < 0) {
        dist_[v] = dist_[u] + 1;
        sigma_[v] = 0.0;
        order_[tail++] = v;
      }
      if (dist_[v] == dist_[u] + 1) sigma_[v] += sigma_[u];
    }
  }
  for (uint32_t i = 0; i < tail; ++i) delta_[order_[i]] = 0.0;
  for (uint32_t i = tail; i-- > 1;) {
    const uint32_t w = order_[i];
    for (uint32_t e = offsets_[w]; e < offsets_[w + 1]; ++e) {
      const uint32_t v = neighbours_[e];
      if (dist_[v] == dist_[w] - 1) {
        delta_[v] += sigma_[v] / sigma_[w] * (1.0 + delta_[w]);
      }
    }
  }
  sink_ += delta_[order_[tail / 2]];
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double HostSpeed::Sample() {
  Round(0);
  std::array<double, kRounds> us;
  for (int r = 0; r < kRounds; ++r) {
    us[r] = Round(static_cast<uint32_t>(r) * (n_ / kRounds));
  }
  std::nth_element(us.begin(), us.begin() + kRounds / 2, us.end());
  return us[kRounds / 2] / kReferenceUs;
}

}  // namespace e2e
