#ifndef SAPHYRA_BASELINES_KADABRA_H_
#define SAPHYRA_BASELINES_KADABRA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bc/path_sampler.h"
#include "core/saphyra.h"
#include "graph/graph.h"

namespace saphyra {

/// \brief Options for the KADABRA baseline (Borassi & Natale, ESA'16 [12]).
struct KadabraOptions : SamplingOptions {
  /// KADABRA's signature balanced bidirectional BFS; unidirectional kept
  /// for ablations.
  SamplingStrategy strategy = SamplingStrategy::kBidirectional;
  /// BFS level-expansion policy (graph/frontier.h): kAuto/kHybrid use the
  /// direction-optimizing kernel, kTopDown the classic push. Results are
  /// bitwise identical either way.
  TraversalPolicy traversal = TraversalPolicy::kAuto;
};

/// \brief Output of KADABRA. The inherited epsilon_achieved is the
/// per-node Bernstein bound (ε mode) or widest confidence half-width
/// (top-k mode).
struct KadabraResult : RunOutcome {
  /// Estimates for all n nodes (like ABRA, KADABRA estimates the whole
  /// network even when only a subset is of interest).
  std::vector<double> bc;
  uint32_t epochs = 0;
  double seconds = 0.0;
};

/// \brief KADABRA: adaptive uniform path sampling.
///
/// Each sample draws a uniform ordered node pair, samples *one* uniform
/// shortest path between them with a balanced bidirectional BFS, and
/// increments the counters of the path's inner nodes. Sampling runs on the
/// shared progressive scheduler (core/progressive_sampler.h) and stops
/// when per-node empirical-Bernstein deviations (failure budget split
/// uniformly across nodes, both tails, and doubling epochs) all reach ε,
/// or at the diameter-based VC cap of Riondato–Kornaropoulos — the
/// adaptive scheme of [12] with its union-bound bookkeeping simplified to
/// uniform weights. With `top_k` set the stop condition is instead
/// confidence-interval separation of the k most-central nodes.
KadabraResult RunKadabra(const Graph& g, const KadabraOptions& options);

/// \brief KADABRA's uniform-path sampling problem as a standalone object,
/// for shard workers that replay stripe draws bit-for-bit. Identical RNG
/// consumption per sample to the problem RunKadabra builds internally.
std::unique_ptr<HypothesisRankingProblem> MakeKadabraSamplingProblem(
    const Graph& g, SamplingStrategy strategy, TraversalPolicy traversal);

}  // namespace saphyra

#endif  // SAPHYRA_BASELINES_KADABRA_H_
