#include "baselines/kadabra.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "bc/vc_bc.h"
#include "core/progressive_sampler.h"
#include "stats/vc.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace saphyra {

namespace {

/// KADABRA's sample generator as a hypothesis-ranking problem: one sample
/// draws a uniform ordered node pair, samples *one* uniform shortest path
/// between them with the configured strategy, and reports the path's inner
/// nodes (0/1 losses over all n node-hypotheses). Clones share the graph
/// and own their BFS scratch, so the progressive scheduler can stripe the
/// draw over its logical workers.
class KadabraProblem : public HypothesisRankingProblem {
 public:
  KadabraProblem(const Graph& g, SamplingStrategy strategy,
                 TraversalPolicy traversal, double vc_bound)
      : g_(g),
        strategy_(strategy),
        vc_bound_(vc_bound),
        sampler_(g, /*views=*/nullptr) {
    sampler_.set_traversal(traversal);
  }

  size_t num_hypotheses() const override { return g_.num_nodes(); }

  double ComputeExactRisks(std::vector<double>* exact_risks) override {
    // KADABRA has no exact subspace; everything is sampled.
    exact_risks->assign(num_hypotheses(), 0.0);
    return 0.0;
  }

  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    const NodeId n = g_.num_nodes();
    NodeId u = static_cast<NodeId>(rng->UniformInt(n));
    NodeId v;
    do {
      v = static_cast<NodeId>(rng->UniformInt(n));
    } while (v == u);
    // Unreachable pairs are zero-valued samples.
    if (sampler_.SampleUniformPath(u, v, strategy_, rng, &path_)) {
      for (size_t i = 1; i + 1 < path_.nodes.size(); ++i) {
        hits->push_back(path_.nodes[i]);
      }
    }
  }

  double VcDimension() const override { return vc_bound_; }

  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<KadabraProblem>(g_, strategy_,
                                            sampler_.traversal(), vc_bound_);
  }

 private:
  const Graph& g_;
  SamplingStrategy strategy_;
  double vc_bound_;
  PathSampler sampler_;
  PathSample path_;
};

}  // namespace

KadabraResult RunKadabra(const Graph& g, const KadabraOptions& options) {
  SAPHYRA_CHECK(options.epsilon > 0.0 && options.epsilon < 1.0);
  Timer timer;
  const NodeId n = g.num_nodes();
  KadabraResult result;
  result.bc.assign(n, 0.0);
  if (n < 2) return result;

  Rng rng = ProgressiveRunStream(options.seed, 0, 1);
  const double vc = RiondatoVcBound(g);  // two BFS sweeps — compute once
  KadabraProblem problem(g, options.strategy, options.traversal, vc);
  // The adaptive scheme of [12] with its union-bound bookkeeping
  // simplified to uniform weights: δ split over n nodes, two tails, and
  // the planned doubling checks (the rules own that split).
  ProgressiveSampler sampler(&problem, MakeVcCappedSchedule(options, vc),
                             &rng);
  ProgressiveResult run;
  if (options.top_k > 0 && options.top_k < n) {
    TopKSeparationRule rule(options.top_k, options.delta, /*deltas=*/{},
                            /*offsets=*/{}, /*scale=*/1.0);
    run = sampler.Run(&rule);
    if (run.degraded) {
      result.epsilon_achieved = rule.EvaluateWorstHalfwidth(run.stats);
    }
  } else {
    EpsilonGuaranteeRule rule(options.epsilon, options.delta, n);
    run = sampler.Run(&rule);
    if (run.degraded) {
      result.epsilon_achieved = rule.EvaluateWorstEpsilon(run.stats);
    }
  }

  const uint64_t samples = run.samples_used;
  for (NodeId v = 0; v < n; ++v) {
    result.bc[v] = run.stats.mean(v);
  }
  result.samples_used = samples;
  result.epochs = run.checks_used;
  result.stopped_early = run.stopped_early;
  result.degraded = run.degraded;
  result.degrade_reason = run.degrade_reason;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

std::unique_ptr<HypothesisRankingProblem> MakeKadabraSamplingProblem(
    const Graph& g, SamplingStrategy strategy, TraversalPolicy traversal) {
  // Shard workers never read VcDimension (the coordinator owns the sample
  // schedule), so the two-BFS Riondato bound is skipped deliberately —
  // sampling behavior is independent of it.
  return std::make_unique<KadabraProblem>(g, strategy, traversal,
                                          /*vc_bound=*/0.0);
}

}  // namespace saphyra
