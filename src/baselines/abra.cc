#include "baselines/abra.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "bc/vc_bc.h"
#include "core/progressive_sampler.h"
#include "graph/bfs.h"
#include "stats/vc.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/timer.h"

namespace saphyra {

namespace {

/// Truncated BFS dependency accumulation for one sampled pair (u,v):
/// credits every inner node w of a shortest u-v path with σ_uv(w)/σ_uv.
/// Reusable scratch; O(edges within distance d(u,v)) per call.
class PairDependencyAccumulator {
 public:
  explicit PairDependencyAccumulator(const Graph& g)
      : g_(g),
        dist_(g.num_nodes(), 0),
        sigma_(g.num_nodes(), 0.0),
        mu_(g.num_nodes(), 0.0),
        epoch_of_(g.num_nodes(), 0),
        mu_epoch_(g.num_nodes(), 0) {}

  /// Returns false if v is unreachable from u. Otherwise calls
  /// credit(w, fraction) for every inner node w.
  template <typename CreditFn>
  bool Accumulate(NodeId u, NodeId v, const CreditFn& credit) {
    ++epoch_;
    order_.clear();
    Set(u, 0, 1.0);
    order_.push_back(u);
    uint32_t limit = kUnreachable;
    for (size_t head = 0; head < order_.size(); ++head) {
      NodeId x = order_[head];
      if (dist_[x] >= limit) break;  // v's level fully expanded
      for (NodeId y : g_.neighbors(x)) {
        if (epoch_of_[y] != epoch_) {
          Set(y, dist_[x] + 1, 0.0);
          order_.push_back(y);
          if (y == v) limit = dist_[y];
        }
        if (dist_[y] == dist_[x] + 1) sigma_[y] += sigma_[x];
      }
    }
    if (epoch_of_[v] != epoch_) return false;
    // Backward pass over the shortest-path DAG restricted to u-v paths:
    // μ(w) = #shortest w-v paths; processed in descending distance so every
    // successor is final before its predecessors accumulate.
    back_.clear();
    mu_epoch_[v] = epoch_;
    mu_[v] = 1.0;
    back_.push_back(v);
    for (size_t head = 0; head < back_.size(); ++head) {
      NodeId w = back_[head];
      for (NodeId x : g_.neighbors(w)) {
        if (epoch_of_[x] == epoch_ && dist_[x] + 1 == dist_[w] &&
            mu_epoch_[x] != epoch_) {
          mu_epoch_[x] = epoch_;
          mu_[x] = 0.0;
          back_.push_back(x);
        }
      }
    }
    std::sort(back_.begin(), back_.end(), [this](NodeId a, NodeId b) {
      return dist_[a] > dist_[b];
    });
    for (NodeId w : back_) {
      for (NodeId x : g_.neighbors(w)) {
        if (epoch_of_[x] == epoch_ && dist_[x] + 1 == dist_[w] &&
            mu_epoch_[x] == epoch_) {
          mu_[x] += mu_[w];
        }
      }
    }
    const double sigma_uv = sigma_[v];
    SAPHYRA_CHECK(sigma_uv > 0.0);
    for (NodeId w : back_) {
      if (w == u || w == v) continue;
      credit(w, sigma_[w] * mu_[w] / sigma_uv);
    }
    return true;
  }

 private:
  void Set(NodeId x, uint32_t d, double s) {
    epoch_of_[x] = epoch_;
    dist_[x] = d;
    sigma_[x] = s;
  }

  const Graph& g_;
  std::vector<uint32_t> dist_;
  std::vector<double> sigma_;
  std::vector<double> mu_;
  std::vector<uint64_t> epoch_of_;
  std::vector<uint64_t> mu_epoch_;
  std::vector<NodeId> order_;
  std::vector<NodeId> back_;
  uint64_t epoch_ = 0;
};

/// Exponential-moment bound on the empirical Rademacher average:
///   R̃ ≤ min_{s>0} (1/s)·ln( Σ_f exp(s²·||f||² / (2N²)) ),
/// evaluated stably and minimized by golden-section search on log s.
double RademacherBound(const std::vector<double>& sum_sq, uint64_t n_samples) {
  const double nn = static_cast<double>(n_samples);
  double max_v = 0.0;
  for (double v : sum_sq) max_v = std::max(max_v, v);
  auto phi = [&](double log_s) {
    double s = std::exp(log_s);
    double scale = s * s / (2.0 * nn * nn);
    double amax = scale * max_v;
    double acc = std::exp(-amax);  // the identically-zero function
    for (double v : sum_sq) acc += std::exp(scale * v - amax);
    return (amax + std::log(acc)) / s;
  };
  double lo = -10.0, hi = 12.0;
  for (int iter = 0; iter < 60; ++iter) {
    double m1 = lo + (hi - lo) / 3.0;
    double m2 = hi - (hi - lo) / 3.0;
    if (phi(m1) < phi(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return phi(0.5 * (lo + hi));
}

/// ABRA's sample generator as a weighted-loss ranking problem: a sample is
/// a uniform ordered pair (u,v) and hypothesis w's loss is the dependency
/// fraction σ_uv(w)/σ_uv ∈ [0, 1] (0 for unreachable pairs). Clones share
/// the graph and own their BFS scratch.
class AbraProblem : public HypothesisRankingProblem {
 public:
  AbraProblem(const Graph& g, double vc_bound)
      : g_(g), vc_bound_(vc_bound), acc_(g) {}

  size_t num_hypotheses() const override { return g_.num_nodes(); }

  double ComputeExactRisks(std::vector<double>* exact_risks) override {
    exact_risks->assign(num_hypotheses(), 0.0);
    return 0.0;
  }

  bool has_weighted_losses() const override { return true; }

  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    SAPHYRA_CHECK_MSG(false, "ABRA losses are fractional");
  }

  void SampleWeightedLosses(Rng* rng,
                            std::vector<WeightedHit>* hits) override {
    const NodeId n = g_.num_nodes();
    NodeId u = static_cast<NodeId>(rng->UniformInt(n));
    NodeId v;
    do {
      v = static_cast<NodeId>(rng->UniformInt(n));
    } while (v == u);
    acc_.Accumulate(u, v, [&](NodeId w, double f) {
      hits->push_back({w, f});
    });
  }

  double VcDimension() const override { return vc_bound_; }

  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<AbraProblem>(g_, vc_bound_);
  }

 private:
  const Graph& g_;
  double vc_bound_;
  PairDependencyAccumulator acc_;
};

/// ABRA's stopping criterion on the shared progressive scheduler: bound
/// the supremum deviation by 2·R̃ + 3·sqrt(ln(2/δ_e)/2N), with R̃ the
/// self-bounding Rademacher estimate over the per-node sums of squares.
/// Not a per-hypothesis deviation rule — the reason StoppingRule exposes
/// whole-vector moment statistics instead of a per-hypothesis callback.
class RademacherRule : public StoppingRule {
 public:
  RademacherRule(double epsilon, double delta)
      : epsilon_(epsilon), delta_(delta) {}

  void Begin(uint64_t initial_samples, uint64_t max_samples,
             uint32_t planned_checks) override {
    delta_check_ = delta_ / static_cast<double>(planned_checks);
  }

  bool ShouldStop(const SampleStats& stats) override {
    const double r_bound = RademacherBound(stats.sum_squares, stats.n);
    last_bound_ = 2.0 * r_bound +
                  3.0 * std::sqrt(std::log(2.0 / delta_check_) /
                                  (2.0 * static_cast<double>(stats.n)));
    return last_bound_ <= epsilon_;
  }

  double last_bound() const { return last_bound_; }

 private:
  double epsilon_;
  double delta_;
  double delta_check_ = 0.0;
  double last_bound_ = 0.0;
};

}  // namespace

AbraResult RunAbra(const Graph& g, const SamplingOptions& options) {
  SAPHYRA_CHECK(options.epsilon > 0.0 && options.epsilon < 1.0);
  Timer timer;
  const NodeId n = g.num_nodes();
  AbraResult result;
  result.bc.assign(n, 0.0);
  if (n < 2) return result;

  Rng rng = ProgressiveRunStream(options.seed, 0, 1);
  const double vc = RiondatoVcBound(g);  // two BFS sweeps — compute once
  AbraProblem problem(g, vc);
  ProgressiveSampler sampler(&problem, MakeVcCappedSchedule(options, vc),
                             &rng);
  ProgressiveResult run;
  if (options.top_k > 0 && options.top_k < n) {
    // Top-k mode: empirical-Bernstein separation on the fractional
    // losses (valid for any [0,1]-valued samples, not just 0/1).
    TopKSeparationRule rule(options.top_k, options.delta, /*deltas=*/{},
                            /*offsets=*/{}, /*scale=*/1.0);
    run = sampler.Run(&rule);
    result.final_bound = rule.last_gap();
    if (run.degraded) {
      result.epsilon_achieved = rule.EvaluateWorstHalfwidth(run.stats);
    }
  } else {
    RademacherRule rule(options.epsilon, options.delta);
    run = sampler.Run(&rule);
    result.final_bound = rule.last_bound();
    if (run.degraded) {
      // The truncation-point diagnostic evaluation in the run loop left
      // last_bound() at the achieved Rademacher bound — valid only once a
      // second sample exists (the bound divides by N).
      result.epsilon_achieved =
          run.stats.n >= 2 ? rule.last_bound()
                           : std::numeric_limits<double>::infinity();
    }
  }

  for (NodeId w = 0; w < n; ++w) {
    result.bc[w] = run.stats.mean(w);
  }
  result.samples_used = run.samples_used;
  result.epochs = run.checks_used;
  result.stopped_early = run.stopped_early;
  result.degraded = run.degraded;
  result.degrade_reason = run.degrade_reason;
  result.seconds = timer.ElapsedSeconds();
  return result;
}

std::unique_ptr<HypothesisRankingProblem> MakeAbraSamplingProblem(
    const Graph& g) {
  // Shard workers never read VcDimension (the coordinator owns the sample
  // schedule), so the two-BFS Riondato bound is skipped deliberately —
  // sampling behavior is independent of it.
  return std::make_unique<AbraProblem>(g, /*vc_bound=*/0.0);
}

}  // namespace saphyra
