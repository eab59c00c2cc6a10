#include "bc/saphyra_bc.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "bc/exact_subspace.h"
#include "bc/vc_bc.h"
#include "util/logging.h"
#include "util/timer.h"

namespace saphyra {

namespace {

/// Adapter exposing RSP_bc as a HypothesisRankingProblem (§IV-B): the
/// hypothesis class H_c^(A) = {h_v = g(v,·)} over the PISP space, with the
/// 2-hop exact subspace and Gen_bc as the sample generator.
class SaphyraBcProblem : public HypothesisRankingProblem {
 public:
  SaphyraBcProblem(const PersonalizedSpace& space,
                   const SaphyraBcOptions& options, double vc_bound)
      : space_(space),
        options_(options),
        vc_bound_(vc_bound),
        rejected_(std::make_shared<std::atomic<uint64_t>>(0)),
        // Gen_bc's restricted BFS runs on the block's compact CSR view.
        sampler_(space.isp().graph(), &space.isp().views()) {
    sampler_.set_traversal(options.traversal);
  }

  size_t num_hypotheses() const override { return space_.targets().size(); }

  double ComputeExactRisks(std::vector<double>* exact_risks) override {
    if (!options_.use_exact_subspace) {
      exact_risks->assign(num_hypotheses(), 0.0);
      return 0.0;
    }
    Timer timer;
    ExactSubspaceResult res = ComputeExactSubspace(space_);
    exact_seconds_ = timer.ElapsedSeconds();
    *exact_risks = std::move(res.exact_risks);
    return res.lambda_hat;
  }

  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    const IspIndex& isp = space_.isp();
    // Algorithm 2: multistage sampling with rejection of exact-subspace
    // paths. Stage probabilities multiply to q_st/(γη σ_st), Lemma 20.
    // Endpoints stay member indices of the block (its view's local ids)
    // until the sampler emits the path in global ids.
    for (;;) {
      uint32_t comp = space_.SampleComponent(rng);
      NodeId s = isp.SampleSource(comp, rng);
      NodeId t = isp.SampleTarget(comp, s, rng);
      bool ok = sampler_.SampleRestrictedPath(comp, s, t, options_.strategy,
                                              rng, &path_);
      SAPHYRA_CHECK_MSG(ok, "nodes of one bi-component must be connected");
      if (options_.use_exact_subspace && InExactSubspace(space_, path_.nodes)) {
        rejected_->fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      break;
    }
    // Losses: h_v(p) = 1 iff v is an inner node of p (Eq. 6).
    for (size_t i = 1; i + 1 < path_.nodes.size(); ++i) {
      int32_t h = space_.HypothesisIndex(path_.nodes[i]);
      if (h >= 0) hits->push_back(static_cast<uint32_t>(h));
    }
  }

  double VcDimension() const override { return vc_bound_; }

  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    // Clones share the (immutable) personalized space, options and the
    // rejection counter, but own their BFS scratch via a fresh
    // PathSampler; their ComputeExactRisks is never called.
    auto clone =
        std::make_unique<SaphyraBcProblem>(space_, options_, vc_bound_);
    clone->rejected_ = rejected_;
    return clone;
  }

  uint64_t rejected() const {
    return rejected_->load(std::memory_order_relaxed);
  }
  double exact_seconds() const { return exact_seconds_; }

 private:
  const PersonalizedSpace& space_;
  const SaphyraBcOptions& options_;
  double vc_bound_;
  std::shared_ptr<std::atomic<uint64_t>> rejected_;
  PathSampler sampler_;
  PathSample path_;  // scratch of SampleApproxLosses
  double exact_seconds_ = 0.0;
};

}  // namespace

SaphyraBcResult RunSaphyraBc(const IspIndex& isp,
                             const std::vector<NodeId>& targets,
                             const SaphyraBcOptions& options) {
  Timer total_timer;
  SaphyraBcResult result;
  result.gamma = isp.gamma();

  PersonalizedSpace space(isp, targets);
  result.eta = space.eta();
  const size_t k = targets.size();
  result.bc.assign(k, 0.0);

  const double ge = result.gamma * result.eta;
  if (ge <= 0.0) {
    // No component touches A: every target's centrality is pure break-point
    // mass (e.g. targets that are leaves or isolated nodes).
    for (size_t i = 0; i < k; ++i) result.bc[i] = isp.bca(targets[i]);
    result.total_seconds = total_timer.ElapsedSeconds();
    return result;
  }

  VcBcBounds vc = ComputePersonalizedVcBounds(space);
  result.vc_bound = vc.vc_bound;
  result.bs_bound = vc.bs_bound;

  // b̃c(v) = bc_a(v) + γη·ℓ_v (Lemma 16), so an error budget of ε on b̃c
  // allows ε* = ε/(γη) ≥ ε on ℓ. (§IV-D writes ε* = εγη; see DESIGN.md for
  // why the quotient is the form consistent with Theorem 24 — it is also
  // what makes personalization cheaper, smaller η ⇒ fewer samples.)
  const double eps_star = std::min(0.999, options.epsilon / ge);

  SaphyraOptions fw{options};
  fw.epsilon = eps_star;
  if (options.top_k > 0) {
    // b̃c(v) = bc_a(v) + γη·ℓ_v: separation must rank by the final bc, so
    // the break-point mass enters the rule as an offset in ℓ units.
    fw.top_k_offsets.resize(k);
    for (size_t i = 0; i < k; ++i) {
      fw.top_k_offsets[i] = isp.bca(targets[i]) / ge;
    }
  }

  Timer phase_timer;
  SaphyraBcProblem problem(space, options, vc.vc_bound);
  SaphyraResult inner = RunSaphyra(&problem, fw);
  result.sampling_seconds = phase_timer.ElapsedSeconds();

  static_cast<RunOutcome&>(result) = inner;
  // b̃c = bc_a + γη·ℓ, so a deviation bound on ℓ scales by γη in bc units.
  result.epsilon_achieved *= ge;
  result.lambda_hat = inner.lambda_hat;
  result.pilot_samples = inner.pilot_samples;
  result.max_samples = inner.max_samples;
  result.rejected_samples = problem.rejected();
  result.exact_seconds = problem.exact_seconds();
  result.sampling_seconds -= result.exact_seconds;

  for (size_t i = 0; i < k; ++i) {
    result.bc[i] = isp.bca(targets[i]) + ge * inner.combined_risks[i];
  }
  result.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

SaphyraBcResult RunSaphyraBcFull(const IspIndex& isp,
                                 const SaphyraBcOptions& options) {
  std::vector<NodeId> all(isp.graph().num_nodes());
  for (NodeId v = 0; v < isp.graph().num_nodes(); ++v) all[v] = v;
  return RunSaphyraBc(isp, all, options);
}

namespace {

/// Self-contained Gen_bc problem for shard workers: owns the personalized
/// space and an options copy (the inner SaphyraBcProblem holds both by
/// reference), then forwards every virtual to it. Sampling behavior — and
/// therefore RNG stream consumption — is identical to the problem
/// RunSaphyraBc builds, which is the bitwise-replay contract the sharded
/// tier relies on.
class OwningSaphyraBcProblem : public HypothesisRankingProblem {
 public:
  OwningSaphyraBcProblem(const IspIndex& isp,
                         const std::vector<NodeId>& targets,
                         const SaphyraBcOptions& options)
      : options_(options),
        space_(isp, targets),
        // The VC bound is only read through VcDimension(), which shard
        // workers never call (the coordinator owns the schedule); compute
        // it anyway so the object is honest standalone.
        inner_(space_, options_,
               ComputePersonalizedVcBounds(space_).vc_bound) {}

  size_t num_hypotheses() const override { return inner_.num_hypotheses(); }
  double ComputeExactRisks(std::vector<double>* exact_risks) override {
    return inner_.ComputeExactRisks(exact_risks);
  }
  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    inner_.SampleApproxLosses(rng, hits);
  }
  double VcDimension() const override { return inner_.VcDimension(); }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return inner_.CloneForSampling();
  }

 private:
  SaphyraBcOptions options_;
  PersonalizedSpace space_;
  SaphyraBcProblem inner_;
};

}  // namespace

std::unique_ptr<HypothesisRankingProblem> MakeSaphyraBcSamplingProblem(
    const IspIndex& isp, const std::vector<NodeId>& targets,
    const SaphyraBcOptions& options) {
  return std::make_unique<OwningSaphyraBcProblem>(isp, targets, options);
}

}  // namespace saphyra
