#include "service/session.h"

#include <utility>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "closeness/closeness.h"
#include "core/saphyra.h"
#include "kpath/kpath.h"
#include "service/shard.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/timer.h"

namespace saphyra {

namespace {

/// Targets of a whole-graph query: 0..n-1.
std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  return all;
}

/// Report `targets` (or all nodes when empty) out of a whole-network
/// estimate vector — the ABRA/KADABRA shape.
void ReportSubset(const std::vector<double>& bc,
                  const std::vector<NodeId>& targets, QueryResult* res) {
  if (targets.empty()) {
    res->nodes = AllNodes(static_cast<NodeId>(bc.size()));
    res->estimates = bc;
    return;
  }
  res->nodes = targets;
  res->estimates.reserve(targets.size());
  for (NodeId v : targets) res->estimates.push_back(bc[v]);
}

/// Copy an estimator's sample count and degradation into `res`. Degraded
/// outcomes surface as results, not errors: the completed-wave estimates
/// are still deterministic, so the client gets them plus the achieved
/// bound (in the served estimates' units) and decides whether they are
/// usable.
void ReportOutcome(const RunOutcome& outcome, QueryResult* res) {
  res->samples_used = outcome.samples_used;
  if (!outcome.degraded) return;
  res->degraded = true;
  res->degrade_reason = outcome.degrade_reason;
  res->epsilon_achieved = outcome.epsilon_achieved;
}

}  // namespace

uint64_t ChainMutationFingerprint(uint64_t prev, uint64_t epoch,
                                  EdgeMutationKind kind, NodeId u, NodeId v) {
  // Endpoint order is canonicalized so {"edge":[u,v]} and [v,u] chain to
  // the same epoch fingerprint — they are the same undirected mutation.
  if (u > v) std::swap(u, v);
  Fnv1a64 h;
  h.UpdateValue(prev);
  h.UpdateValue(epoch);
  h.UpdateValue(static_cast<uint8_t>(kind));
  h.UpdateValue(u);
  h.UpdateValue(v);
  return h.Digest();
}

const IspIndex& GraphSnapshot::isp() const {
  std::call_once(isp_once_, [this] {
    fail::MaybeFault("session.index");
    isp_ = cache_.has_decomposition
               ? std::make_unique<IspIndex>(graph_, std::move(cache_))
               : std::make_unique<IspIndex>(graph_);
  });
  return *isp_;
}

Status QuerySession::Open(const std::string& graph_path,
                          const SessionOptions& options,
                          std::unique_ptr<QuerySession>* out) {
  std::unique_ptr<QuerySession> session(new QuerySession());
  session->options_ = options;
  auto snapshot = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  SAPHYRA_RETURN_NOT_OK(LoadGraphAuto(graph_path, options.load,
                                      &snapshot->cache_,
                                      &session->loaded_from_cache_));
  snapshot->graph_ = std::move(snapshot->cache_.graph);
  if (snapshot->graph_.num_nodes() < 2) {
    return Status::InvalidArgument(
        "graph too small to serve queries (n=" +
        std::to_string(snapshot->graph_.num_nodes()) + ")");
  }
  // Prefer the fingerprint the `.sgr` header recorded (free); caches
  // written before fingerprints existed, and text parses, pay one O(n+m)
  // pass here — once per session, not per query.
  snapshot->fingerprint_ = snapshot->cache_.content_fingerprint != 0
                               ? snapshot->cache_.content_fingerprint
                               : GraphContentFingerprint(snapshot->graph_);
  session->current_ = std::move(snapshot);
  if (options.eager_index) session->isp();
  *out = std::move(session);
  return Status::OK();
}

Status QuerySession::ApplyUpdate(const EdgeMutation& mut, UpdateOutcome* out) {
  std::lock_guard<std::mutex> update_lock(update_mu_);
  std::shared_ptr<const GraphSnapshot> cur = snapshot();
  // The splice validates against the current epoch before anything is
  // built, so a rejected update changes nothing.
  auto next = std::shared_ptr<GraphSnapshot>(new GraphSnapshot());
  SAPHYRA_RETURN_NOT_OK(SpliceEdge(cur->graph(), mut, &next->graph_));
  next->epoch_ = cur->epoch() + 1;
  next->fingerprint_ = ChainMutationFingerprint(
      cur->fingerprint(), next->epoch_, mut.kind, mut.u, mut.v);

  // Repair the decomposition from the current epoch's (building its index
  // now if no query ever had — repairs chain) and derive the new epoch's
  // index from it, so the epoch is ready before it is published.
  IncrementalBicompStats repair_stats;
  const IspIndex& parent = cur->isp();
  BiconnectedComponents bcc = RepairBiconnectedComponents(
      cur->graph(), parent.bcc(), parent.views(), next->graph_, mut,
      &repair_stats);
  std::call_once(next->isp_once_, [&] {
    next->isp_ = std::make_unique<IspIndex>(next->graph_, parent,
                                            std::move(bcc),
                                            repair_stats.remap);
  });
  {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    current_ = next;
  }
  if (out != nullptr) {
    out->epoch = next->epoch_;
    out->fingerprint = next->fingerprint_;
    out->repair_dirty_arcs = repair_stats.dirty_arcs;
  }
  return Status::OK();
}

QueryResult QuerySession::Run(const QueryRequest& request) {
  std::shared_ptr<const GraphSnapshot> snap = snapshot();
  QueryRequest req = request;
  Status st = CanonicalizeQuery(snap->graph().num_nodes(), &req);
  if (!st.ok() || req.op == RequestOp::kUpdate) {
    if (st.ok()) {
      // Direct Run() is the query path; updates go through ApplyUpdate
      // (or the scheduler, which routes them there).
      st = Status::InvalidArgument(
          "update requests must be applied through the scheduler");
    }
    QueryResult res;
    res.id = request.id;
    res.estimator = request.estimator;
    res.status = st;
    return res;
  }
  if (req.deadline_ms == 0) return RunCanonical(*snap, req, nullptr);
  CancelToken token;
  token.TightenDeadline(Deadline::AfterMillis(req.deadline_ms));
  return RunCanonical(*snap, req, &token);
}

QueryResult QuerySession::RunCanonical(const GraphSnapshot& snap,
                                       const QueryRequest& req,
                                       const CancelToken* cancel,
                                       ShardedQuery* shard) {
  QueryResult res;
  res.id = req.id;
  res.estimator = req.estimator;
  const Graph& graph = snap.graph();

  // The run fields every estimator shares; each case below adds only its
  // estimator's own.
  SamplingOptions base;
  base.epsilon = req.epsilon;
  base.delta = req.delta;
  base.seed = req.seed;
  base.top_k = req.top_k;
  base.num_threads =
      req.num_threads != 0 ? req.num_threads : options_.default_threads;
  base.cancel = cancel;
  // Non-null shard: delegate every sample wave to the worker tier. The
  // lambda outlives each estimator call below but not this frame, and the
  // executors it hands out live on `shard`, so borrowing is safe.
  if (shard != nullptr) {
    base.wave_executor = [shard](uint32_t ordinal) {
      return shard->ExecutorFor(ordinal);
    };
  }

  Timer timer;
  switch (req.estimator) {
    case EstimatorKind::kBc:
    case EstimatorKind::kBcFull: {
      SaphyraBcOptions opts{base};
      opts.strategy = req.strategy;
      opts.traversal = req.traversal;
      if (req.estimator == EstimatorKind::kBcFull) {
        SaphyraBcResult r = RunSaphyraBcFull(snap.isp(), opts);
        ReportOutcome(r, &res);
        ReportSubset(r.bc, req.targets, &res);
      } else {
        SaphyraBcResult r = RunSaphyraBc(snap.isp(), req.targets, opts);
        ReportOutcome(r, &res);
        res.nodes = req.targets;
        res.estimates = std::move(r.bc);
      }
      break;
    }
    case EstimatorKind::kKPath: {
      // The problem-class path of EstimateKPathCentrality, inlined to keep
      // the sampling diagnostics. Walk sampling has no BFS, so the
      // traversal field does not apply here.
      std::vector<NodeId> targets =
          req.targets.empty() ? AllNodes(graph.num_nodes()) : req.targets;
      KPathProblem problem(graph, targets, req.k);
      SaphyraResult r = RunSaphyra(&problem, SaphyraOptions{base});
      ReportOutcome(r, &res);
      res.nodes = std::move(targets);
      res.estimates = std::move(r.combined_risks);
      break;
    }
    case EstimatorKind::kCloseness: {
      std::vector<NodeId> targets =
          req.targets.empty() ? AllNodes(graph.num_nodes()) : req.targets;
      HarmonicClosenessProblem problem(graph, targets);
      problem.set_traversal(req.traversal);
      SaphyraResult r = RunSaphyra(&problem, SaphyraOptions{base});
      // RiskToCentrality is linear (×n/(n−1)), so the achieved risk bound
      // converts to centrality units through the same map.
      r.epsilon_achieved = problem.RiskToCentrality(r.epsilon_achieved);
      ReportOutcome(r, &res);
      res.nodes = std::move(targets);
      res.estimates.resize(r.combined_risks.size());
      for (size_t i = 0; i < res.estimates.size(); ++i) {
        res.estimates[i] = problem.RiskToCentrality(r.combined_risks[i]);
      }
      break;
    }
    case EstimatorKind::kAbra: {
      AbraResult r = RunAbra(graph, base);
      ReportOutcome(r, &res);
      ReportSubset(r.bc, req.targets, &res);
      break;
    }
    case EstimatorKind::kKadabra: {
      KadabraOptions opts{base};
      opts.strategy = req.strategy;
      opts.traversal = req.traversal;
      KadabraResult r = RunKadabra(graph, opts);
      ReportOutcome(r, &res);
      ReportSubset(r.bc, req.targets, &res);
      break;
    }
  }
  res.seconds = timer.ElapsedSeconds();
  return res;
}

}  // namespace saphyra
