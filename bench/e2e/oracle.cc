// The oracle (plain-session reference answers), Brandes ground truth and
// the post-clock replays that split a query into exact subspace, sampling
// and shard RPC.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "bc/brandes.h"
#include "bc/saphyra_bc.h"
#include "bicomp/isp.h"
#include "closeness/closeness.h"
#include "graph/binary_io.h"
#include "kpath/kpath.h"
#include "runner.h"
#include "util/rng.h"

namespace e2e {

using namespace saphyra;

namespace {

/// Delegates to the shard tier's executor and records each wave's
/// round trip as a span.
class TimedWaveExecutor : public WaveExecutor {
 public:
  TimedWaveExecutor(WaveExecutor* inner, ReplayStats* rs, uint32_t request,
                    int32_t parent)
      : inner_(inner), rs_(rs), request_(request), parent_(parent) {}

  Status ExecuteWave(uint64_t current, uint64_t target, size_t num_stripes,
                     RawSampleDelta* out) override {
    const int32_t s =
        rs_->log.Begin(request_, "service.shard.wave_rpc", parent_);
    Status st = inner_->ExecuteWave(current, target, num_stripes, out);
    rs_->log.End(s);
    rs_->wave_rpc_ms.push_back(rs_->log.Ms(s));
    ++rs_->waves;
    return st;
  }

 private:
  WaveExecutor* inner_;
  ReplayStats* rs_;
  uint32_t request_;
  int32_t parent_;
};

SaphyraBcOptions BcOptions(const QueryRequest& c) {
  SaphyraBcOptions o;
  o.epsilon = c.epsilon;
  o.delta = c.delta;
  o.seed = c.seed;
  o.top_k = c.top_k;
  o.strategy = c.strategy;
  o.traversal = c.traversal;
  o.num_threads = 1;
  return o;
}

SaphyraOptions FrameworkOptions(const QueryRequest& c) {
  SaphyraOptions o;
  o.epsilon = c.epsilon;
  o.delta = c.delta;
  o.seed = c.seed;
  o.top_k = c.top_k;
  o.num_threads = 1;
  return o;
}

std::vector<NodeId> TargetsOrAll(const QueryRequest& c, NodeId n) {
  if (!c.targets.empty()) return c.targets;
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  return all;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string SerializedMasked(const QueryResult& r) {
  return MaskLine(SerializeQueryResult(r));
}

}  // namespace

QueryResult UpdateResult(const QueryRequest& req, const Status& st,
                         const UpdateOutcome& outcome) {
  QueryResult r;
  r.id = req.id;
  r.graph = req.graph;
  r.op = RequestOp::kUpdate;
  r.status = st;
  r.epoch = outcome.epoch;
  r.fingerprint = outcome.fingerprint;
  r.compacted = outcome.compacted;
  return r;
}

Status Runner::ReferenceStatic(const std::vector<bool>& needed) {
  std::map<std::string, std::unique_ptr<QuerySession>> sessions;
  for (const GraphSpec& g : spec_.graphs) {
    SAPHYRA_RETURN_NOT_OK(QuerySession::Open(GraphSgrPath(opt_.inputs, g),
                                             SessionOptions(),
                                             &sessions[spec_.pooled ? g.name
                                                                    : ""]));
  }
  // Lines differing only in their id ask the same question: answer each
  // distinct question once.
  std::map<std::string, std::vector<uint32_t>> by_key;
  for (uint32_t li = 0; li < needed.size(); ++li) {
    if (needed[li]) by_key[MaskLine(lines_[li])].push_back(li);
  }
  std::vector<const std::vector<uint32_t>*> work;
  for (const auto& [key, lines] : by_key) work.push_back(&lines);

  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < work.size();) {
      const std::vector<uint32_t>& lines = *work[i];
      QueryRequest req;
      auto it = sessions.end();
      if (ParseQueryRequest(lines_[lines[0]], &req).ok()) {
        it = sessions.find(req.graph);
      }
      if (it == sessions.end()) {
        ok = false;
        continue;
      }
      QueryResult r = it->second->Run(req);
      r.graph = req.graph;
      auto shared = std::make_shared<const QueryResult>(std::move(r));
      const uint64_t digest = Fnv(SerializedMasked(*shared));
      for (uint32_t li : lines) ref_[li] = {true, digest, shared};
    }
  };
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return ok ? Status::OK() : Status::Internal("unparsable stream line");
}

Status Runner::ReferenceMutating(size_t last_line,
                                 const std::set<uint32_t>& replay,
                                 ReplayStats* rs) {
  const std::string sgr = GraphSgrPath(opt_.inputs, spec_.graphs[0]);
  std::unique_ptr<QuerySession> ref;
  SAPHYRA_RETURN_NOT_OK(QuerySession::Open(sgr, SessionOptions(), &ref));
  std::unique_ptr<QuerySession> rebuilt;
  // Within one epoch a repeated question has one answer; cleared on every
  // update.
  std::map<std::string, std::pair<uint64_t, std::shared_ptr<const QueryResult>>>
      epoch_answers;
  for (size_t li = 0; li <= last_line; ++li) {
    QueryRequest req;
    SAPHYRA_RETURN_NOT_OK(ParseQueryRequest(lines_[li], &req));
    if (req.op == RequestOp::kUpdate) {
      QueryRequest c = req;
      SAPHYRA_RETURN_NOT_OK(CanonicalizeQuery(ref->graph().num_nodes(), &c));
      UpdateOutcome outcome;
      const Status st =
          ref->ApplyUpdate({c.action, c.edge_u, c.edge_v}, &outcome);
      auto r = std::make_shared<const QueryResult>(
          UpdateResult(req, st, outcome));
      ref_[li] = {true, Fnv(SerializedMasked(*r)), r};
      epoch_answers.clear();
      rebuilt.reset();
      if (st.ok() && outcome.epoch % 50 == 0) {
        // Every 50th epoch: convert the current edge set from scratch —
        // fresh CSR, full decomposition, new .sgr — and serve the epoch's
        // queries from it too.
        const Graph& g = ref->graph();
        GraphBuilder b;
        for (const auto& [u, v] : g.UndirectedEdges()) b.AddEdge(u, v);
        Graph fresh;
        SAPHYRA_RETURN_NOT_OK(b.Build(g.num_nodes(), &fresh));
        IspIndex isp(fresh);
        const std::string path = opt_.inputs + "/rebuild.sgr";
        SAPHYRA_RETURN_NOT_OK(WriteSgr(path, fresh, &isp.bcc(), &isp.conn(),
                                       &isp.views(), &isp.tree()));
        SAPHYRA_RETURN_NOT_OK(
            QuerySession::Open(path, SessionOptions(), &rebuilt));
      }
      continue;
    }
    const std::string key = MaskLine(lines_[li]);
    auto it = epoch_answers.find(key);
    if (it == epoch_answers.end()) {
      auto r = std::make_shared<const QueryResult>(ref->Run(req));
      it = epoch_answers
               .emplace(key, std::make_pair(Fnv(SerializedMasked(*r)), r))
               .first;
      if (rebuilt != nullptr) {
        ++rebuild_checks_;
        if (SerializedMasked(rebuilt->Run(req)) != SerializedMasked(*r)) {
          ++rebuild_mismatches_;
        }
      }
    }
    ref_[li] = {true, it->second.first, it->second.second};
    if (replay.count(static_cast<uint32_t>(li)) != 0) {
      QueryRequest c = req;
      SAPHYRA_RETURN_NOT_OK(CanonicalizeQuery(ref->graph().num_nodes(), &c));
      Replay(*ref->snapshot(), c, *it->second.second, rs);
    }
  }
  return Status::OK();
}

void Runner::Replay(const GraphSnapshot& snap, const QueryRequest& c,
                    const QueryResult& served, ReplayStats* rs) {
  const uint32_t request = static_cast<uint32_t>(rs->bc + rs->rounds.size());
  switch (c.estimator) {
    case EstimatorKind::kBc:
    case EstimatorKind::kBcFull: {
      const bool full = c.estimator == EstimatorKind::kBcFull;
      auto run = [&](const SaphyraBcOptions& o) {
        return full ? RunSaphyraBcFull(snap.isp(), o)
                    : RunSaphyraBc(snap.isp(), c.targets, o);
      };
      int32_t span = rs->log.Begin(request, "replay.local", -1);
      const SaphyraBcResult r = run(BcOptions(c));
      rs->log.End(span);
      rs->local_ms.push_back(rs->log.Ms(span));
      rs->exact_ms.push_back(r.exact_seconds * 1e3);
      rs->sampling_ms.push_back(r.sampling_seconds * 1e3);
      rs->samples.push_back(static_cast<double>(r.samples_used));
      rs->pilot.push_back(static_cast<double>(r.pilot_samples));
      rs->rejected += r.rejected_samples;
      rs->drawn += r.samples_used + r.pilot_samples + r.rejected_samples;
      ++rs->bc;
      bool identical = BitwiseEqual(r.bc, served.estimates);
      if (supervisor_ != nullptr) {
        // The same query through the worker tier, each wave's RPC timed.
        QueryRequest wire = c;
        wire.id.clear();
        wire.graph.clear();
        ShardedQuery shard(supervisor_.get(), c.graph, snap.fingerprint(),
                           SerializeQueryRequest(wire), nullptr);
        span = rs->log.Begin(request, "replay.sharded", -1);
        std::vector<std::unique_ptr<TimedWaveExecutor>> timed;
        SaphyraBcOptions o = BcOptions(c);
        o.wave_executor = [&](uint32_t ordinal) -> WaveExecutor* {
          if (timed.size() <= ordinal) timed.resize(ordinal + 1);
          if (timed[ordinal] == nullptr) {
            timed[ordinal] = std::make_unique<TimedWaveExecutor>(
                shard.ExecutorFor(ordinal), rs, request, span);
          }
          return timed[ordinal].get();
        };
        const SaphyraBcResult sharded = run(o);
        rs->log.End(span);
        rs->sharded_ms.push_back(rs->log.Ms(span));
        identical = identical && BitwiseEqual(sharded.bc, served.estimates);
      }
      rs->identical += identical ? 1 : 0;
      break;
    }
    case EstimatorKind::kKPath: {
      KPathProblem problem(snap.graph(),
                           TargetsOrAll(c, snap.graph().num_nodes()), c.k);
      rs->rounds.push_back(RunSaphyra(&problem, FrameworkOptions(c)).rounds_used);
      break;
    }
    case EstimatorKind::kCloseness: {
      HarmonicClosenessProblem problem(
          snap.graph(), TargetsOrAll(c, snap.graph().num_nodes()));
      problem.set_traversal(c.traversal);
      rs->rounds.push_back(RunSaphyra(&problem, FrameworkOptions(c)).rounds_used);
      break;
    }
    default:
      break;
  }
}

Status Runner::GroundTruth(const GraphSnapshot& snap,
                           std::vector<double>* bc) {
  char name[64];
  std::snprintf(name, sizeof(name), "/brandes-%016llx.bin",
                static_cast<unsigned long long>(snap.fingerprint()));
  const std::string path = opt_.cache + name;
  const size_t n = snap.graph().num_nodes();
  {
    std::ifstream in(path, std::ios::binary);
    bc->assign(n, 0.0);
    if (in.read(reinterpret_cast<char*>(bc->data()), n * sizeof(double)) &&
        in.peek() == EOF) {
      return Status::OK();
    }
  }
  *bc = ParallelBrandesBetweenness(snap.graph(), 4);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary);
    out.write(reinterpret_cast<const char*>(bc->data()), n * sizeof(double));
    if (!out) return Status::IOError("cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return Status::IOError("cannot rename " + tmp);
  return Status::OK();
}

double Runner::GenUsPerSample(bool road) {
  for (const GraphSpec& g : spec_.graphs) {
    if (g.road != road) continue;
    auto snap = Snapshot(g.name);
    if (snap == nullptr) return 0.0;
    const NodeId n = snap->graph().num_nodes();
    std::vector<NodeId> targets;
    for (NodeId i = 0; i < 64 && i < n; ++i) {
      targets.push_back(static_cast<NodeId>((i * 2654435761ULL) % n));
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
    auto problem =
        MakeSaphyraBcSamplingProblem(snap->isp(), targets, SaphyraBcOptions());
    // Road samples are BFS-bound and ~10x dearer: fewer of them.
    const int samples = opt_.smoke ? 500 : road ? 4000 : 20000;
    Rng rng(7);
    std::vector<uint32_t> hits;
    const int64_t t0 = NowNs();
    for (int i = 0; i < samples; ++i) {
      hits.clear();
      problem->SampleApproxLosses(&rng, &hits);
    }
    return static_cast<double>(NowNs() - t0) / 1e3 / samples;
  }
  return 0.0;
}

}  // namespace e2e
