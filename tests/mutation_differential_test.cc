// The dynamic-graph serving differential oracle: a session mutated
// through {"op":"update"} requests (edge splice + incremental bicomp
// repair + epoch swap) must answer every query bitwise identically to a
// COLD session opened on a from-scratch re-conversion of the same edge
// set. Pinned over a generator sweep (ER, BA, WS, road grid, SBM, and a
// core with pendant leaves whose stream merges leaves into the core and
// cuts them loose again), random insert/delete streams, scheduler
// admission concurrency {1, 8}, and both the local sampling path and the
// sharded worker tier (whose workers follow the coordinator through
// BroadcastUpdate + mutation-log replay).
//
// The oracle is deliberately expensive: after every mutation batch it
// rebuilds the graph from the reference edge set, recomputes the full
// decomposition, writes a fresh `.sgr`, and serves the workload on a cold
// serial session. Whatever shortcut the dynamic path takes — edge
// splicing, incremental repair, derived indices, epoch-chained
// memo keys, worker replay — must be invisible in the result bytes.

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "service/shard.h"
#include "service/shard_worker.h"
#include "test_util.h"
#include "util/logging.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

std::string TempPath(const std::string& stem) {
  return "/tmp/saphyra_mutdiff_" + std::to_string(::getpid()) + "_" + stem;
}

EdgeSet EdgesOf(const Graph& g) {
  EdgeSet edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (u < v) edges.insert({u, v});
    }
  }
  return edges;
}

Graph BuildFromEdges(NodeId n, const EdgeSet& edges) {
  GraphBuilder b;
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  Graph g;
  SAPHYRA_CHECK(b.Build(n, &g).ok());
  return g;
}

/// Write `g` as text + a fully preprocessed `.sgr` next to it. The `.sgr`
/// is written from `g` itself (not a text re-parse): LoadSnapEdgeList
/// renumbers node ids in first-appearance order, and this test reasons
/// about edges in the generator's id space, so the served CSR must keep
/// those ids verbatim.
struct GraphFiles {
  std::string text_path;
  std::string sgr_path;

  GraphFiles(const Graph& g, const std::string& stem)
      : text_path(TempPath(stem + ".txt")) {
    sgr_path = SgrCachePathFor(text_path);
    SAPHYRA_CHECK(SaveSnapEdgeList(g, text_path).ok());
    IspIndex isp(g);
    SgrWriteOptions wopts;
    wopts.source_path = text_path;
    SAPHYRA_CHECK(WriteSgr(sgr_path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                           &isp.tree(), wopts)
                      .ok());
  }
  ~GraphFiles() {
    std::remove(text_path.c_str());
    std::remove(sgr_path.c_str());
  }
};

/// In-process worker tier over socketpairs (the shard_test idiom): the
/// real RunWorkerLoop per incarnation, so update frames and mutation-log
/// replay exercise the production code path.
class ThreadLauncher : public WorkerLauncher {
 public:
  explicit ThreadLauncher(const std::string& graph_path)
      : graph_path_(graph_path) {}
  ~ThreadLauncher() override {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [index, inc] : incarnations_) StopLocked(inc.get());
  }

  Status Launch(uint32_t index, net::UniqueFd* conn) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incarnations_.find(index);
    if (it != incarnations_.end()) {
      StopLocked(it->second.get());
      incarnations_.erase(it);
    }
    net::UniqueFd coord_side;
    auto inc = std::make_unique<Incarnation>();
    // Each incarnation gets a fresh pool, like a relaunched worker
    // process: it loads epoch 0 from disk and owes every mutation it has
    // missed to the supervisor's replay.
    inc->pool = std::make_unique<SessionPool>(SessionPoolOptions());
    SAPHYRA_CHECK(inc->pool->Register("g", graph_path_).ok());
    Status st = net::SocketPair(&coord_side, &inc->fd);
    if (!st.ok()) return st;
    Incarnation* raw = inc.get();
    inc->thread = std::thread([raw, index] {
      WorkerLoopOptions opts;
      opts.index = index;
      (void)RunWorkerLoop(raw->fd.get(), raw->pool.get(), opts);
      ::shutdown(raw->fd.get(), SHUT_RDWR);
    });
    std::string hello;
    st = net::RecvFrame(coord_side.get(), &hello, Deadline::AfterMillis(5000));
    if (!st.ok()) {
      StopLocked(raw);
      return st;
    }
    incarnations_[index] = std::move(inc);
    *conn = std::move(coord_side);
    return Status::OK();
  }

  void KillWorker(uint32_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incarnations_.find(index);
    if (it != incarnations_.end()) {
      ::shutdown(it->second->fd.get(), SHUT_RDWR);
    }
  }

 private:
  struct Incarnation {
    std::unique_ptr<SessionPool> pool;
    net::UniqueFd fd;
    std::thread thread;
  };
  void StopLocked(Incarnation* inc) {
    ::shutdown(inc->fd.get(), SHUT_RDWR);
    if (inc->thread.joinable()) inc->thread.join();
  }

  std::string graph_path_;
  std::mutex mu_;
  std::map<uint32_t, std::unique_ptr<Incarnation>> incarnations_;
};

/// Small but decomposition-sensitive workload: bc leans on the repaired
/// ISP index, closeness on the raw CSR.
std::vector<QueryRequest> Workload(NodeId n) {
  std::vector<QueryRequest> reqs;
  QueryRequest bc;
  bc.id = "bc";
  bc.estimator = EstimatorKind::kBc;
  bc.epsilon = 0.15;
  bc.delta = 0.05;
  bc.seed = 7;
  for (NodeId v = 0; v < std::min<NodeId>(n, 8); ++v) bc.targets.push_back(v);
  reqs.push_back(bc);

  QueryRequest cl;
  cl.id = "closeness";
  cl.estimator = EstimatorKind::kCloseness;
  cl.epsilon = 0.2;
  cl.delta = 0.05;
  cl.seed = 11;
  for (NodeId v = 0; v < std::min<NodeId>(n, 6); ++v) cl.targets.push_back(v);
  reqs.push_back(cl);
  return reqs;
}

void ExpectBitwiseEqual(const QueryResult& oracle, const QueryResult& got,
                        const std::string& what) {
  ASSERT_TRUE(oracle.status.ok()) << what << ": " << oracle.status.ToString();
  ASSERT_TRUE(got.status.ok()) << what << ": " << got.status.ToString();
  EXPECT_FALSE(got.degraded) << what;
  ASSERT_EQ(oracle.nodes, got.nodes) << what;
  ASSERT_EQ(oracle.estimates.size(), got.estimates.size()) << what;
  EXPECT_EQ(std::memcmp(oracle.estimates.data(), got.estimates.data(),
                        oracle.estimates.size() * sizeof(double)),
            0)
      << what << ": estimates differ bitwise";
  EXPECT_EQ(oracle.samples_used, got.samples_used) << what;
}

QueryRequest UpdateRequest(EdgeMutationKind kind, NodeId u, NodeId v) {
  QueryRequest req;
  req.id = "mut";
  req.op = RequestOp::kUpdate;
  req.action = kind;
  req.edge_u = u;
  req.edge_v = v;
  return req;
}

/// True when u and v stay connected after removing edge {u, v} — used to
/// keep the mutation stream connectivity-preserving, so every estimator
/// in the workload stays on its well-covered connected-graph path (the
/// disconnected regimes are pinned by the incremental bicomp tests).
bool StillConnectedWithout(NodeId n, const EdgeSet& edges, NodeId u, NodeId v) {
  std::vector<std::vector<NodeId>> adj(n);
  for (const auto& [a, b] : edges) {
    if ((a == u && b == v) || (a == v && b == u)) continue;
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue{u};
  seen[u] = true;
  for (size_t head = 0; head < queue.size(); ++head) {
    if (queue[head] == v) return true;
    for (NodeId w : adj[queue[head]]) {
      if (!seen[w]) {
        seen[w] = true;
        queue.push_back(w);
      }
    }
  }
  return false;
}

/// Deterministic mutation stream: inserts of absent edges and deletes of
/// present-but-not-bridge edges, interleaved. With `cut_leaves` a delete
/// may also cut a leaf's only edge — a bridge delete that isolates the
/// leaf and leaves the rest connected; a later insert at that node then
/// joins two connected components.
std::vector<EdgeMutation> MakeStream(NodeId n, const EdgeSet& initial,
                                     size_t count, uint64_t seed,
                                     bool cut_leaves = false) {
  auto degree = [](const EdgeSet& edges, NodeId x) {
    size_t d = 0;
    for (const auto& [a, b] : edges) d += (a == x || b == x) ? 1 : 0;
    return d;
  };
  Rng rng(seed);
  EdgeSet edges = initial;
  std::vector<EdgeMutation> stream;
  size_t guard = 0;
  while (stream.size() < count && ++guard < count * 200) {
    NodeId u = static_cast<NodeId>(rng.UniformInt(n));
    NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const bool present = edges.count({u, v}) != 0;
    const bool want_delete = rng.UniformDouble() < 0.45;
    if (want_delete && present) {
      const bool leaf_cut =
          cut_leaves && (degree(edges, u) == 1 || degree(edges, v) == 1);
      if (!leaf_cut && !StillConnectedWithout(n, edges, u, v)) continue;
      edges.erase({u, v});
      stream.push_back({EdgeMutationKind::kDelete, u, v});
    } else if (!want_delete && !present) {
      edges.insert({u, v});
      stream.push_back({EdgeMutationKind::kInsert, u, v});
    }
  }
  SAPHYRA_CHECK(stream.size() == count);
  return stream;
}

struct GeneratorCase {
  const char* name;
  Graph graph;
};

std::vector<GeneratorCase> GeneratorSweep() {
  std::vector<GeneratorCase> cases;
  cases.push_back({"er", PatchConnect(ErdosRenyi(48, 110, 101), 101)});
  cases.push_back({"ba", BarabasiAlbert(48, 2, 202)});
  cases.push_back({"ws", WattsStrogatz(48, 4, 0.2, 303)});
  cases.push_back({"road", RoadGrid(8, 6, 0.85, 404).graph});
  cases.push_back(
      {"sbm", PatchConnect(StochasticBlockModel(48, 4, 0.3, 0.02, 505), 505)});
  // The serving workload's shape: a core block with pendant leaves, whose
  // inserts mostly merge a leaf's bridge into the core.
  cases.push_back({"core", testing::BaCoreWithLeaves(34, 14, 606)});
  return cases;
}

/// One mutated serving stack under test: a session fed updates through a
/// scheduler, optionally via the sharded tier.
struct Variant {
  std::string label;
  std::unique_ptr<QuerySession> session;
  std::unique_ptr<ThreadLauncher> launcher;    // sharded only
  std::unique_ptr<WorkerSupervisor> supervisor;  // sharded only
  std::unique_ptr<BatchScheduler> scheduler;

  static std::unique_ptr<Variant> Make(const std::string& sgr_path,
                                       uint32_t concurrency, bool sharded) {
    auto v = std::make_unique<Variant>();
    v->label = "concurrency=" + std::to_string(concurrency) +
               (sharded ? " sharded" : " local");
    SAPHYRA_CHECK(
        QuerySession::Open(sgr_path, SessionOptions(), &v->session).ok());
    SchedulerOptions schopts;
    schopts.max_concurrent = concurrency;
    schopts.memo_capacity = 16;  // memo ON: stale hits would be caught
    schopts.allow_updates = true;
    if (sharded) {
      v->launcher = std::make_unique<ThreadLauncher>(sgr_path);
      ShardOptions shopts;
      shopts.num_workers = 2;
      shopts.heartbeat_ms = 0;
      shopts.backoff_initial_ms = 1;
      shopts.backoff_max_ms = 20;
      v->supervisor =
          std::make_unique<WorkerSupervisor>(v->launcher.get(), shopts);
      SAPHYRA_CHECK(v->supervisor->Start().ok());
      schopts.supervisor = v->supervisor.get();
    }
    v->scheduler =
        std::make_unique<BatchScheduler>(v->session.get(), schopts);
    return v;
  }
};

TEST(MutationDifferentialTest, OverlayServingMatchesFromScratchReconvert) {
  constexpr size_t kMutations = 12;
  constexpr size_t kBatch = 4;

  uint64_t stream_seed = 7000;
  for (GeneratorCase& gcase : GeneratorSweep()) {
    SCOPED_TRACE(gcase.name);
    const NodeId n = gcase.graph.num_nodes();
    GraphFiles base(gcase.graph, std::string(gcase.name) + "_base");
    EdgeSet edges = EdgesOf(gcase.graph);
    const bool core = std::string(gcase.name) == "core";
    const std::vector<EdgeMutation> stream =
        MakeStream(n, edges, core ? 3 * kMutations : kMutations,
                   ++stream_seed, /*cut_leaves=*/core);
    const std::vector<QueryRequest> workload = Workload(n);
    int merges = 0;  // updates the first variant served by the merge route

    // The sweep under test: admission concurrency, plus the sharded tier.
    std::vector<std::unique_ptr<Variant>> variants;
    variants.push_back(Variant::Make(base.sgr_path, 1, false));
    variants.push_back(Variant::Make(base.sgr_path, 8, false));
    variants.push_back(Variant::Make(base.sgr_path, 1, true));

    for (size_t start = 0; start < stream.size(); start += kBatch) {
      // Apply the batch to every variant (through the full request path)
      // and to the reference edge set.
      for (size_t i = start; i < std::min(stream.size(), start + kBatch);
           ++i) {
        const EdgeMutation& mut = stream[i];
        if (mut.kind == EdgeMutationKind::kInsert) {
          edges.insert({mut.u, mut.v});
        } else {
          edges.erase({mut.u, mut.v});
        }
        uint64_t fingerprint = 0;
        const std::shared_ptr<const GraphSnapshot> before =
            variants[0]->session->snapshot();
        for (auto& variant : variants) {
          const QueryResult res = variant->scheduler->Run(
              UpdateRequest(mut.kind, mut.u, mut.v));
          ASSERT_TRUE(res.status.ok())
              << variant->label << " mutation " << i << ": "
              << res.status.ToString();
          ASSERT_EQ(res.epoch, i + 1) << variant->label;
          // Every variant must land on the same chained fingerprint —
          // that equality is what lets the coordinator drive its workers.
          if (fingerprint == 0) {
            fingerprint = res.fingerprint;
          } else {
            ASSERT_EQ(res.fingerprint, fingerprint)
                << variant->label << " mutation " << i;
          }
        }
        // Every epoch's index is built at publish. A merge derives a new
        // tree over the parent's connectivity; a kept partition shares the
        // tree.
        const std::shared_ptr<const GraphSnapshot> after =
            variants[0]->session->snapshot();
        ASSERT_TRUE(after->index_built());
        if (mut.kind == EdgeMutationKind::kInsert &&
            &after->isp().conn() == &before->isp().conn() &&
            &after->isp().tree() != &before->isp().tree()) {
          ++merges;
        }
      }

      // The oracle: re-convert the reference edge set from scratch and
      // serve the workload cold, serial, unsharded.
      GraphFiles oracle_files(BuildFromEdges(n, edges),
                              std::string(gcase.name) + "_oracle");
      std::unique_ptr<QuerySession> oracle_session;
      ASSERT_TRUE(QuerySession::Open(oracle_files.sgr_path, SessionOptions(),
                                     &oracle_session)
                      .ok());
      SchedulerOptions oracle_opts;
      oracle_opts.memo_capacity = 0;
      BatchScheduler oracle(oracle_session.get(), oracle_opts);
      const std::vector<QueryResult> expected = oracle.RunBatch(workload);

      for (auto& variant : variants) {
        const std::vector<QueryResult> got =
            variant->scheduler->RunBatch(workload);
        ASSERT_EQ(got.size(), expected.size());
        for (size_t q = 0; q < got.size(); ++q) {
          ExpectBitwiseEqual(expected[q], got[q],
                             std::string(gcase.name) + " after " +
                                 std::to_string(start + kBatch) +
                                 " mutations, " + variant->label + ", " +
                                 workload[q].id);
        }
      }
    }
    for (auto& variant : variants) {
      if (variant->supervisor != nullptr) variant->supervisor->Shutdown();
    }
    if (core) {
      EXPECT_GE(merges, 1);
    }
  }
}

TEST(MutationDifferentialTest, WorkerRestartReplaysMutationLog) {
  Graph g = WattsStrogatz(40, 4, 0.15, 111);
  const NodeId n = g.num_nodes();
  GraphFiles files(g, "replay");
  const std::vector<EdgeMutation> stream =
      MakeStream(n, EdgesOf(g), 6, 8080);
  const std::vector<QueryRequest> workload = Workload(n);

  auto variant = Variant::Make(files.sgr_path, 1, true);
  EdgeSet edges = EdgesOf(g);
  for (size_t i = 0; i < stream.size(); ++i) {
    const EdgeMutation& mut = stream[i];
    if (mut.kind == EdgeMutationKind::kInsert) {
      edges.insert({mut.u, mut.v});
    } else {
      edges.erase({mut.u, mut.v});
    }
    ASSERT_TRUE(
        variant->scheduler->Run(UpdateRequest(mut.kind, mut.u, mut.v))
            .status.ok());
  }

  // Kill both workers after the whole stream: their replacements load
  // epoch 0 from disk and must catch up purely from the supervisor's
  // mutation log before serving a single wave.
  variant->launcher->KillWorker(0);
  variant->launcher->KillWorker(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  GraphFiles oracle_files(BuildFromEdges(n, edges), "replay_oracle");
  std::unique_ptr<QuerySession> oracle_session;
  ASSERT_TRUE(QuerySession::Open(oracle_files.sgr_path, SessionOptions(),
                                 &oracle_session)
                  .ok());
  SchedulerOptions oracle_opts;
  oracle_opts.memo_capacity = 0;
  BatchScheduler oracle(oracle_session.get(), oracle_opts);
  const std::vector<QueryResult> expected = oracle.RunBatch(workload);
  const std::vector<QueryResult> got = variant->scheduler->RunBatch(workload);
  for (size_t q = 0; q < got.size(); ++q) {
    ExpectBitwiseEqual(expected[q], got[q],
                       "post-restart " + workload[q].id);
  }
  variant->supervisor->Shutdown();
}

}  // namespace
}  // namespace saphyra
