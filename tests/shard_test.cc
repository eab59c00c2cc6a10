// The sharded serving tier, pinned against the determinism contract: a
// query answered through worker shards — at any shard count, any
// admission concurrency, and across worker kills with stripe
// reassignment — must be bitwise identical to the same query sampled
// locally. Past the retry budget a query degrades (shard_lost), never
// errors and never lands in the memo.
//
// Workers here are in-process threads running the real RunWorkerLoop
// over a socketpair (the ThreadLauncher below), so a "crash" is a
// deterministic socket shutdown rather than a racy SIGKILL; the CI
// fault-injection job covers the fork/exec ProcessWorkerLauncher path
// with real processes.

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/abra.h"
#include "bicomp/isp.h"
#include "core/progressive_sampler.h"
#include "core/sample_engine.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "net/frame.h"
#include "net/socket.h"
#include "service/json_util.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "service/shard.h"
#include "service/shard_worker.h"
#include "test_util.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace saphyra {
namespace {

using testing::RandomConnectedGraph;

std::string TempPath(const std::string& stem) {
  return "/tmp/saphyra_shard_test_" + std::to_string(::getpid()) + "_" + stem;
}

struct GraphFiles {
  std::string text_path;
  std::string sgr_path;

  explicit GraphFiles(const Graph& g, const std::string& stem = "graph.txt")
      : text_path(TempPath(stem)) {
    sgr_path = SgrCachePathFor(text_path);
    SAPHYRA_CHECK(SaveSnapEdgeList(g, text_path).ok());
    Graph parsed;
    SAPHYRA_CHECK(LoadSnapEdgeList(text_path, &parsed).ok());
    IspIndex isp(parsed);
    SgrWriteOptions wopts;
    wopts.source_path = text_path;
    SAPHYRA_CHECK(WriteSgr(sgr_path, parsed, &isp.bcc(), &isp.conn(),
                           &isp.views(), &isp.tree(), wopts)
                      .ok());
  }
  ~GraphFiles() {
    std::remove(text_path.c_str());
    std::remove(sgr_path.c_str());
  }
};

/// In-process WorkerLauncher: each incarnation is a thread running the
/// real worker loop over its half of a socketpair. KillWorker() shuts the
/// socket down — the loop exits exactly as it would on a process death,
/// and the coordinator sees the connection drop.
class ThreadLauncher : public WorkerLauncher {
 public:
  explicit ThreadLauncher(const std::string& graph_path)
      : pool_(SessionPoolOptions()) {
    SAPHYRA_CHECK(pool_.Register("g", graph_path).ok());
  }
  ~ThreadLauncher() override {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [index, inc] : incarnations_) StopLocked(inc.get());
  }

  Status Launch(uint32_t index, net::UniqueFd* conn) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incarnations_.find(index);
    if (it != incarnations_.end()) {
      if (refuse_relaunch_) {
        return Status::Unavailable("relaunch refused (test launcher)");
      }
      StopLocked(it->second.get());
      incarnations_.erase(it);
    } else if (refuse_relaunch_) {
      return Status::Unavailable("relaunch refused (test launcher)");
    }
    net::UniqueFd coord_side;
    auto inc = std::make_unique<Incarnation>();
    Status st = net::SocketPair(&coord_side, &inc->fd);
    if (!st.ok()) return st;
    if (send_buffer_ > 0) {
      SAPHYRA_CHECK(setsockopt(inc->fd.get(), SOL_SOCKET, SO_SNDBUF,
                               &send_buffer_, sizeof(send_buffer_)) == 0);
    }
    Incarnation* raw = inc.get();
    SessionPool* pool = &pool_;
    inc->thread = std::thread([raw, pool, index] {
      WorkerLoopOptions opts;
      opts.index = index;
      (void)RunWorkerLoop(raw->fd.get(), pool, opts);
      // However the loop ended (quit, peer close, injected crash), die
      // like a process would: the coordinator side must see EOF now.
      ::shutdown(raw->fd.get(), SHUT_RDWR);
    });
    // Consume the hello frame, as ProcessWorkerLauncher's rendezvous does.
    std::string hello;
    st = net::RecvFrame(coord_side.get(), &hello, Deadline::AfterMillis(5000));
    if (!st.ok()) {
      StopLocked(raw);
      return st;
    }
    ++launches_;
    incarnations_[index] = std::move(inc);
    *conn = std::move(coord_side);
    return Status::OK();
  }

  /// Simulate a worker crash: the loop's next recv/send fails and the
  /// thread exits, the coordinator's connection drops.
  void KillWorker(uint32_t index) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incarnations_.find(index);
    if (it != incarnations_.end()) {
      ::shutdown(it->second->fd.get(), SHUT_RDWR);
    }
  }

  /// Shrink each later incarnation's socket send buffer, so that a wave
  /// reply of more than a few KiB cannot sit in the socket whole.
  void set_send_buffer(int bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    send_buffer_ = bytes;
  }
  void set_refuse_relaunch(bool refuse) {
    std::lock_guard<std::mutex> lock(mu_);
    refuse_relaunch_ = refuse;
  }
  uint64_t launches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return launches_;
  }

 private:
  struct Incarnation {
    net::UniqueFd fd;  ///< worker-side half; the thread borrows it
    std::thread thread;
  };
  void StopLocked(Incarnation* inc) {
    ::shutdown(inc->fd.get(), SHUT_RDWR);
    if (inc->thread.joinable()) inc->thread.join();
  }

  SessionPool pool_;
  mutable std::mutex mu_;
  std::map<uint32_t, std::unique_ptr<Incarnation>> incarnations_;
  bool refuse_relaunch_ = false;
  int send_buffer_ = 0;
  uint64_t launches_ = 0;
};

/// Every estimator family, including the weighted-loss ones (k-path,
/// closeness) whose deltas carry the fixed-point moment arrays.
std::vector<QueryRequest> ShardWorkload() {
  std::vector<QueryRequest> reqs;
  QueryRequest bc;
  bc.id = "bc";
  bc.estimator = EstimatorKind::kBc;
  bc.epsilon = 0.1;
  bc.seed = 7;
  bc.targets = {0, 3, 5, 9, 12, 17};
  reqs.push_back(bc);

  QueryRequest topk = bc;
  topk.id = "bc-topk";
  topk.top_k = 2;
  topk.targets = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  reqs.push_back(topk);

  QueryRequest kadabra;
  kadabra.id = "kadabra";
  kadabra.estimator = EstimatorKind::kKadabra;
  kadabra.epsilon = 0.15;
  kadabra.seed = 11;
  reqs.push_back(kadabra);

  QueryRequest abra;
  abra.id = "abra";
  abra.estimator = EstimatorKind::kAbra;
  abra.epsilon = 0.15;
  abra.seed = 13;
  reqs.push_back(abra);

  QueryRequest kpath;
  kpath.id = "kpath";
  kpath.estimator = EstimatorKind::kKPath;
  kpath.epsilon = 0.1;
  kpath.seed = 17;
  kpath.k = 4;
  kpath.targets = {0, 1, 2, 3, 4, 5, 6, 7};
  reqs.push_back(kpath);

  QueryRequest closeness;
  closeness.id = "closeness";
  closeness.estimator = EstimatorKind::kCloseness;
  closeness.epsilon = 0.1;
  closeness.seed = 19;
  closeness.targets = {0, 1, 2, 3, 4, 5, 6, 7};
  reqs.push_back(closeness);
  return reqs;
}

void ExpectBitwiseEqual(const QueryResult& a, const QueryResult& b,
                        const std::string& what) {
  ASSERT_TRUE(a.status.ok()) << what << ": " << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << what << ": " << b.status.ToString();
  EXPECT_FALSE(b.degraded) << what;
  ASSERT_EQ(a.nodes, b.nodes) << what;
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << what;
  EXPECT_EQ(std::memcmp(a.estimates.data(), b.estimates.data(),
                        a.estimates.size() * sizeof(double)),
            0)
      << what << ": estimates differ bitwise";
  EXPECT_EQ(a.samples_used, b.samples_used) << what;
}

void ExpectDeltaEqual(const RawSampleDelta& expected,
                      const RawSampleDelta& got, const std::string& what) {
  EXPECT_EQ(expected.counts, got.counts) << what;
  EXPECT_EQ(expected.fp_sums, got.fp_sums) << what;
  EXPECT_EQ(expected.fp_sum_squares, got.fp_sum_squares) << what;
}

class ShardTest : public ::testing::Test {
 protected:
  ShardTest() : files_(RandomConnectedGraph(60, 0.06, 33)) {
    SAPHYRA_CHECK(
        QuerySession::Open(files_.sgr_path, SessionOptions(), &session_).ok());
  }

  /// The non-sharded reference bytes, computed once per fixture.
  const std::vector<QueryResult>& Baseline() {
    if (baseline_.empty()) {
      SchedulerOptions opts;
      opts.memo_capacity = 0;
      BatchScheduler local(session_.get(), opts);
      baseline_ = local.RunBatch(ShardWorkload());
    }
    return baseline_;
  }

  /// Test-speed shard options: no heartbeat thread, fast backoff.
  static ShardOptions FastOptions(uint32_t workers, uint32_t retry_budget = 2) {
    ShardOptions sopts;
    sopts.num_workers = workers;
    sopts.retry_budget = retry_budget;
    sopts.heartbeat_ms = 0;
    sopts.backoff_initial_ms = 1;
    sopts.backoff_max_ms = 20;
    return sopts;
  }

  GraphFiles files_;
  std::unique_ptr<QuerySession> session_;
  std::vector<QueryResult> baseline_;
};

TEST_F(ShardTest, ShardedMatchesLocalBitwise) {
  const std::vector<QueryRequest> workload = ShardWorkload();
  const std::vector<QueryResult>& baseline = Baseline();

  // At threads: 2 each query's engine draws on the shared pool, and so
  // does the coordinator's share of a sharded wave.
  const std::vector<QueryRequest> pooled = [&workload] {
    std::vector<QueryRequest> reqs = workload;
    for (QueryRequest& req : reqs) req.num_threads = 2;
    return reqs;
  }();

  for (uint32_t workers : {1u, 2u, 4u}) {
    ThreadLauncher launcher(files_.sgr_path);
    WorkerSupervisor supervisor(&launcher, FastOptions(workers));
    ASSERT_TRUE(supervisor.Start().ok());
    for (uint32_t concurrency : {1u, 2u, 8u}) {
      for (const std::vector<QueryRequest>* batch : {&workload, &pooled}) {
        SchedulerOptions opts;
        opts.max_concurrent = concurrency;
        opts.memo_capacity = 0;
        opts.supervisor = &supervisor;
        BatchScheduler scheduler(session_.get(), opts);
        const std::vector<QueryResult> results = scheduler.RunBatch(*batch);
        ASSERT_EQ(results.size(), baseline.size());
        for (size_t i = 0; i < results.size(); ++i) {
          ExpectBitwiseEqual(
              baseline[i], results[i],
              "workers=" + std::to_string(workers) +
                  " concurrency=" + std::to_string(concurrency) +
                  " threads=" + std::to_string((*batch)[i].num_threads) +
                  " query " + workload[i].id);
        }
      }
    }
    // Every wave went through the tier, none failed.
    uint64_t waves = 0;
    for (const ShardWorkerStats& w : supervisor.stats()) waves += w.waves;
    EXPECT_GT(waves, 0u) << "workers=" << workers;
    supervisor.Shutdown();
  }
}

TEST_F(ShardTest, WorkerStateCacheInvalidatedByUpdate) {
  // The workers key their per-query progressive-sampling state on
  // (graph, fingerprint, canonical query). Repeating a query must reuse
  // that state invisibly; a graph mutation must retire it, never blending
  // pre-update wave state into post-update answers.
  ThreadLauncher launcher(files_.sgr_path);
  WorkerSupervisor supervisor(&launcher, FastOptions(2));
  ASSERT_TRUE(supervisor.Start().ok());
  SchedulerOptions opts;
  opts.memo_capacity = 0;  // every repeat re-enters the wave path
  opts.allow_updates = true;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);

  const QueryRequest query = ShardWorkload()[0];  // bc
  const QueryResult r1 = scheduler.Run(query);
  const QueryResult r2 = scheduler.Run(query);  // hits worker state cache
  ExpectBitwiseEqual(r1, r2, "pre-update repeat");

  // An insert absent from the base graph; the scheduler broadcasts it to
  // both workers before answering.
  const Graph& g = session_->graph();
  NodeId au = 0, av = 0;
  for (NodeId u = 0; u < g.num_nodes() && av == 0; ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      const auto nbrs = g.neighbors(u);
      if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) {
        au = u;
        av = v;
        break;
      }
    }
  }
  QueryRequest mut;
  mut.op = RequestOp::kUpdate;
  mut.action = EdgeMutationKind::kInsert;
  mut.edge_u = au;
  mut.edge_v = av;
  const QueryResult applied = scheduler.Run(mut);
  ASSERT_TRUE(applied.status.ok()) << applied.status.ToString();
  ASSERT_EQ(applied.epoch, 1u);

  // The reference: the same mutation applied to a cold local session.
  std::unique_ptr<QuerySession> oracle_session;
  ASSERT_TRUE(QuerySession::Open(files_.sgr_path, SessionOptions(),
                                 &oracle_session)
                  .ok());
  ASSERT_TRUE(
      oracle_session->ApplyUpdate({EdgeMutationKind::kInsert, au, av}).ok());
  SchedulerOptions oracle_opts;
  oracle_opts.memo_capacity = 0;
  BatchScheduler oracle(oracle_session.get(), oracle_opts);
  const QueryResult expected = oracle.Run(query);

  const QueryResult r3 = scheduler.Run(query);
  ExpectBitwiseEqual(expected, r3, "post-update recompute");
  const QueryResult r4 = scheduler.Run(query);  // post-update cached state
  ExpectBitwiseEqual(expected, r4, "post-update repeat");
  supervisor.Shutdown();
}

TEST_F(ShardTest, WorkerKilledBetweenQueriesRecoversBitwise) {
  const std::vector<QueryRequest> workload = ShardWorkload();
  const std::vector<QueryResult>& baseline = Baseline();

  ThreadLauncher launcher(files_.sgr_path);
  WorkerSupervisor supervisor(&launcher, FastOptions(2));
  ASSERT_TRUE(supervisor.Start().ok());
  SchedulerOptions opts;
  opts.memo_capacity = 0;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);

  // Kill worker 0 cold: the next wave's RPC to it fails, its stripes are
  // reassigned to worker 1, and it restarts under backoff — all invisible
  // in the result bytes.
  launcher.KillWorker(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  const std::vector<QueryResult> results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i],
                       "post-kill query " + workload[i].id);
  }

  uint64_t retries = 0, reassigned = 0, restarts = 0;
  for (const ShardWorkerStats& w : supervisor.stats()) {
    retries += w.retries;
    reassigned += w.stripes_reassigned;
    restarts += w.restarts;
  }
  EXPECT_GE(retries, 1u);
  EXPECT_GE(reassigned, 1u);
  EXPECT_GE(restarts, 1u);
  EXPECT_GE(launcher.launches(), 3u);  // 2 initial + >=1 relaunch
  supervisor.Shutdown();
}

TEST_F(ShardTest, HeartbeatDetectsDeadWorkerAndQueriesStillMatch) {
  const std::vector<QueryRequest> workload = ShardWorkload();
  const std::vector<QueryResult>& baseline = Baseline();

  ThreadLauncher launcher(files_.sgr_path);
  ShardOptions sopts = FastOptions(2);
  sopts.heartbeat_ms = 20;
  WorkerSupervisor supervisor(&launcher, sopts);
  ASSERT_TRUE(supervisor.Start().ok());

  launcher.KillWorker(1);
  // Let the heartbeat discover the corpse while the tier is idle.
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    uint64_t misses = 0;
    for (const ShardWorkerStats& w : supervisor.stats()) {
      misses += w.heartbeat_misses;
    }
    if (misses > 0) break;
  }
  uint64_t misses = 0;
  for (const ShardWorkerStats& w : supervisor.stats()) {
    misses += w.heartbeat_misses;
  }
  EXPECT_GE(misses, 1u);

  SchedulerOptions opts;
  opts.memo_capacity = 0;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);
  const std::vector<QueryResult> results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i],
                       "post-heartbeat query " + workload[i].id);
  }
  supervisor.Shutdown();
}

TEST_F(ShardTest, RetryBudgetExhaustionDegradesInsteadOfErroring) {
  ThreadLauncher launcher(files_.sgr_path);
  WorkerSupervisor supervisor(&launcher, FastOptions(2, /*retry_budget=*/1));
  ASSERT_TRUE(supervisor.Start().ok());

  // Lose the whole tier, permanently: every wave round fails until the
  // budget runs out. The coordinator still draws its own share of each
  // failed wave (where it has the cores to), but never the workers'
  // stripes.
  launcher.set_refuse_relaunch(true);
  launcher.KillWorker(0);
  launcher.KillWorker(1);

  SchedulerOptions opts;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);
  QueryRequest req = ShardWorkload()[3];  // abra: single progressive run
  const QueryResult res = scheduler.Run(req);

  // A lost tier is a degraded answer, not an error.
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(res.degrade_reason, StatusCode::kUnavailable);
  EXPECT_EQ(res.mode, ServeMode::kComputed);
  const std::string line = SerializeQueryResult(res);
  EXPECT_NE(line.find("\"degraded\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"degrade_reason\":\"shard_lost\""), std::string::npos)
      << line;

  // Degraded results are never memoized: the identical request computes
  // again (and degrades again — the tier is still gone).
  const QueryResult again = scheduler.Run(req);
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(again.mode, ServeMode::kComputed);
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.degraded, 2u);
  EXPECT_EQ(stats.errors, 0u);
  // Each run failed on its first wave, of which the coordinator owns
  // stripes 0, 3, ..., 15: six.
  const uint64_t share = supervisor.coordinator_draws() ? 6 : 0;
  EXPECT_EQ(supervisor.coordinator_stripes(), 2 * share);

  // A bc query: the pilot (ordinal 0) fails its first wave and the main
  // run (ordinal 1) still starts, so the coordinator draws a share on
  // both ordinals — and the query still degrades with shard_lost.
  const QueryResult bc = scheduler.Run(ShardWorkload()[0]);
  ASSERT_TRUE(bc.status.ok()) << bc.status.ToString();
  EXPECT_TRUE(bc.degraded);
  EXPECT_EQ(bc.degrade_reason, StatusCode::kUnavailable);
  EXPECT_NE(SerializeQueryResult(bc).find(
                "\"degrade_reason\":\"shard_lost\""),
            std::string::npos);
  EXPECT_EQ(supervisor.coordinator_stripes(), 4 * share);
  supervisor.Shutdown();
}

TEST_F(ShardTest, CoordinatorDrawsItsShareOfEveryWave) {
  // With N workers the coordinator owns stripes s ≡ 0 (mod N+1) of the
  // 16: 8 at one worker (an 8/8 split), 6 at two (5 per worker), 4 at
  // four (3 per worker). Every wave of this workload spans at least 16
  // samples, so every stripe has a quota in every wave: each worker
  // answers one RPC per wave and the coordinator draws its full share —
  // when the host has the N+1 cores for it; otherwise none.
  // (ShardedMatchesLocalBitwise pins the bytes of these splits.)
  EXPECT_TRUE(WorkerSupervisor::CoordinatorDrawsShare(1, 2));
  EXPECT_TRUE(WorkerSupervisor::CoordinatorDrawsShare(2, 4));
  EXPECT_FALSE(WorkerSupervisor::CoordinatorDrawsShare(1, 1));
  EXPECT_FALSE(WorkerSupervisor::CoordinatorDrawsShare(2, 2));
  EXPECT_FALSE(WorkerSupervisor::CoordinatorDrawsShare(4, 4));
  for (uint32_t workers : {1u, 2u, 4u}) {
    ThreadLauncher launcher(files_.sgr_path);
    WorkerSupervisor supervisor(&launcher, FastOptions(workers));
    ASSERT_TRUE(supervisor.Start().ok());
    SchedulerOptions opts;
    opts.memo_capacity = 0;
    opts.supervisor = &supervisor;
    BatchScheduler scheduler(session_.get(), opts);
    for (const QueryResult& r : scheduler.RunBatch(ShardWorkload())) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_FALSE(r.degraded);
    }
    const std::vector<ShardWorkerStats> stats = supervisor.stats();
    const uint64_t waves = stats[0].waves;
    EXPECT_GT(waves, 0u);
    for (const ShardWorkerStats& w : stats) {
      EXPECT_EQ(w.waves, waves) << "workers=" << workers;
      EXPECT_EQ(w.retries, 0u);
    }
    const uint64_t owned =
        supervisor.coordinator_draws()
            ? (kDefaultSampleStripes + workers) / (workers + 1)
            : 0;
    EXPECT_EQ(supervisor.coordinator_stripes(), owned * waves)
        << "workers=" << workers;
    supervisor.Shutdown();
  }
}

/// A wave reply frame, decoded with the coordinator's codec.
RawSampleDelta DecodeReply(const std::string& reply) {
  RawSampleDelta delta;
  JsonValue doc;
  EXPECT_TRUE(ParseJson(reply, &doc).ok()) << reply;
  const JsonValue* ok = doc.Find("ok");
  EXPECT_TRUE(ok != nullptr && ok->bool_value) << reply;
  EXPECT_TRUE(DecodeDeltaReply(doc, &delta).ok()) << reply;
  return delta;
}

TEST_F(ShardTest, HostileWaveFramesAreRejectedAndLeaveStateIntact) {
  // A worker must answer a wave frame that repeats a stripe, names an
  // absurd stripe count, or an ordinal the estimator does not have, with
  // INVALID_ARGUMENT — not double-count the repeat (which would also
  // leave its stream position behind) and not allocate one RNG stream
  // per named stripe — and must stay usable.
  ThreadLauncher launcher(files_.sgr_path);
  net::UniqueFd conn;
  ASSERT_TRUE(launcher.Launch(0, &conn).ok());

  QueryRequest req = ShardWorkload()[3];  // abra: weighted, ordinal 0
  ASSERT_TRUE(CanonicalizeQuery(session_->graph().num_nodes(), &req).ok());
  const std::string query_json = SerializeQueryRequest(req);
  auto exchange = [&](const std::string& num_stripes,
                      const std::string& stripes, uint64_t from,
                      uint64_t to, int ordinal = 0) {
    const std::string frame =
        "{\"type\":\"wave\",\"graph\":\"\",\"fingerprint\":" +
        std::to_string(session_->fingerprint()) +
        ",\"ordinal\":" + std::to_string(ordinal) +
        ",\"num_stripes\":" + num_stripes +
        ",\"from\":" + std::to_string(from) +
        ",\"to\":" + std::to_string(to) +
        ",\"budget_ms\":0,\"stripes\":" + stripes +
        ",\"query\":" + JsonQuote(query_json) + "}";
    std::string reply;
    EXPECT_TRUE(
        net::SendFrame(conn.get(), frame, Deadline::AfterMillis(5000)).ok());
    EXPECT_TRUE(
        net::RecvFrame(conn.get(), &reply, Deadline::AfterMillis(5000)).ok());
    return reply;
  };
  auto expect_invalid = [](const std::string& reply, const char* what) {
    EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << what;
    EXPECT_NE(reply.find("\"code\":\"INVALID_ARGUMENT\""), std::string::npos)
        << what << ": " << reply;
  };

  constexpr size_t kStripes = 4;
  Rng rng(req.seed);
  const auto problem = MakeAbraSamplingProblem(session_->graph());
  SampleEngine local(problem.get(), kStripes, &rng, /*pool=*/nullptr);
  auto draw_local = [&](uint64_t from, uint64_t to) {
    RawSampleDelta out;
    EXPECT_TRUE(
        local.DrawStripes({0, 1, 2, 3}, from, to, nullptr, &out).ok());
    return out;
  };

  ExpectDeltaEqual(draw_local(0, 400),
                   DecodeReply(exchange("4", "[0,1,2,3]", 0, 400)),
                   "first wave");
  expect_invalid(exchange("4", "[0,1,1,2,3]", 400, 800), "repeated stripe");
  expect_invalid(exchange("100000000", "[0]", 400, 800), "1e8 stripes");
  expect_invalid(exchange("4294967300", "[0,1,2,3]", 400, 800),
                 "2^32 + 4 stripes");
  // ABRA has one progressive run: there is no ordinal 1 to draw.
  expect_invalid(exchange("4", "[0,1,2,3]", 400, 800, 1), "ordinal 1");
  ExpectDeltaEqual(draw_local(400, 800),
                   DecodeReply(exchange("4", "[0,1,2,3]", 400, 800)),
                   "wave after the hostile frames");
}

/// In-process WorkerLauncher whose workers answer every wave with one
/// scripted reply frame (and pings and quits like the real loop): a
/// hostile or broken worker, seen from the coordinator.
class ScriptedLauncher : public WorkerLauncher {
 public:
  explicit ScriptedLauncher(std::string wave_reply)
      : wave_reply_(std::move(wave_reply)) {}
  ScriptedLauncher(const ScriptedLauncher&) = delete;
  ScriptedLauncher& operator=(const ScriptedLauncher&) = delete;
  ~ScriptedLauncher() override {
    for (auto& inc : incarnations_) {
      ::shutdown(inc->fd.get(), SHUT_RDWR);
      inc->thread.join();
    }
  }

  Status Launch(uint32_t, net::UniqueFd* conn) override {
    auto inc = std::make_unique<Incarnation>();
    SAPHYRA_RETURN_NOT_OK(net::SocketPair(conn, &inc->fd));
    const int fd = inc->fd.get();
    const std::string* wave_reply = &wave_reply_;
    inc->thread = std::thread([fd, wave_reply] {
      std::string msg;
      while (net::RecvFrame(fd, &msg, Deadline::Never()).ok()) {
        JsonValue doc;
        const JsonValue* type =
            ParseJson(msg, &doc).ok() ? doc.Find("type") : nullptr;
        const std::string kind = type != nullptr ? type->string_value : "";
        const std::string reply = kind == "wave" ? *wave_reply
                                  : kind == "ping"
                                      ? "{\"ok\":true,\"type\":\"pong\"}"
                                      : "{\"ok\":true,\"type\":\"bye\"}";
        if (!net::SendFrame(fd, reply, Deadline::AfterMillis(5000)).ok() ||
            kind == "quit") {
          break;
        }
      }
      ::shutdown(fd, SHUT_RDWR);
    });
    incarnations_.push_back(std::move(inc));
    return Status::OK();
  }

 private:
  struct Incarnation {
    net::UniqueFd fd;
    std::thread thread;
  };
  std::string wave_reply_;
  std::vector<std::unique_ptr<Incarnation>> incarnations_;
};

TEST_F(ShardTest, HostileWorkerRepliesBecomeStatuses) {
  // ABRA is weighted: a well-formed delta carries all three arrays, one
  // entry per node. Each reply below breaks that in one way; each must
  // come back as a Status — a worker fault (retried, then shard_lost) or
  // INTERNAL — and the query as a degraded result, never an abort.
  const size_t k = session_->graph().num_nodes();
  auto zeros = [](size_t n) {
    std::string out;
    AppendUintArray(std::vector<uint64_t>(n, 0), &out);
    return out;
  };
  struct Case {
    const char* what;
    std::string reply;
    StatusCode code;
  };
  const Case cases[] = {
      {"counts of the wrong length",
       "{\"ok\":true,\"counts\":" + zeros(k + 1) + ",\"fp_sums\":" +
           zeros(k) + ",\"fp_sum_squares\":" + zeros(k) + "}",
       StatusCode::kInternal},
      {"fp_sums without fp_sum_squares",
       "{\"ok\":true,\"counts\":" + zeros(k) + ",\"fp_sums\":" + zeros(k) +
           "}",
       StatusCode::kInternal},
      {"a non-integer entry",
       "{\"ok\":true,\"counts\":[0.5" + std::string(k > 1 ? "," : "") +
           zeros(k - 1).substr(1),
       StatusCode::kUnavailable},
      {"no ok field", "{\"counts\":" + zeros(k) + "}",
       StatusCode::kUnavailable},
  };
  QueryRequest req = ShardWorkload()[3];  // abra: one progressive run
  ASSERT_EQ(req.estimator, EstimatorKind::kAbra);
  ASSERT_TRUE(CanonicalizeQuery(session_->graph().num_nodes(), &req).ok());
  for (const Case& c : cases) {
    ScriptedLauncher launcher(c.reply);
    WorkerSupervisor supervisor(&launcher, FastOptions(1, /*retry_budget=*/1));
    ASSERT_TRUE(supervisor.Start().ok()) << c.what;

    // The engine's view: the wave fails with the expected code and the
    // failure latches. Where the host has the cores, the coordinator has
    // drawn its share into the wave's sum before the reply is added.
    ShardedQuery query(&supervisor, "", session_->fingerprint(),
                       SerializeQueryRequest(req), /*cancel=*/nullptr);
    Rng rng = ProgressiveRunStream(req.seed, 0, 1);
    const auto problem = MakeAbraSamplingProblem(session_->graph());
    SampleEngine engine(problem.get(), kDefaultSampleStripes, &rng, nullptr);
    engine.set_wave_executor(query.ExecutorFor(0));
    EXPECT_EQ(engine.DrawAccumulate(0, 400), 0u) << c.what;
    EXPECT_EQ(engine.last_wave_status().code(), c.code)
        << c.what << ": " << engine.last_wave_status().ToString();

    // The server's view: a degraded result, not an error.
    SchedulerOptions opts;
    opts.memo_capacity = 0;
    opts.supervisor = &supervisor;
    BatchScheduler scheduler(session_.get(), opts);
    const QueryResult res = scheduler.Run(ShardWorkload()[3]);
    ASSERT_TRUE(res.status.ok()) << c.what << ": " << res.status.ToString();
    EXPECT_TRUE(res.degraded) << c.what;
    EXPECT_EQ(res.degrade_reason, c.code) << c.what;
    const std::string wire = SerializeQueryResult(res);
    EXPECT_NE(wire.find(c.code == StatusCode::kInternal
                            ? "\"degrade_reason\":\"internal\""
                            : "\"degrade_reason\":\"shard_lost\""),
              std::string::npos)
        << c.what << ": " << wire;
    supervisor.Shutdown();
  }
}

#ifdef SAPHYRA_FAILPOINTS
TEST_F(ShardTest, MidWaveCrashReplaysStripesBitwise) {
  const std::vector<QueryRequest> workload = ShardWorkload();
  const std::vector<QueryResult>& baseline = Baseline();

  ThreadLauncher launcher(files_.sgr_path);
  WorkerSupervisor supervisor(&launcher, FastOptions(2));
  ASSERT_TRUE(supervisor.Start().ok());

  // The first wave RPC that reaches a worker dies mid-wave: the loop
  // exits without replying — after the worker half-consumed its stripes'
  // RNG streams. The survivor (and the restarted worker, which rebuilds
  // from the seed) must replay those stripes to the same bits.
  ASSERT_TRUE(fail::Inject("worker.wave", "1*throw(mid-wave crash)"));

  SchedulerOptions opts;
  opts.memo_capacity = 0;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);
  const std::vector<QueryResult> results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i],
                       "mid-wave-crash query " + workload[i].id);
  }

  uint64_t retries = 0, reassigned = 0;
  for (const ShardWorkerStats& w : supervisor.stats()) {
    retries += w.retries;
    reassigned += w.stripes_reassigned;
  }
  EXPECT_GE(retries, 1u);
  EXPECT_GE(reassigned, 1u);
  fail::ClearAll();
  supervisor.Shutdown();
}

TEST_F(ShardTest, WaveRpcsOverlapAcrossWorkers) {
  ThreadLauncher launcher(files_.sgr_path);
  WorkerSupervisor supervisor(&launcher, FastOptions(2));
  ASSERT_TRUE(supervisor.Start().ok());

  // ABRA draws one progressive run straight off the query's base stream
  // (ordinal 0), so the local reference is a plain SampleEngine.
  QueryRequest req = ShardWorkload()[3];
  ASSERT_TRUE(CanonicalizeQuery(session_->graph().num_nodes(), &req).ok());
  constexpr size_t kStripes = 4;
  WaveSpec spec;
  spec.fingerprint = session_->fingerprint();
  spec.query_json = SerializeQueryRequest(req);
  spec.num_stripes = kStripes;

  Rng rng(req.seed);
  const auto problem = MakeAbraSamplingProblem(session_->graph());
  SampleEngine local(problem.get(), kStripes, &rng, /*pool=*/nullptr);
  ASSERT_EQ(local.num_workers(), kStripes);
  auto draw_local = [&](uint64_t from, uint64_t to, RawSampleDelta* out) {
    *out = RawSampleDelta();
    ASSERT_TRUE(local.DrawStripes({0, 1, 2, 3}, from, to, nullptr, out).ok());
  };

  // An untimed first wave warms both workers (session open, engine build).
  RawSampleDelta expected, sharded;
  draw_local(0, 400, &expected);
  spec.from = 0;
  spec.to = 400;
  ASSERT_TRUE(supervisor.ExecuteWave(spec, &sharded).ok());
  ExpectDeltaEqual(expected, sharded, "warm-up wave");

  // Every slice now stalls 150 ms on its worker. Scattered to both
  // workers before either reply is read, the wave pays the stall once;
  // one RPC after another would pay it twice (>= 300 ms).
  ASSERT_TRUE(fail::Inject("worker.wave", "sleep(150)"));
  draw_local(400, 800, &expected);
  spec.from = 400;
  spec.to = 800;
  const auto start = std::chrono::steady_clock::now();
  const Status st = supervisor.ExecuteWave(spec, &sharded);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  fail::ClearAll();
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectDeltaEqual(expected, sharded, "stalled wave");
  EXPECT_LT(wall_ms, 1.6 * 150) << "wave RPCs did not overlap";
  for (const ShardWorkerStats& w : supervisor.stats()) {
    EXPECT_EQ(w.waves, 2u) << "worker " << w.index;
    EXPECT_EQ(w.retries, 0u) << "worker " << w.index;
  }
  supervisor.Shutdown();
}

TEST_F(ShardTest, QueryDeadlineMidGatherLeavesConnectionsClean) {
  const std::vector<QueryRequest> workload = ShardWorkload();
  const std::vector<QueryResult>& baseline = Baseline();

  ThreadLauncher launcher(files_.sgr_path);
  WorkerSupervisor supervisor(&launcher, FastOptions(2));
  ASSERT_TRUE(supervisor.Start().ok());
  SchedulerOptions opts;
  opts.memo_capacity = 0;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);

  // Warm both workers so the unstalled slice answers well in time.
  std::vector<QueryResult> results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i], "warm-up " + workload[i].id);
  }

  // The first slice to reach a worker stalls past the query's deadline.
  // The coordinator gives up on that worker (drop), but the other one's
  // reply has arrived and must be read off its connection (drain) — left
  // unread, the next wave on that connection would merge a stale delta.
  ASSERT_TRUE(fail::Inject("worker.wave", "1*sleep(300)"));
  QueryRequest late = workload[0];
  late.deadline_ms = 100;
  const QueryResult res = scheduler.Run(late);
  fail::ClearAll();
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(res.degrade_reason, StatusCode::kDeadlineExceeded);

  std::vector<ShardWorkerStats> stats = supervisor.stats();
  uint32_t alive = 0, in_time = 0;
  for (const ShardWorkerStats& w : stats) {
    EXPECT_EQ(w.retries, 0u) << "a query deadline is not a worker fault";
    EXPECT_EQ(w.restarts, 0u);
    if (w.alive) {
      ++alive;
      in_time = w.index;
    }
  }
  ASSERT_EQ(alive, 1u) << "exactly the stalled worker is dropped";

  results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i],
                       "post-deadline " + workload[i].id);
  }
  stats = supervisor.stats();
  EXPECT_EQ(stats[in_time].restarts, 0u);
  EXPECT_EQ(stats[1 - in_time].restarts, 1u);
  supervisor.Shutdown();
}

TEST_F(ShardTest, QueryDeadlineDuringCoordinatorShare) {
  const std::vector<QueryRequest> workload = ShardWorkload();
  const std::vector<QueryResult>& baseline = Baseline();

  ThreadLauncher launcher(files_.sgr_path);
  // One worker: the coordinator draws half of every wave wherever the
  // process has 2 cores.
  WorkerSupervisor supervisor(&launcher, FastOptions(1));
  if (!supervisor.coordinator_draws()) {
    GTEST_SKIP() << "one core: the coordinator draws no share";
  }
  ASSERT_TRUE(supervisor.Start().ok());
  SchedulerOptions opts;
  opts.memo_capacity = 0;
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session_.get(), opts);

  std::vector<QueryResult> results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i], "warm-up " + workload[i].id);
  }
  const uint64_t drawn = supervisor.coordinator_stripes();
  EXPECT_GT(drawn, 0u);

  // The coordinator stalls before its first own stripe, past the query's
  // deadline, while the worker answers its slice in time. It must give
  // up on its share (nothing merged, nothing counted), fail the wave
  // with the query's DEADLINE_EXCEEDED, and still read the reply off the
  // connection.
  ASSERT_TRUE(fail::Inject("shard.coordinator_stripe", "1*sleep(300)"));
  QueryRequest late = workload[0];
  late.deadline_ms = 100;
  const QueryResult res = scheduler.Run(late);
  fail::ClearAll();
  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(res.degrade_reason, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(supervisor.coordinator_stripes(), drawn);
  for (const ShardWorkerStats& w : supervisor.stats()) {
    EXPECT_EQ(w.retries, 0u) << "a query deadline is not a worker fault";
    EXPECT_EQ(w.restarts, 0u);
    EXPECT_TRUE(w.alive) << "worker " << w.index << " reply not drained";
  }

  results = scheduler.RunBatch(workload);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(baseline[i], results[i],
                       "post-deadline " + workload[i].id);
  }
  EXPECT_EQ(supervisor.coordinator_stripes(), 2 * drawn);
  for (const ShardWorkerStats& w : supervisor.stats()) {
    EXPECT_EQ(w.restarts, 0u);
  }
  supervisor.Shutdown();
}

TEST_F(ShardTest, CoordinatorShareDoesNotCountTowardRpcTimeout) {
  // ABRA's delta carries a count for every node: on 3000 nodes each
  // reply is several times the worker's shrunk send buffer, so it can
  // only be read while the worker keeps writing — not in one poll on an
  // expired deadline.
  GraphFiles files(RandomConnectedGraph(3000, 0.001, 41), "big.txt");
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  QueryRequest req = ShardWorkload()[3];
  ASSERT_EQ(req.estimator, EstimatorKind::kAbra);
  SchedulerOptions opts;
  opts.memo_capacity = 0;
  BatchScheduler local(session.get(), opts);
  const QueryResult expected = local.Run(req);

  ThreadLauncher launcher(files.sgr_path);
  launcher.set_send_buffer(4096);
  ShardOptions sopts = FastOptions(1);
  sopts.rpc_timeout_ms = 1000;
  WorkerSupervisor supervisor(&launcher, sopts);
  if (!supervisor.coordinator_draws()) {
    GTEST_SKIP() << "one core: the coordinator draws no share";
  }
  ASSERT_TRUE(supervisor.Start().ok());
  opts.supervisor = &supervisor;
  BatchScheduler scheduler(session.get(), opts);
  ExpectBitwiseEqual(expected, scheduler.Run(req), "warm-up");

  // The coordinator's own share outlasts rpc_timeout_ms on an unbounded
  // query. The worker answered in time; it must not be taken for hung.
  ASSERT_TRUE(fail::Inject("shard.coordinator_stripe", "1*sleep(1500)"));
  const QueryResult res = scheduler.Run(req);
  fail::ClearAll();
  ExpectBitwiseEqual(expected, res, "slow coordinator share");
  for (const ShardWorkerStats& w : supervisor.stats()) {
    EXPECT_EQ(w.retries, 0u) << "worker " << w.index;
    EXPECT_EQ(w.restarts, 0u) << "worker " << w.index;
    EXPECT_TRUE(w.alive) << "worker " << w.index;
  }
  supervisor.Shutdown();
}
#endif  // SAPHYRA_FAILPOINTS

}  // namespace
}  // namespace saphyra
