// The serving determinism contract, pinned bitwise (DESIGN.md, "Serving
// determinism contract"): for a fixed canonicalized query, the estimates
// are byte-identical whether the query runs
//   * cold    — a fresh per-process-style session per query,
//   * warm    — repeatedly on one long-lived session,
//   * batched — concurrently with other queries through the scheduler,
//   * memoized — served from the completed-results memo,
// across estimator worker threads {1, 2, 8} and scheduler admission
// concurrency {1, 2, 8}, and regardless of the text-vs-`.sgr` load path.
// This is what makes the scheduler's memoization and dedup *correct*
// rather than merely fast: a cache hit must be indistinguishable from a
// re-run.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "service/json_util.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "test_util.h"

namespace saphyra {
namespace {

using testing::RandomConnectedGraph;

std::string TempPath(const std::string& stem) {
  return "/tmp/saphyra_serve_det_test_" + std::to_string(::getpid()) + "_" +
         stem;
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

/// The heterogeneous workload: every estimator, plus top-k and
/// unidirectional-strategy variants.
std::vector<QueryRequest> MixedWorkload() {
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

  QueryRequest uni = bc;
  uni.id = "bc-uni";
  uni.strategy = SamplingStrategy::kUnidirectional;
  reqs.push_back(uni);

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
  ASSERT_EQ(a.nodes, b.nodes) << what;
  ASSERT_EQ(a.estimates.size(), b.estimates.size()) << what;
  EXPECT_EQ(std::memcmp(a.estimates.data(), b.estimates.data(),
                        a.estimates.size() * sizeof(double)),
            0)
      << what << ": estimates differ bitwise";
  EXPECT_EQ(a.samples_used, b.samples_used) << what;
}

class ServeDeterminismTest : public ::testing::Test {
 protected:
  ServeDeterminismTest()
      : files_(RandomConnectedGraph(60, 0.06, 33)),
        files_b_(RandomConnectedGraph(50, 0.08, 44), "graph_b.txt") {}

  std::unique_ptr<QuerySession> OpenSession(bool from_sgr,
                                            uint32_t default_threads = 1) {
    SessionOptions opts;
    opts.default_threads = default_threads;
    if (!from_sgr) opts.load.use_cache = false;
    std::unique_ptr<QuerySession> session;
    Status st = QuerySession::Open(from_sgr ? files_.sgr_path : files_.text_path,
                                   opts, &session);
    SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
    return session;
  }

  GraphFiles files_;
  GraphFiles files_b_;  ///< second tenant for the pooled-serving tests
};

TEST_F(ServeDeterminismTest, ColdEqualsWarmEqualsMemoized) {
  const std::vector<QueryRequest> workload = MixedWorkload();

  // Cold baseline: a fresh session per query — the saphyra_rank cost
  // model. Also the text-parse load path, so cache-loaded sessions below
  // prove load-path independence at the same time.
  std::vector<QueryResult> cold;
  for (const QueryRequest& req : workload) {
    cold.push_back(OpenSession(/*from_sgr=*/false)->Run(req));
  }

  // Warm: one `.sgr`-loaded session answers everything, twice over.
  std::unique_ptr<QuerySession> warm = OpenSession(/*from_sgr=*/true);
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < workload.size(); ++i) {
      QueryResult res = warm->Run(workload[i]);
      ExpectBitwiseEqual(cold[i], res,
                         "warm pass " + std::to_string(pass) + " query " +
                             workload[i].id);
    }
  }

  // Memoized: a scheduler serves the workload twice; the second pass must
  // come from the memo and still carry the cold bytes.
  BatchScheduler scheduler(warm.get(), SchedulerOptions());
  for (size_t i = 0; i < workload.size(); ++i) {
    ExpectBitwiseEqual(cold[i], scheduler.Run(workload[i]),
                       "scheduler first pass " + workload[i].id);
  }
  for (size_t i = 0; i < workload.size(); ++i) {
    QueryResult res = scheduler.Run(workload[i]);
    EXPECT_EQ(res.mode, ServeMode::kMemoized) << workload[i].id;
    ExpectBitwiseEqual(cold[i], res, "memoized " + workload[i].id);
  }
}

TEST_F(ServeDeterminismTest, ThreadCountsAndBatchingAreInert) {
  const std::vector<QueryRequest> workload = MixedWorkload();

  // Baseline: serial, single-threaded, memoization off so every run is a
  // real execution.
  std::unique_ptr<QuerySession> session = OpenSession(/*from_sgr=*/true);
  SchedulerOptions base_opts;
  base_opts.max_concurrent = 1;
  base_opts.memo_capacity = 0;
  BatchScheduler base(session.get(), base_opts);
  const std::vector<QueryResult> baseline = base.RunBatch(workload);

  for (uint32_t threads : {2u, 8u}) {
    for (uint32_t concurrency : {1u, 2u, 8u}) {
      std::unique_ptr<QuerySession> s =
          OpenSession(/*from_sgr=*/true, threads);
      SchedulerOptions opts;
      opts.max_concurrent = concurrency;
      opts.memo_capacity = 0;
      BatchScheduler scheduler(s.get(), opts);
      const std::vector<QueryResult> results = scheduler.RunBatch(workload);
      ASSERT_EQ(results.size(), baseline.size());
      for (size_t i = 0; i < results.size(); ++i) {
        ExpectBitwiseEqual(
            baseline[i], results[i],
            "threads=" + std::to_string(threads) +
                " concurrency=" + std::to_string(concurrency) + " query " +
                workload[i].id);
      }
    }
  }
}

TEST_F(ServeDeterminismTest, ConcurrentDuplicatesShareOneExecutionBitwise) {
  // Eight copies of one query admitted at once: whichever thread computes,
  // every rider (dedup or memo) must receive the same bytes.
  QueryRequest req;
  req.estimator = EstimatorKind::kBc;
  req.epsilon = 0.1;
  req.seed = 23;
  req.targets = {0, 2, 4, 6, 8, 10};

  std::unique_ptr<QuerySession> session = OpenSession(/*from_sgr=*/true);
  const QueryResult reference = session->Run(req);

  SchedulerOptions opts;
  opts.max_concurrent = 8;
  BatchScheduler scheduler(session.get(), opts);
  std::vector<QueryRequest> batch(8, req);
  const std::vector<QueryResult> results = scheduler.RunBatch(batch);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitwiseEqual(reference, results[i],
                       "duplicate " + std::to_string(i));
  }
  EXPECT_EQ(scheduler.stats().computed, 1u);
}

TEST_F(ServeDeterminismTest, PooledTenancyMatchesSingleTenantBitwise) {
  // The tenancy extension of the contract: a query's bytes are identical
  // whether its graph is served single-tenant, pooled-and-resident, or
  // pooled with constant eviction/reload churn (max_graphs=1 forces every
  // alternation between the two graphs to cold-reload), at every
  // admission concurrency. Memoization is off so each run is a real
  // execution — including the post-reload ones.
  const std::vector<QueryRequest> workload = MixedWorkload();

  // Single-tenant baselines, one server per graph.
  auto single_tenant = [&](const GraphFiles& files) {
    std::unique_ptr<QuerySession> session;
    SAPHYRA_CHECK(QuerySession::Open(files.sgr_path, SessionOptions(),
                                     &session)
                      .ok());
    SchedulerOptions opts;
    opts.memo_capacity = 0;
    BatchScheduler scheduler(session.get(), opts);
    return scheduler.RunBatch(workload);
  };
  const std::vector<QueryResult> baseline_a = single_tenant(files_);
  const std::vector<QueryResult> baseline_b = single_tenant(files_b_);

  // The pooled stream interleaves the two tenants query by query.
  std::vector<QueryRequest> interleaved;
  for (const QueryRequest& req : workload) {
    QueryRequest on_a = req;
    on_a.graph = "a";
    on_a.id = req.id + "@a";
    interleaved.push_back(on_a);
    QueryRequest on_b = req;
    on_b.graph = "b";
    on_b.id = req.id + "@b";
    interleaved.push_back(on_b);
  }

  for (size_t max_graphs : {size_t{1}, size_t{2}}) {
    for (uint32_t concurrency : {1u, 2u, 8u}) {
      SessionPoolOptions popts;
      popts.max_graphs = max_graphs;
      SessionPool pool(popts);
      ASSERT_TRUE(pool.Register("a", files_.sgr_path).ok());
      ASSERT_TRUE(pool.Register("b", files_b_.sgr_path).ok());
      SchedulerOptions opts;
      opts.max_concurrent = concurrency;
      opts.memo_capacity = 0;
      BatchScheduler scheduler(&pool, opts);
      const std::vector<QueryResult> results =
          scheduler.RunBatch(interleaved);
      ASSERT_EQ(results.size(), 2 * workload.size());
      for (size_t i = 0; i < workload.size(); ++i) {
        const std::string ctx = "max_graphs=" + std::to_string(max_graphs) +
                                " concurrency=" + std::to_string(concurrency) +
                                " query " + workload[i].id;
        ExpectBitwiseEqual(baseline_a[i], results[2 * i], ctx + "@a");
        ExpectBitwiseEqual(baseline_b[i], results[2 * i + 1], ctx + "@b");
        EXPECT_EQ(results[2 * i].graph, "a") << ctx;
        EXPECT_EQ(results[2 * i + 1].graph, "b") << ctx;
      }
      if (max_graphs == 1 && concurrency == 1) {
        // Serial alternation over a one-slot pool reloads on every switch:
        // the bitwise equality above covered cold, reloaded, and
        // evicted-while-previous-tenant-resident serves.
        for (const SessionPoolGraphStats& g : pool.stats()) {
          EXPECT_GE(g.loads, 2u) << g.name;
          EXPECT_GE(g.evictions, 1u) << g.name;
        }
      }
    }
  }
}

TEST_F(ServeDeterminismTest, EvictionPinsInFlightAndReloadReproducesBytes) {
  // shared_ptr pinning: a session evicted from the pool keeps serving the
  // handles already out, bitwise-equal to before the eviction; and a
  // fresh Acquire after the eviction reloads a session that reproduces
  // the same bytes again.
  QueryRequest req = MixedWorkload()[0];

  SessionPoolOptions popts;
  popts.max_graphs = 1;
  SessionPool pool(popts);
  ASSERT_TRUE(pool.Register("a", files_.sgr_path).ok());
  ASSERT_TRUE(pool.Register("b", files_b_.sgr_path).ok());

  std::shared_ptr<QuerySession> pinned_a;
  ASSERT_TRUE(pool.Acquire("a", &pinned_a).ok());
  const QueryResult before = pinned_a->Run(req);

  std::shared_ptr<QuerySession> session_b;
  ASSERT_TRUE(pool.Acquire("b", &session_b).ok());
  EXPECT_EQ(pool.resident_count(), 1u);  // a evicted, pinned handle lives

  ExpectBitwiseEqual(before, pinned_a->Run(req), "pinned post-eviction run");

  std::shared_ptr<QuerySession> reloaded_a;
  ASSERT_TRUE(pool.Acquire("a", &reloaded_a).ok());
  EXPECT_NE(reloaded_a.get(), pinned_a.get());
  ExpectBitwiseEqual(before, reloaded_a->Run(req), "reload-after-evict run");

  for (const SessionPoolGraphStats& g : pool.stats()) {
    if (g.name == "a") {
      EXPECT_EQ(g.loads, 2u);
      EXPECT_GE(g.evictions, 1u);
    }
  }
}

TEST_F(ServeDeterminismTest, SerializedEstimatesRoundTripBitwise) {
  // The NDJSON emitter prints shortest-round-trip doubles; parsing the
  // line back must reproduce the estimate bits exactly.
  std::unique_ptr<QuerySession> session = OpenSession(/*from_sgr=*/true);
  QueryRequest req = MixedWorkload()[0];
  const QueryResult res = session->Run(req);
  const std::string line = SerializeQueryResult(res);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(line, &doc).ok());
  const JsonValue* estimates = doc.Find("estimates");
  ASSERT_NE(estimates, nullptr);
  ASSERT_EQ(estimates->array.size(), res.estimates.size());
  for (size_t i = 0; i < res.estimates.size(); ++i) {
    const double parsed = estimates->array[i].number_value;
    EXPECT_EQ(std::memcmp(&parsed, &res.estimates[i], sizeof(double)), 0)
        << "estimate " << i << " lost bits through NDJSON";
  }
}

}  // namespace
}  // namespace saphyra
