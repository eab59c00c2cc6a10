// Unit coverage of the serving layer's building blocks: request parsing,
// canonicalization, cache-key semantics, QuerySession state, and the
// BatchScheduler's memo/dedup machinery. The bitwise serving
// determinism contract has its own suite (serve_determinism_test.cc).

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bc/saphyra_bc.h"
#include "bicomp/isp.h"
#include "bicomp_test_util.h"
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

using testing::ExpectSameIndex;
using testing::PaperFig2Graph;
using testing::RandomConnectedGraph;

/// Per-process unique temp path (the fuzz sweeps taught this repo not to
/// share /tmp fixture names across concurrently running test binaries).
std::string TempPath(const std::string& stem) {
  return "/tmp/saphyra_service_test_" + std::to_string(::getpid()) + "_" +
         stem;
}

/// A text graph file + its full `.sgr` cache, removed on destruction.
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

TEST(ParseQueryRequestTest, FullRequest) {
  QueryRequest req;
  ASSERT_TRUE(ParseQueryRequest(
                  R"({"id":"q9","estimator":"kadabra","epsilon":0.1,)"
                  R"("delta":0.02,"seed":99,"topk":5,"strategy":"unidirectional",)"
                  R"("traversal":"topdown","threads":4,"targets":[3,1,2]})",
                  &req)
                  .ok());
  EXPECT_EQ(req.id, "q9");
  EXPECT_EQ(req.estimator, EstimatorKind::kKadabra);
  EXPECT_DOUBLE_EQ(req.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(req.delta, 0.02);
  EXPECT_EQ(req.seed, 99u);
  EXPECT_EQ(req.top_k, 5u);
  EXPECT_EQ(req.strategy, SamplingStrategy::kUnidirectional);
  EXPECT_EQ(req.traversal, TraversalPolicy::kTopDown);
  EXPECT_EQ(req.num_threads, 4u);
  EXPECT_EQ(req.targets, (std::vector<NodeId>{3, 1, 2}));
}

TEST(ParseQueryRequestTest, DefaultsMatchOptionStructs) {
  QueryRequest req;
  ASSERT_TRUE(ParseQueryRequest("{}", &req).ok());
  EXPECT_EQ(req.estimator, EstimatorKind::kBc);
  EXPECT_DOUBLE_EQ(req.epsilon, 0.05);
  EXPECT_DOUBLE_EQ(req.delta, 0.01);
  EXPECT_EQ(req.seed, 1u);
  EXPECT_EQ(req.top_k, 0u);
  EXPECT_EQ(req.deadline_ms, 0u);
  EXPECT_TRUE(req.targets.empty());
}

TEST(ParseQueryRequestTest, GraphField) {
  QueryRequest req;
  ASSERT_TRUE(ParseQueryRequest(R"({"graph":"road","seed":3})", &req).ok());
  EXPECT_EQ(req.graph, "road");
  ASSERT_TRUE(ParseQueryRequest("{}", &req).ok());
  EXPECT_TRUE(req.graph.empty());
  EXPECT_FALSE(ParseQueryRequest(R"({"graph":7})", &req).ok());
}

TEST(MakeQueryCacheKeyTest, GraphNameIsRoutingOnly) {
  // The graph *name* never reaches the cache key — only the resolved
  // fingerprint does. Two names serving content-identical graphs share
  // entries; different content splits on the fingerprint.
  QueryRequest a;
  ASSERT_TRUE(CanonicalizeQuery(10, &a).ok());
  QueryRequest b = a;
  b.graph = "alias";
  EXPECT_TRUE(MakeQueryCacheKey(1, a) == MakeQueryCacheKey(1, b));
  EXPECT_FALSE(MakeQueryCacheKey(1, a) == MakeQueryCacheKey(2, b));
}

TEST(ParseQueryRequestTest, DeadlineMs) {
  QueryRequest req;
  ASSERT_TRUE(ParseQueryRequest(R"({"deadline_ms":250})", &req).ok());
  EXPECT_EQ(req.deadline_ms, 250u);
  EXPECT_FALSE(ParseQueryRequest(R"({"deadline_ms":-5})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"deadline_ms":"soon"})", &req).ok());
}

TEST(MakeQueryCacheKeyTest, DeadlineSplitsCacheEntries) {
  // A deadline-bounded query may produce different (truncated) bytes than
  // its unbounded twin, so the two must never share a memo entry.
  QueryRequest a;
  ASSERT_TRUE(CanonicalizeQuery(10, &a).ok());
  QueryRequest b = a;
  b.deadline_ms = 100;
  EXPECT_FALSE(MakeQueryCacheKey(1, a) == MakeQueryCacheKey(1, b));
  b.deadline_ms = 0;
  EXPECT_TRUE(MakeQueryCacheKey(1, a) == MakeQueryCacheKey(1, b));
}

TEST(ParseQueryRequestTest, Rejections) {
  QueryRequest req;
  // Unknown fields are hard errors: a typo must not silently run at the
  // default.
  EXPECT_FALSE(ParseQueryRequest(R"({"epsilonn":0.1})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"estimator":"brandes"})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"seed":-1})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"seed":1.5})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"targets":[1,"x"]})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"targets":7})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest(R"({"strategy":"sideways"})", &req).ok());
  EXPECT_FALSE(ParseQueryRequest("[1,2]", &req).ok());
  EXPECT_FALSE(ParseQueryRequest("not json", &req).ok());
}

TEST(CanonicalizeQueryTest, SortsDedupsAndPromotes) {
  QueryRequest req;
  req.estimator = EstimatorKind::kBc;
  req.targets = {5, 1, 3, 1, 5};
  ASSERT_TRUE(CanonicalizeQuery(10, &req).ok());
  EXPECT_EQ(req.targets, (std::vector<NodeId>{1, 3, 5}));

  QueryRequest full;
  full.estimator = EstimatorKind::kBc;  // no targets
  ASSERT_TRUE(CanonicalizeQuery(10, &full).ok());
  EXPECT_EQ(full.estimator, EstimatorKind::kBcFull);
}

TEST(CanonicalizeQueryTest, ResetsInapplicableFields) {
  QueryRequest req;
  req.estimator = EstimatorKind::kCloseness;
  req.strategy = SamplingStrategy::kUnidirectional;  // ignored by closeness
  req.k = 9;                                         // ignored by closeness
  req.targets = {0, 1};
  ASSERT_TRUE(CanonicalizeQuery(10, &req).ok());
  EXPECT_EQ(req.strategy, SamplingStrategy::kBidirectional);
  EXPECT_EQ(req.k, 0u);
}

TEST(CanonicalizeQueryTest, Rejections) {
  QueryRequest req;
  req.targets = {11};
  EXPECT_FALSE(CanonicalizeQuery(10, &req).ok());  // out of range
  req = QueryRequest();
  req.epsilon = 0.0;
  EXPECT_FALSE(CanonicalizeQuery(10, &req).ok());
  req = QueryRequest();
  req.delta = 1.0;
  EXPECT_FALSE(CanonicalizeQuery(10, &req).ok());
  req = QueryRequest();
  req.estimator = EstimatorKind::kKPath;
  req.k = 0;
  EXPECT_FALSE(CanonicalizeQuery(10, &req).ok());
}

TEST(QueryCacheKeyTest, StatisticalParametersSplitKeys) {
  QueryRequest base;
  base.estimator = EstimatorKind::kBc;
  base.targets = {1, 2, 3};
  ASSERT_TRUE(CanonicalizeQuery(10, &base).ok());
  const QueryCacheKey key0 = MakeQueryCacheKey(0xABCD, base);

  std::set<std::string> seen{key0.canonical};
  auto expect_differs = [&](QueryRequest req, const char* what) {
    ASSERT_TRUE(CanonicalizeQuery(10, &req).ok()) << what;
    const QueryCacheKey key = MakeQueryCacheKey(0xABCD, req);
    EXPECT_TRUE(seen.insert(key.canonical).second)
        << what << " did not change the cache key";
  };

  QueryRequest req = base;
  req.epsilon = 0.04;
  expect_differs(req, "epsilon");
  req = base;
  req.delta = 0.02;
  expect_differs(req, "delta");
  req = base;
  req.top_k = 2;
  expect_differs(req, "top_k");
  req = base;
  req.strategy = SamplingStrategy::kUnidirectional;
  expect_differs(req, "strategy");
  req = base;
  req.seed = 2;
  expect_differs(req, "seed");
  req = base;
  req.targets = {1, 2, 4};
  expect_differs(req, "targets");
  req = base;
  req.estimator = EstimatorKind::kKadabra;
  expect_differs(req, "estimator");

  // A different graph fingerprint always splits the key.
  EXPECT_NE(MakeQueryCacheKey(0xABCE, base).canonical, key0.canonical);
}

TEST(QueryCacheKeyTest, ExecutionParametersShareKeys) {
  QueryRequest base;
  base.estimator = EstimatorKind::kBc;
  base.targets = {1, 2, 3};
  ASSERT_TRUE(CanonicalizeQuery(10, &base).ok());
  const QueryCacheKey key0 = MakeQueryCacheKey(1, base);

  QueryRequest req = base;
  req.num_threads = 8;
  req.traversal = TraversalPolicy::kTopDown;
  ASSERT_TRUE(CanonicalizeQuery(10, &req).ok());
  EXPECT_EQ(MakeQueryCacheKey(1, req), key0)
      << "execution-only fields must not split cache entries";

  // Target order and duplicates canonicalize away.
  req = base;
  req.targets = {3, 2, 1, 2};
  ASSERT_TRUE(CanonicalizeQuery(10, &req).ok());
  EXPECT_EQ(MakeQueryCacheKey(1, req), key0);

  // k is inert for estimators that ignore it...
  QueryRequest ka = base;
  ka.estimator = EstimatorKind::kKadabra;
  QueryRequest kb = ka;
  ka.k = 3;
  kb.k = 7;
  ASSERT_TRUE(CanonicalizeQuery(10, &ka).ok());
  ASSERT_TRUE(CanonicalizeQuery(10, &kb).ok());
  EXPECT_EQ(MakeQueryCacheKey(1, ka), MakeQueryCacheKey(1, kb));

  // ...but splits keys for k-path.
  ka.estimator = kb.estimator = EstimatorKind::kKPath;
  ka.k = 3;
  kb.k = 7;
  ASSERT_TRUE(CanonicalizeQuery(10, &ka).ok());
  ASSERT_TRUE(CanonicalizeQuery(10, &kb).ok());
  EXPECT_FALSE(MakeQueryCacheKey(1, ka) == MakeQueryCacheKey(1, kb));
}

TEST(FingerprintTest, StableAcrossLoadPaths) {
  GraphFiles files(RandomConnectedGraph(40, 0.1, 11));

  SessionOptions text_opts;
  text_opts.load.use_cache = false;
  std::unique_ptr<QuerySession> text_session;
  ASSERT_TRUE(
      QuerySession::Open(files.text_path, text_opts, &text_session).ok());
  EXPECT_FALSE(text_session->loaded_from_cache());

  std::unique_ptr<QuerySession> sgr_session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &sgr_session).ok());
  EXPECT_TRUE(sgr_session->loaded_from_cache());

  // Same content ⇒ same fingerprint, whether computed from the text parse
  // or read out of the `.sgr` header.
  EXPECT_NE(text_session->fingerprint(), 0u);
  EXPECT_EQ(text_session->fingerprint(), sgr_session->fingerprint());

  // Different content ⇒ different fingerprint.
  GraphFiles other(RandomConnectedGraph(40, 0.1, 12));
  std::unique_ptr<QuerySession> other_session;
  ASSERT_TRUE(
      QuerySession::Open(other.sgr_path, SessionOptions(), &other_session)
          .ok());
  EXPECT_NE(other_session->fingerprint(), sgr_session->fingerprint());
}

TEST(QuerySessionTest, LazyIndexAndErrors) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.text_path, SessionOptions(), &session).ok());
  EXPECT_FALSE(session->index_built());

  // Non-bc queries never build the index.
  QueryRequest req;
  req.estimator = EstimatorKind::kCloseness;
  req.targets = {0, 1, 2};
  QueryResult res = session->Run(req);
  ASSERT_TRUE(res.status.ok());
  EXPECT_FALSE(session->index_built());
  EXPECT_EQ(res.nodes.size(), res.estimates.size());

  // A bc query does.
  req.estimator = EstimatorKind::kBc;
  res = session->Run(req);
  ASSERT_TRUE(res.status.ok());
  EXPECT_TRUE(session->index_built());

  // Invalid requests come back as error results, not process death.
  req.targets = {1000};
  res = session->Run(req);
  EXPECT_FALSE(res.status.ok());

  // Unopenable graphs fail Open.
  std::unique_ptr<QuerySession> bad;
  EXPECT_FALSE(
      QuerySession::Open(TempPath("missing.txt"), SessionOptions(), &bad)
          .ok());
}

// Every estimator's sampler requires ε < 1, so ε outside (0, 1) must come
// back as an InvalidArgument result for all six, never reach an estimator.
TEST(QuerySessionTest, EpsilonOutsideOpenUnitIntervalIsRejected) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.text_path, SessionOptions(), &session).ok());
  for (EstimatorKind kind :
       {EstimatorKind::kBc, EstimatorKind::kBcFull, EstimatorKind::kKPath,
        EstimatorKind::kCloseness, EstimatorKind::kAbra,
        EstimatorKind::kKadabra}) {
    for (double epsilon : {0.0, 1.0, 1.5}) {
      QueryRequest req;
      req.estimator = kind;
      req.epsilon = epsilon;
      req.targets = {1, 2};
      const QueryResult res = session->Run(req);
      EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument)
          << EstimatorKindName(kind) << " at epsilon " << epsilon;
      EXPECT_EQ(res.status.message(), "epsilon must be in (0, 1)")
          << EstimatorKindName(kind) << " at epsilon " << epsilon;
    }
  }
}

TEST(BatchSchedulerTest, MemoizationAndStats) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  BatchScheduler scheduler(session.get(), SchedulerOptions());

  QueryRequest req;
  req.estimator = EstimatorKind::kBc;
  req.targets = {0, 2, 3};
  req.seed = 5;

  QueryResult first = scheduler.Run(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.mode, ServeMode::kComputed);

  // Same canonical query (targets shuffled) hits the memo with identical
  // estimate bytes.
  req.targets = {3, 0, 2};
  QueryResult second = scheduler.Run(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.mode, ServeMode::kMemoized);
  ASSERT_EQ(first.estimates.size(), second.estimates.size());
  EXPECT_EQ(std::memcmp(first.estimates.data(), second.estimates.data(),
                        first.estimates.size() * sizeof(double)),
            0);

  // A different seed is a different query.
  req.seed = 6;
  QueryResult third = scheduler.Run(req);
  EXPECT_EQ(third.mode, ServeMode::kComputed);

  // An invalid request is counted and does not pollute the memo.
  req.targets = {999};
  EXPECT_FALSE(scheduler.Run(req).status.ok());

  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.errors, 1u);
  // The one hit spared exactly the compute time of the run it copied.
  EXPECT_EQ(stats.memo_saved_seconds, first.seconds);
}

// Real queries cost wall-clock noise, so which entry the memo evicts is
// not asserted here (memo_cache_test.cc pins the order with explicit
// costs); these checks hold under any eviction order.
TEST(BatchSchedulerTest, MemoEvictsAtCapacity) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  SchedulerOptions opts;
  opts.memo_capacity = 2;
  BatchScheduler scheduler(session.get(), opts);

  QueryRequest req;
  req.estimator = EstimatorKind::kCloseness;
  req.targets = {0, 1};

  req.seed = 1;
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kComputed);
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kMemoized);  // within cap
  req.seed = 2;
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kComputed);
  EXPECT_EQ(scheduler.stats().evictions, 0u);
  req.seed = 3;
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kComputed);
  // Three distinct results through two slots: exactly one was displaced.
  EXPECT_EQ(scheduler.stats().evictions, 1u);

  // memo_capacity = 0 disables memoization entirely.
  SchedulerOptions off;
  off.memo_capacity = 0;
  BatchScheduler no_memo(session.get(), off);
  req.seed = 1;
  EXPECT_EQ(no_memo.Run(req).mode, ServeMode::kComputed);
  EXPECT_EQ(no_memo.Run(req).mode, ServeMode::kComputed);
}

TEST(BatchSchedulerTest, MemoChargesBytesNotJustEntries) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());

  QueryRequest req;
  req.estimator = EstimatorKind::kCloseness;
  req.targets = {0, 1};

  // Measure one entry's charged footprint through the stats gauge.
  BatchScheduler probe(session.get(), SchedulerOptions());
  req.seed = 1;
  ASSERT_TRUE(probe.Run(req).status.ok());
  const uint64_t entry_bytes = probe.stats().memo_bytes;
  ASSERT_GT(entry_bytes, 0u);

  // A budget of ~2.5 entries holds exactly two: the third insertion must
  // evict one even though the 64-entry cap is nowhere near.
  SchedulerOptions opts;
  opts.memo_capacity_bytes = entry_bytes * 5 / 2;
  BatchScheduler scheduler(session.get(), opts);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    req.seed = seed;
    EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kComputed);
  }
  EXPECT_EQ(scheduler.stats().evictions, 1u);
  EXPECT_EQ(scheduler.stats().memo_bytes, 2 * entry_bytes);
  EXPECT_LE(scheduler.stats().memo_bytes, opts.memo_capacity_bytes);

  // A result bigger than the whole budget is served but never cached —
  // caching it would purge the memo for a guaranteed miss.
  SchedulerOptions tiny;
  tiny.memo_capacity_bytes = entry_bytes / 2;
  BatchScheduler no_fit(session.get(), tiny);
  req.seed = 1;
  EXPECT_TRUE(no_fit.Run(req).status.ok());
  EXPECT_EQ(no_fit.Run(req).mode, ServeMode::kComputed);
  EXPECT_EQ(no_fit.stats().memo_bytes, 0u);

  // 0 = unbounded bytes (the entry cap still rules).
  SchedulerOptions unbounded;
  unbounded.memo_capacity_bytes = 0;
  BatchScheduler by_entries(session.get(), unbounded);
  req.seed = 1;
  EXPECT_EQ(by_entries.Run(req).mode, ServeMode::kComputed);
  EXPECT_EQ(by_entries.Run(req).mode, ServeMode::kMemoized);
}

TEST(BatchSchedulerTest, FullQueueStillJoinsInFlightDuplicates) {
  // Admission accounting regression: with the only slot busy and the
  // queue at max_queue, (a) a distinct query is shed, (b) a duplicate of
  // the *running* query still joins it — the header promises memo and
  // dedup hits are never shed.
  GraphFiles files(RandomConnectedGraph(120, 0.05, 21));
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  SchedulerOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  BatchScheduler scheduler(session.get(), opts);

  // The slot owner: a tight-epsilon whole-graph run with a deadline, so
  // it holds the slot for a while but always terminates (degraded).
  QueryRequest owner;
  owner.id = "owner";
  owner.estimator = EstimatorKind::kBcFull;
  owner.epsilon = 0.005;
  owner.deadline_ms = 2000;
  std::thread owner_thread([&] { scheduler.Run(owner); });
  while (scheduler.stats().computed < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // One distinct query fills the queue...
  QueryRequest queued = owner;
  queued.id = "queued";
  queued.seed = 2;
  std::thread queued_thread([&] { scheduler.Run(queued); });
  while (scheduler.stats().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // ...so the next distinct one is shed with RESOURCE_EXHAUSTED...
  QueryRequest shed = owner;
  shed.id = "shed";
  shed.seed = 3;
  const QueryResult shed_res = scheduler.Run(shed);
  EXPECT_EQ(shed_res.status.code(), StatusCode::kResourceExhausted);

  // ...but a duplicate of the in-flight owner joins it despite the full
  // queue, sharing whatever bytes the owner produces.
  QueryRequest dup = owner;
  dup.id = "owner-dup";
  const QueryResult dup_res = scheduler.Run(dup);
  EXPECT_TRUE(dup_res.status.ok()) << dup_res.status.ToString();
  EXPECT_EQ(dup_res.mode, ServeMode::kDeduped);

  owner_thread.join();
  queued_thread.join();
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(SessionPoolTest, RegisterResolveAndDefault) {
  GraphFiles a(PaperFig2Graph());
  GraphFiles b(RandomConnectedGraph(30, 0.15, 5), "graph_b.txt");

  SessionPool pool(SessionPoolOptions{});
  ASSERT_TRUE(pool.Register("a", a.sgr_path).ok());
  ASSERT_TRUE(pool.Register("b", b.sgr_path).ok());
  EXPECT_FALSE(pool.Register("a", b.sgr_path).ok());  // duplicate name
  EXPECT_FALSE(pool.Register("", a.sgr_path).ok());
  EXPECT_EQ(pool.default_name(), "a");
  EXPECT_EQ(pool.registered_count(), 2u);
  EXPECT_EQ(pool.resident_count(), 0u);  // lazy: nothing loaded yet

  // "" routes to the default graph; unknown names are NOT_FOUND.
  std::shared_ptr<QuerySession> session;
  ASSERT_TRUE(pool.Acquire("", &session).ok());
  std::shared_ptr<QuerySession> named;
  ASSERT_TRUE(pool.Acquire("a", &named).ok());
  EXPECT_EQ(session.get(), named.get());
  EXPECT_EQ(pool.Acquire("nope", &named).code(), StatusCode::kNotFound);

  // Two names for one resolved path share a single loaded session.
  ASSERT_TRUE(pool.Register("a-alias", a.sgr_path).ok());
  std::shared_ptr<QuerySession> aliased;
  ASSERT_TRUE(pool.Acquire("a-alias", &aliased).ok());
  EXPECT_EQ(aliased.get(), session.get());
  for (const SessionPoolGraphStats& g : pool.stats()) {
    if (g.name == "a" || g.name == "a-alias") {
      EXPECT_EQ(g.loads, 1u) << g.name;
      EXPECT_TRUE(g.resident) << g.name;
    }
  }
}

TEST(SessionPoolTest, FailedLoadReportsAndRetries) {
  const std::string path = TempPath("late_graph.txt");
  SessionPool pool(SessionPoolOptions{});
  ASSERT_TRUE(pool.Register("late", path).ok());

  // The file does not exist yet: the load fails with the graph name in
  // the message, and the name is not bricked.
  std::shared_ptr<QuerySession> session;
  Status st = pool.Acquire("late", &session);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("late"), std::string::npos);

  // Preload surfaces the same failure (fail-fast startup path).
  EXPECT_FALSE(pool.Preload().ok());

  // Once the file appears, the same name loads fine.
  ASSERT_TRUE(SaveSnapEdgeList(PaperFig2Graph(), path).ok());
  EXPECT_TRUE(pool.Acquire("late", &session).ok());
  EXPECT_NE(session, nullptr);
  std::remove(path.c_str());
  std::remove(SgrCachePathFor(path).c_str());
}

TEST(BatchSchedulerTest, PoolRoutingAndCrossGraphMemoIsolation) {
  GraphFiles a(PaperFig2Graph());
  GraphFiles b(RandomConnectedGraph(30, 0.15, 5), "graph_b.txt");
  SessionPool pool(SessionPoolOptions{});
  ASSERT_TRUE(pool.Register("a", a.sgr_path).ok());
  ASSERT_TRUE(pool.Register("b", b.sgr_path).ok());
  BatchScheduler scheduler(&pool, SchedulerOptions());

  // Identical statistical parameters on two different graphs: the second
  // run must compute, never hit the first graph's memo entry.
  QueryRequest req;
  req.estimator = EstimatorKind::kCloseness;
  req.targets = {0, 1, 2};
  req.graph = "a";
  QueryResult on_a = scheduler.Run(req);
  ASSERT_TRUE(on_a.status.ok());
  EXPECT_EQ(on_a.mode, ServeMode::kComputed);
  EXPECT_EQ(on_a.graph, "a");
  req.graph = "b";
  QueryResult on_b = scheduler.Run(req);
  ASSERT_TRUE(on_b.status.ok());
  EXPECT_EQ(on_b.mode, ServeMode::kComputed);
  EXPECT_EQ(on_b.graph, "b");
  EXPECT_EQ(scheduler.stats().computed, 2u);
  EXPECT_EQ(scheduler.stats().memo_hits, 0u);

  // Same graph again: now it is a memo hit.
  req.graph = "a";
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kMemoized);

  // Unknown names answer NOT_FOUND as an error result, not process death.
  req.graph = "nope";
  const QueryResult bad = scheduler.Run(req);
  EXPECT_EQ(bad.status.code(), StatusCode::kNotFound);

  // Target validation happens against the routed graph: node 50 exists in
  // neither, but the error must name the right n.
  req.graph = "b";
  req.targets = {50};
  const QueryResult oob = scheduler.Run(req);
  EXPECT_FALSE(oob.status.ok());
  EXPECT_NE(oob.status.message().find("n=30"), std::string::npos)
      << oob.status.ToString();
}

TEST(BatchSchedulerTest, SingleSessionModeRejectsGraphNames) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  BatchScheduler scheduler(session.get(), SchedulerOptions());
  QueryRequest req;
  req.graph = "other";
  req.targets = {0};
  EXPECT_EQ(scheduler.Run(req).status.code(), StatusCode::kNotFound);
  req.graph.clear();
  EXPECT_TRUE(scheduler.Run(req).status.ok());
}

TEST(BatchSchedulerTest, BatchDedupsDuplicates) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  SchedulerOptions opts;
  opts.max_concurrent = 4;
  BatchScheduler scheduler(session.get(), opts);

  QueryRequest req;
  req.estimator = EstimatorKind::kKadabra;
  req.epsilon = 0.2;
  std::vector<QueryRequest> batch(6, req);  // six identical requests
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].id = "dup" + std::to_string(i);
  }
  std::vector<QueryResult> results = scheduler.RunBatch(batch);
  ASSERT_EQ(results.size(), 6u);
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok());
    EXPECT_EQ(results[i].id, "dup" + std::to_string(i));
    ASSERT_EQ(results[0].estimates.size(), results[i].estimates.size());
    EXPECT_EQ(std::memcmp(results[0].estimates.data(),
                          results[i].estimates.data(),
                          results[0].estimates.size() * sizeof(double)),
              0);
  }
  // Exactly one execution; the other five either shared it in flight or
  // hit the memo after it completed (timing decides which).
  const SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.dedup_hits + stats.memo_hits, 5u);
}

QueryRequest UpdateReq(EdgeMutationKind kind, NodeId u, NodeId v,
                       const std::string& graph = "") {
  QueryRequest req;
  req.id = "mut";
  req.op = RequestOp::kUpdate;
  req.action = kind;
  req.edge_u = u;
  req.edge_v = v;
  req.graph = graph;
  return req;
}

bool HasEdge(const Graph& g, NodeId u, NodeId v) {
  const auto nbrs = g.neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

/// Smallest (u, v), u < v, absent from `g` — a always-valid insert.
std::pair<NodeId, NodeId> FindAbsentEdge(const Graph& g) {
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
      if (!HasEdge(g, u, v)) return {u, v};
    }
  }
  SAPHYRA_CHECK(false && "graph is complete");
  return {0, 0};
}

TEST(BatchSchedulerTest, UpdatesRequireOptIn) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  BatchScheduler scheduler(session.get(), SchedulerOptions());  // default off

  const auto [u, v] = FindAbsentEdge(session->graph());
  const QueryResult res =
      scheduler.Run(UpdateReq(EdgeMutationKind::kInsert, u, v));
  EXPECT_EQ(res.status.code(), StatusCode::kFailedPrecondition)
      << res.status.ToString();
  EXPECT_EQ(scheduler.stats().updates, 0u);
  EXPECT_EQ(session->epoch(), 0u);  // the session was never touched
}

TEST(BatchSchedulerTest, UpdateInvalidatesMemoForExactlyTheMutatedGraph) {
  GraphFiles a(PaperFig2Graph());
  GraphFiles b(RandomConnectedGraph(30, 0.15, 5), "graph_b.txt");
  SessionPool pool(SessionPoolOptions{});
  ASSERT_TRUE(pool.Register("a", a.sgr_path).ok());
  ASSERT_TRUE(pool.Register("b", b.sgr_path).ok());
  SchedulerOptions opts;
  opts.allow_updates = true;
  BatchScheduler scheduler(&pool, opts);

  QueryRequest req;
  req.estimator = EstimatorKind::kCloseness;
  req.targets = {0, 1, 2};
  req.graph = "a";
  const QueryResult pre = scheduler.Run(req);
  ASSERT_TRUE(pre.status.ok());
  req.graph = "b";
  ASSERT_TRUE(scheduler.Run(req).status.ok());
  req.graph = "a";
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kMemoized);
  req.graph = "b";
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kMemoized);

  // Mutate graph a only.
  std::shared_ptr<QuerySession> sa;
  ASSERT_TRUE(pool.Acquire("a", &sa).ok());
  const auto [u, v] = FindAbsentEdge(sa->graph());
  const QueryResult mut =
      scheduler.Run(UpdateReq(EdgeMutationKind::kInsert, u, v, "a"));
  ASSERT_TRUE(mut.status.ok()) << mut.status.ToString();
  EXPECT_EQ(mut.epoch, 1u);
  EXPECT_EQ(scheduler.stats().updates, 1u);

  // The memoized pre-update answer for a must never be served again: the
  // chained fingerprint moved, so the same canonical query recomputes.
  req.graph = "a";
  const QueryResult post = scheduler.Run(req);
  ASSERT_TRUE(post.status.ok());
  EXPECT_EQ(post.mode, ServeMode::kComputed);
  // ... while graph b, untouched, keeps serving from its memo entry.
  req.graph = "b";
  EXPECT_EQ(scheduler.Run(req).mode, ServeMode::kMemoized);
  // The post-update entry memoizes under the new fingerprint.
  req.graph = "a";
  const QueryResult again = scheduler.Run(req);
  EXPECT_EQ(again.mode, ServeMode::kMemoized);
  ASSERT_EQ(post.estimates.size(), again.estimates.size());
  EXPECT_EQ(std::memcmp(post.estimates.data(), again.estimates.data(),
                        post.estimates.size() * sizeof(double)),
            0);
}

TEST(BatchSchedulerTest, UpdateRejectionsLeaveTheEpochAlone) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  SchedulerOptions opts;
  opts.allow_updates = true;
  BatchScheduler scheduler(session.get(), opts);

  const Graph& g = session->graph();
  const NodeId n = g.num_nodes();
  const NodeId pu = 0;
  const NodeId pv = g.neighbors(0).front();  // a present edge
  const auto [au, av] = FindAbsentEdge(g);

  // Duplicate insert, delete of an absent edge, self loop, out-of-range
  // endpoint: all INVALID_ARGUMENT, none may bump the epoch.
  for (const QueryRequest& bad :
       {UpdateReq(EdgeMutationKind::kInsert, pu, pv),
        UpdateReq(EdgeMutationKind::kDelete, au, av),
        UpdateReq(EdgeMutationKind::kInsert, 3, 3),
        UpdateReq(EdgeMutationKind::kDelete, 0, n)}) {
    const QueryResult res = scheduler.Run(bad);
    EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument)
        << res.status.ToString();
  }
  EXPECT_EQ(session->epoch(), 0u);
  EXPECT_EQ(scheduler.stats().updates, 0u);
  EXPECT_EQ(scheduler.stats().errors, 4u);

  // And the same endpoints in a *valid* mutation still go through.
  const QueryResult ok =
      scheduler.Run(UpdateReq(EdgeMutationKind::kInsert, au, av));
  ASSERT_TRUE(ok.status.ok()) << ok.status.ToString();
  EXPECT_EQ(ok.epoch, 1u);
  EXPECT_EQ(session->epoch(), 1u);
}

// Each rejected ApplyUpdate keeps its code and message text, and leaves the
// session's epoch, fingerprint and query bytes as they were.
TEST(QuerySessionTest, RejectedUpdatesChangeNothing) {
  GraphFiles files(PaperFig2Graph());
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  const std::shared_ptr<const GraphSnapshot> snap = session->snapshot();
  const Graph& g = snap->graph();
  const NodeId n = g.num_nodes();
  const NodeId pv = g.neighbors(0).front();
  const auto [au, av] = FindAbsentEdge(g);
  QueryRequest query;
  query.estimator = EstimatorKind::kBc;
  query.epsilon = 0.1;
  query.seed = 3;
  query.targets = {0, 2, 3, 8};
  const QueryResult before = session->Run(query);
  ASSERT_TRUE(before.status.ok()) << before.status.ToString();

  auto edge = [](NodeId u, NodeId v) {
    return "{" + std::to_string(u) + ", " + std::to_string(v) + "}";
  };
  const std::vector<std::pair<EdgeMutation, std::string>> cases = {
      {{EdgeMutationKind::kInsert, 0, n},
       "edge endpoint out of range: " + edge(0, n) +
           " with n=" + std::to_string(n)},
      {{EdgeMutationKind::kInsert, 3, 3}, "self loop rejected: " + edge(3, 3)},
      {{EdgeMutationKind::kInsert, pv, 0},
       "duplicate edge: " + edge(pv, 0) + " already exists"},
      {{EdgeMutationKind::kDelete, au, av}, "no such edge: " + edge(au, av)},
  };
  for (const auto& [mut, message] : cases) {
    UpdateOutcome outcome;
    const Status st = session->ApplyUpdate(mut, &outcome);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << message;
    EXPECT_EQ(st.message(), message);
    EXPECT_EQ(outcome.epoch, 0u) << message;
    EXPECT_EQ(session->snapshot(), snap) << message;
    EXPECT_EQ(session->epoch(), 0u) << message;
    EXPECT_EQ(session->fingerprint(), snap->fingerprint()) << message;
    const QueryResult after = session->Run(query);
    ASSERT_TRUE(after.status.ok()) << message;
    ASSERT_EQ(after.nodes, before.nodes) << message;
    ASSERT_EQ(after.estimates.size(), before.estimates.size()) << message;
    EXPECT_EQ(std::memcmp(after.estimates.data(), before.estimates.data(),
                          before.estimates.size() * sizeof(double)),
              0)
        << message;
  }
}

/// Applies `mut` and checks the epoch it publishes: its index is already
/// built, and equals a fresh IspIndex of its CSR field for field.
void ApplyAndExpectFreshIndex(QuerySession* session, const EdgeMutation& mut,
                              const std::string& what) {
  ASSERT_TRUE(session->ApplyUpdate(mut).ok()) << what;
  const std::shared_ptr<const GraphSnapshot> next = session->snapshot();
  ASSERT_TRUE(next->index_built()) << what;
  ExpectSameIndex(next->isp(), IspIndex(next->graph()), what);
}

TEST(BatchSchedulerTest, SnapshotIsolationUnderConcurrentUpdates) {
  GraphFiles files(RandomConnectedGraph(36, 0.12, 21));

  // Pick four inserts that are all absent from the base graph and
  // pairwise distinct; applied in order they define epochs 1..4.
  std::vector<std::pair<NodeId, NodeId>> inserts;
  {
    std::unique_ptr<QuerySession> probe;
    ASSERT_TRUE(
        QuerySession::Open(files.sgr_path, SessionOptions(), &probe).ok());
    const Graph& g = probe->graph();
    for (NodeId u = 0; u < g.num_nodes() && inserts.size() < 4; ++u) {
      for (NodeId v = u + 1; v < g.num_nodes() && inserts.size() < 4; ++v) {
        if (!HasEdge(g, u, v)) inserts.push_back({u, v});
      }
    }
    ASSERT_EQ(inserts.size(), 4u);
  }

  QueryRequest query;
  query.estimator = EstimatorKind::kBc;
  query.epsilon = 0.2;
  query.seed = 3;
  query.targets = {0, 1, 2, 3, 4, 5};

  // The per-epoch reference bytes: a cold session per prefix of the
  // mutation stream, served serial and memo-free.
  std::vector<std::vector<double>> expected;
  for (size_t e = 0; e <= inserts.size(); ++e) {
    std::unique_ptr<QuerySession> session;
    ASSERT_TRUE(
        QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
    for (size_t i = 0; i < e; ++i) {
      ApplyAndExpectFreshIndex(session.get(),
                               {EdgeMutationKind::kInsert, inserts[i].first,
                                inserts[i].second},
                               "insert " + std::to_string(i));
    }
    SchedulerOptions oracle_opts;
    oracle_opts.memo_capacity = 0;
    BatchScheduler oracle(session.get(), oracle_opts);
    const QueryResult res = oracle.Run(query);
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
    expected.push_back(res.estimates);
  }

  // Interleave: 8 query threads hammer the scheduler while the main
  // thread applies the stream. Every answer must be bitwise identical to
  // one of the five epoch references — a query whose snapshot were
  // swapped out from under it mid-flight would match none of them.
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(
      QuerySession::Open(files.sgr_path, SessionOptions(), &session).ok());
  SchedulerOptions opts;
  opts.max_concurrent = 8;
  opts.memo_capacity = 16;
  opts.allow_updates = true;
  BatchScheduler scheduler(session.get(), opts);

  constexpr int kThreads = 8;
  constexpr int kIterations = 6;
  std::vector<std::vector<std::vector<double>>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&scheduler, &seen, &query, t] {
      for (int i = 0; i < kIterations; ++i) {
        QueryResult res = scheduler.Run(query);
        SAPHYRA_CHECK(res.status.ok());
        seen[t].push_back(std::move(res.estimates));
      }
    });
  }
  for (const auto& [u, v] : inserts) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const QueryResult res =
        scheduler.Run(UpdateReq(EdgeMutationKind::kInsert, u, v));
    ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  }
  for (std::thread& t : threads) t.join();

  auto matches_epoch = [&expected](const std::vector<double>& got) {
    for (const std::vector<double>& ref : expected) {
      if (ref.size() == got.size() &&
          std::memcmp(ref.data(), got.data(), ref.size() * sizeof(double)) ==
              0) {
        return true;
      }
    }
    return false;
  };
  for (int t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < seen[t].size(); ++i) {
      EXPECT_TRUE(matches_epoch(seen[t][i]))
          << "thread " << t << " iteration " << i
          << ": result matches no epoch's reference bytes";
    }
  }

  // Once the stream has fully drained, only the final epoch may answer.
  const QueryResult settled = scheduler.Run(query);
  ASSERT_TRUE(settled.status.ok());
  ASSERT_EQ(settled.estimates.size(), expected.back().size());
  EXPECT_EQ(std::memcmp(settled.estimates.data(), expected.back().data(),
                        expected.back().size() * sizeof(double)),
            0);
  EXPECT_EQ(session->epoch(), inserts.size());
}

/// `g` written as a `.sgr` with its decomposition, node ids as given (no
/// text round trip, which would compact them); removed on destruction.
struct SgrFile {
  std::string path;
  SgrFile(const Graph& g, const std::string& stem)
      : path(TempPath(stem + ".sgr")) {
    IspIndex isp(g);
    SAPHYRA_CHECK(WriteSgr(path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                           &isp.tree())
                      .ok());
  }
  ~SgrFile() { std::remove(path.c_str()); }
};

/// A bc query's estimates on `snap`'s own (possibly shared) index and on a
/// fresh index of the same graph are bitwise equal.
void ExpectServesLikeAFreshIndex(const GraphSnapshot& snap) {
  SaphyraBcOptions opts;
  opts.epsilon = 0.1;
  opts.seed = 5;
  const std::vector<NodeId> targets{0, 1, 2, 3, 5, 8, 13};
  const IspIndex fresh(snap.graph());
  EXPECT_EQ(RunSaphyraBc(snap.isp(), targets, opts).bc,
            RunSaphyraBc(fresh, targets, opts).bc);
}

// Every update derives its epoch's index from the parent's before
// publishing: a kept partition shares the partition tables, every other
// route shares what it can. Over a random stream of inserts and deletes,
// every epoch's index matches a fresh IspIndex of its CSR field for field.
TEST(QuerySessionTest, EpochReuseMatchesAFreshIndex) {
  const Graph g = testing::BaCoreWithLeaves(300, 100, 7);
  SgrFile file(g, "reuse");
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(QuerySession::Open(file.path, SessionOptions(), &session).ok());
  Rng rng(11);
  int kept = 0;
  int merged = 0;
  for (int step = 0; step < 200; ++step) {
    std::shared_ptr<const GraphSnapshot> prev = session->snapshot();
    const Graph& cur = prev->graph();
    NodeId u = static_cast<NodeId>(rng.UniformInt(cur.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformInt(cur.num_nodes()));
    EdgeMutationKind kind = EdgeMutationKind::kInsert;
    if (rng.UniformInt(2) == 0 && cur.degree(u) > 0) {
      kind = EdgeMutationKind::kDelete;
      v = cur.neighbors(u)[rng.UniformInt(cur.degree(u))];
    } else if (u == v || cur.HasEdge(u, v)) {
      continue;
    }
    const std::string what = "step " + std::to_string(step);
    ApplyAndExpectFreshIndex(session.get(), {kind, u, v}, what);
    std::shared_ptr<const GraphSnapshot> next = session->snapshot();
    if (&next->isp().tree() == &prev->isp().tree()) {
      ++kept;
    } else if (kind == EdgeMutationKind::kInsert &&
               &next->isp().conn() == &prev->isp().conn()) {
      ++merged;
    }
  }
  EXPECT_GT(kept, 50);
  EXPECT_GT(merged, 10);
}

// Leaves joined to the core, to each other and to their own hub, with
// the odd leaf cut loose and re-attached: every merge builds its epoch's
// index at publish, and every epoch matches a fresh index.
TEST(QuerySessionTest, MergeHeavyStreamMatchesAFreshIndex) {
  const NodeId core = 120;
  const Graph g = testing::BaCoreWithLeaves(core, 120, 17);
  SgrFile file(g, "merges");
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(QuerySession::Open(file.path, SessionOptions(), &session).ok());
  Rng rng(23);
  int merges = 0;
  for (int step = 0; step < 120; ++step) {
    const Graph& cur = session->snapshot()->graph();
    // A current leaf (degree 1) and a second endpoint: mostly a core
    // node, sometimes another leaf; every tenth step deletes a bridge.
    NodeId leaf = kInvalidNode;
    for (int tries = 0; tries < 50 && leaf == kInvalidNode; ++tries) {
      const NodeId x = core + static_cast<NodeId>(rng.UniformInt(120));
      if (cur.degree(x) == 1) leaf = x;
    }
    if (leaf == kInvalidNode) break;
    EdgeMutation mut{EdgeMutationKind::kInsert, leaf, kInvalidNode};
    if (step % 10 == 9) {
      mut = {EdgeMutationKind::kDelete, leaf, cur.neighbors(leaf)[0]};
    } else if (step % 3 == 2) {
      mut.v = core + static_cast<NodeId>(rng.UniformInt(120));
    } else {
      mut.v = static_cast<NodeId>(rng.UniformInt(core));
    }
    if (mut.u == mut.v || cur.HasEdge(mut.u, mut.v)) continue;
    const bool joins_component = cur.degree(mut.v) > 0;
    ApplyAndExpectFreshIndex(session.get(), mut,
                             "step " + std::to_string(step));
    if (mut.kind == EdgeMutationKind::kInsert && joins_component) ++merges;
  }
  EXPECT_GT(merges, 60);
}

// The routes that change a connected component's size or split a block:
// bridge deletes, inserts across connected components (an isolated
// endpoint among them) and deletes that split a block. Each occurs, and
// each publishes an epoch whose index is built and equals a fresh one.
TEST(QuerySessionTest, BridgeSplitAndCrossComponentUpdatesMatchAFreshIndex) {
  const NodeId core = 80;
  const Graph g = testing::BaCoreWithLeaves(core, 60, 29);
  SgrFile file(g, "routes");
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(QuerySession::Open(file.path, SessionOptions(), &session).ok());
  Rng rng(31);
  int bridge_deletes = 0;
  int cross_inserts = 0;
  int isolated_inserts = 0;
  int splits = 0;
  for (int step = 0; step < 160; ++step) {
    std::shared_ptr<const GraphSnapshot> prev = session->snapshot();
    const Graph& cur = prev->graph();
    const IspIndex& isp = prev->isp();
    const std::string what = "step " + std::to_string(step);
    const NodeId x = static_cast<NodeId>(rng.UniformInt(cur.num_nodes()));
    if (step % 2 == 0) {
      // Delete an edge of x: a bridge when x is a leaf, often a split
      // inside the core's sparse blocks.
      if (cur.degree(x) == 0) continue;
      const NodeId y = cur.neighbors(x)[rng.UniformInt(cur.degree(x))];
      const uint32_t block = isp.bcc().arc_component[
          cur.offset(x) + static_cast<EdgeIndex>(
              std::lower_bound(cur.neighbors(x).begin(),
                               cur.neighbors(x).end(), y) -
              cur.neighbors(x).begin())];
      const bool bridge = isp.bcc().component_nodes[block].size() == 2;
      ApplyAndExpectFreshIndex(session.get(),
                               {EdgeMutationKind::kDelete, x, y}, what);
      if (bridge) {
        ++bridge_deletes;
      } else if (session->snapshot()->isp().num_components() >
                 isp.num_components()) {
        ++splits;
      }
    } else {
      // Re-attach: join x to a node of another connected component.
      const NodeId y = static_cast<NodeId>(rng.UniformInt(cur.num_nodes()));
      if (x == y || isp.conn().component[x] == isp.conn().component[y]) {
        continue;
      }
      ApplyAndExpectFreshIndex(session.get(),
                               {EdgeMutationKind::kInsert, x, y}, what);
      ++cross_inserts;
      if (cur.degree(x) == 0 || cur.degree(y) == 0) ++isolated_inserts;
    }
  }
  EXPECT_GT(bridge_deletes, 5);
  EXPECT_GT(cross_inserts, 5);
  EXPECT_GT(isolated_inserts, 0);
  EXPECT_GT(splits, 0);
}

// Parent and child epochs share one set of partition tables, or one
// connectivity labeling after a merge; dropping either first leaves the
// other serving the bytes a fresh index would.
TEST(QuerySessionTest, SharedTablesOutliveEitherEpoch) {
  const Graph g = testing::BaCoreWithLeaves(200, 50, 13);
  SgrFile file(g, "lifetime");
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(QuerySession::Open(file.path, SessionOptions(), &session).ok());
  const BiconnectedComponents& bcc = session->isp().bcc();
  // A non-edge inside node 0's block keeps the partition; joining leaf
  // 201 (degree 1) to another core node merges blocks; deleting leaf
  // 200's only edge drops a bridge block.
  const auto block = bcc.component_nodes[bcc.node_component[0]];
  NodeId in_block = kInvalidNode;
  for (NodeId x : block) {
    if (x != 0 && !g.HasEdge(0, x)) in_block = x;
  }
  ASSERT_NE(in_block, kInvalidNode);
  ASSERT_EQ(g.degree(200), 1u);
  ASSERT_EQ(g.degree(201), 1u);
  const NodeId anchor = g.neighbors(200)[0];
  const NodeId other = g.neighbors(201)[0] == 1 ? 2 : 1;

  // Parent released first, after a kept partition and after a merge.
  std::shared_ptr<const GraphSnapshot> parent = session->snapshot();
  ASSERT_TRUE(
      session->ApplyUpdate({EdgeMutationKind::kInsert, 0, in_block}).ok());
  std::shared_ptr<const GraphSnapshot> child = session->snapshot();
  ASSERT_TRUE(child->index_built());
  ExpectSameIndex(child->isp(), IspIndex(child->graph()), "kept insert");
  ASSERT_EQ(&child->isp().tree(), &parent->isp().tree());
  parent.reset();
  ExpectServesLikeAFreshIndex(*child);
  parent = std::move(child);
  ASSERT_TRUE(
      session->ApplyUpdate({EdgeMutationKind::kInsert, 201, other}).ok());
  child = session->snapshot();
  ASSERT_TRUE(child->index_built());
  ExpectSameIndex(child->isp(), IspIndex(child->graph()), "merge");
  ASSERT_EQ(&child->isp().conn(), &parent->isp().conn());
  parent.reset();
  ExpectServesLikeAFreshIndex(*child);

  // Child released first: the pinned epoch's kept-partition child is
  // replaced as the current epoch by a bridge delete, whose epoch derives
  // new connectivity and drops the shared tables' last user but one.
  parent = std::move(child);
  ASSERT_TRUE(
      session->ApplyUpdate({EdgeMutationKind::kDelete, 0, in_block}).ok());
  ASSERT_TRUE(session->snapshot()->index_built());
  ExpectSameIndex(session->snapshot()->isp(),
                  IspIndex(session->snapshot()->graph()), "kept delete");
  ASSERT_EQ(&session->snapshot()->isp().tree(), &parent->isp().tree());
  ASSERT_TRUE(
      session->ApplyUpdate({EdgeMutationKind::kDelete, 200, anchor}).ok());
  ASSERT_TRUE(session->snapshot()->index_built());
  ExpectSameIndex(session->snapshot()->isp(),
                  IspIndex(session->snapshot()->graph()), "bridge delete");
  EXPECT_NE(&session->snapshot()->isp().conn(), &parent->isp().conn());
  ExpectServesLikeAFreshIndex(*parent);
  ExpectServesLikeAFreshIndex(*session->snapshot());
}

// Node 0 is the smallest member of the bridge {0,2} and of the cycle
// 0-3-1-4-0; the chord 0-1 keeps the members but swaps the two blocks'
// canonical ids: the index is derived at publish all the same.
TEST(QuerySessionTest, InsertThatReordersBlockIdsSplicesTheIndex) {
  const Graph g =
      testing::MakeGraph(5, {{0, 2}, {0, 3}, {3, 1}, {1, 4}, {4, 0}});
  SgrFile file(g, "reorder");
  std::unique_ptr<QuerySession> session;
  ASSERT_TRUE(QuerySession::Open(file.path, SessionOptions(), &session).ok());
  session->isp();
  UpdateOutcome outcome;
  ASSERT_TRUE(
      session->ApplyUpdate({EdgeMutationKind::kInsert, 0, 1}, &outcome).ok());
  EXPECT_TRUE(session->snapshot()->index_built());
  EXPECT_GT(outcome.repair_dirty_arcs, 0u);
  EXPECT_FALSE(outcome.repair_fell_back);
  ExpectSameIndex(session->snapshot()->isp(),
                  IspIndex(session->snapshot()->graph()), "chord 0-1");
}

TEST(SerializeQueryResultTest, Shapes) {
  QueryResult res;
  res.id = "q\"1";
  res.estimator = EstimatorKind::kKPath;
  res.mode = ServeMode::kMemoized;
  res.samples_used = 77;
  res.seconds = 0.25;
  res.nodes = {4, 9};
  res.estimates = {0.5, 1.0 / 3.0};
  const std::string line = SerializeQueryResult(res);
  EXPECT_EQ(line,
            "{\"id\":\"q\\\"1\",\"ok\":true,\"estimator\":\"kpath\","
            "\"served\":\"memo\",\"samples\":77,\"seconds\":0.25,"
            "\"nodes\":[4,9],\"estimates\":[0.5," +
                JsonNumber(1.0 / 3.0) + "]}");

  // The graph name is echoed right after the id — but only when the
  // request routed by name, so single-graph lines keep their old shape.
  res.graph = "road";
  EXPECT_EQ(SerializeQueryResult(res),
            "{\"id\":\"q\\\"1\",\"graph\":\"road\",\"ok\":true,"
            "\"estimator\":\"kpath\",\"served\":\"memo\",\"samples\":77,"
            "\"seconds\":0.25,\"nodes\":[4,9],\"estimates\":[0.5," +
                JsonNumber(1.0 / 3.0) + "]}");
  res.graph.clear();

  QueryResult err;
  err.id = "bad";
  err.status = Status::InvalidArgument("nope");
  EXPECT_EQ(SerializeQueryResult(err),
            "{\"id\":\"bad\",\"ok\":false,\"code\":\"INVALID_ARGUMENT\","
            "\"error\":\"InvalidArgument: nope\"}");

  QueryResult deg;
  deg.id = "slow";
  deg.estimator = EstimatorKind::kBcFull;
  deg.samples_used = 128;
  deg.seconds = 0.05;
  deg.degraded = true;
  deg.epsilon_achieved = 0.125;
  deg.nodes = {0};
  deg.estimates = {0.25};
  EXPECT_EQ(SerializeQueryResult(deg),
            "{\"id\":\"slow\",\"ok\":true,\"estimator\":\"bc-full\","
            "\"served\":\"computed\",\"samples\":128,\"seconds\":0.05,"
            "\"degraded\":true,\"degrade_reason\":\"deadline\","
            "\"epsilon_achieved\":0.125,"
            "\"nodes\":[0],\"estimates\":[0.25]}");

  // A lost worker tier degrades with its own reason on the wire.
  deg.degrade_reason = StatusCode::kUnavailable;
  EXPECT_NE(SerializeQueryResult(deg).find("\"degrade_reason\":\"shard_lost\""),
            std::string::npos);
  // So does a malformed wave delta.
  deg.degrade_reason = StatusCode::kInternal;
  EXPECT_NE(SerializeQueryResult(deg).find("\"degrade_reason\":\"internal\""),
            std::string::npos);
  deg.degrade_reason = StatusCode::kDeadlineExceeded;

  // Truncation before any variance estimate: the achieved bound is
  // infinite, which JSON spells null.
  deg.epsilon_achieved = std::numeric_limits<double>::infinity();
  EXPECT_NE(SerializeQueryResult(deg).find("\"epsilon_achieved\":null"),
            std::string::npos);
}

}  // namespace
}  // namespace saphyra
