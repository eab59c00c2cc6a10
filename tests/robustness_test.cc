// Robustness suite: deterministic deadline truncation at the estimator
// level, the scheduler's failure paths (shutdown cancel, drain deadline,
// admission shed), and — in -DSAPHYRA_FAILPOINTS=ON builds — injected
// faults across the serving stack (estimator throw mid-wave, index-build
// failure, admission failure, deadline-degraded runs). The tests assert
// the contract of DESIGN.md's "Degradation contract": truncation is
// deterministic, errors are structured, and degraded or failed runs never
// poison the memo.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "test_util.h"
#include "util/cancel.h"
#include "util/failpoint.h"

namespace saphyra {
namespace {

using testing::RandomConnectedGraph;

std::string TempPath(const std::string& stem) {
  return "/tmp/saphyra_robustness_test_" + std::to_string(::getpid()) + "_" +
         stem;
}

/// A text graph file + its full `.sgr` cache, removed on destruction.
struct GraphFiles {
  std::string text_path = TempPath("graph.txt");
  std::string sgr_path;

  explicit GraphFiles(const Graph& g) {
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

std::unique_ptr<QuerySession> OpenSession(const GraphFiles& files) {
  std::unique_ptr<QuerySession> session;
  SAPHYRA_CHECK(QuerySession::Open(files.text_path, {}, &session).ok());
  return session;
}

QueryRequest BcQuery(const std::string& id, std::vector<NodeId> targets) {
  QueryRequest req;
  req.id = id;
  req.estimator = EstimatorKind::kBc;
  req.targets = std::move(targets);
  return req;
}

/// Spin until `pred()` holds (scheduler counters are the only signal the
/// orchestration tests have); dies loudly instead of hanging forever.
template <typename Pred>
void AwaitOrDie(Pred pred, const char* what) {
  for (int i = 0; i < 20000; ++i) {
    if (pred()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "timed out waiting for " << what;
}

// ---------------------------------------------------------------------------
// Deterministic truncation at the estimator level (tier-1, no failpoints).
// ---------------------------------------------------------------------------

TEST(DegradedDeterminismTest, SaphyraBcTruncationIsBitwiseReproducible) {
  Graph g = RandomConnectedGraph(200, 0.02, 11);
  IspIndex isp(g);
  const std::vector<NodeId> targets{3, 5, 7, 9};

  SaphyraBcOptions opts;
  opts.epsilon = 0.02;
  opts.delta = 0.1;
  opts.seed = 42;
  SaphyraBcResult full = RunSaphyraBc(isp, targets, opts);
  ASSERT_FALSE(full.degraded);

  auto truncated = [&](uint64_t polls) {
    CancelToken token;  // fresh per run: the budget is consumed
    token.CancelAfterPolls(polls);
    SaphyraBcOptions o = opts;
    o.cancel = &token;
    return RunSaphyraBc(isp, targets, o);
  };

  SaphyraBcResult a = truncated(4);
  SaphyraBcResult b = truncated(4);
  EXPECT_TRUE(a.degraded);
  EXPECT_EQ(a.degrade_reason, StatusCode::kCancelled);
  // Same seed + same truncation point => identical bytes, the property
  // that makes deadline-degraded serving debuggable at all.
  EXPECT_EQ(a.bc, b.bc);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.epsilon_achieved, b.epsilon_achieved);
  // Truncation only ever shortens the deterministic sample sequence.
  EXPECT_LE(a.samples_used, full.samples_used);
  SaphyraBcResult c = truncated(6);
  EXPECT_GE(c.samples_used, a.samples_used);
}

TEST(DegradedDeterminismTest, KadabraTruncationIsBitwiseReproducible) {
  Graph g = RandomConnectedGraph(150, 0.03, 7);

  KadabraOptions opts;
  opts.epsilon = 0.03;
  opts.delta = 0.1;
  opts.seed = 9;
  KadabraResult full = RunKadabra(g, opts);
  ASSERT_FALSE(full.degraded);

  auto truncated = [&] {
    CancelToken token;
    token.CancelAfterPolls(3);
    KadabraOptions o = opts;
    o.cancel = &token;
    return RunKadabra(g, o);
  };
  KadabraResult a = truncated();
  KadabraResult b = truncated();
  EXPECT_TRUE(a.degraded);
  EXPECT_EQ(a.degrade_reason, StatusCode::kCancelled);
  EXPECT_EQ(a.bc, b.bc);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.epsilon_achieved, b.epsilon_achieved);
  EXPECT_LE(a.samples_used, full.samples_used);
}

// ---------------------------------------------------------------------------
// Scheduler shutdown paths (tier-1: driven by the server token alone).
// ---------------------------------------------------------------------------

TEST(SchedulerShutdownTest, CancelledServerAnswersCancelled) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  CancelToken server;
  server.Cancel();
  SchedulerOptions opts;
  opts.server_cancel = &server;
  BatchScheduler sched(session.get(), opts);

  QueryResult res = sched.Run(BcQuery("q1", {1, 2}));
  EXPECT_EQ(res.status.code(), StatusCode::kCancelled);
  EXPECT_NE(res.status.message().find("queued query q1"), std::string::npos);
  const std::string line = SerializeQueryResult(res);
  EXPECT_NE(line.find("\"code\":\"CANCELLED\""), std::string::npos);

  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.computed, 0u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.cancelled, 1u);
}

TEST(SchedulerShutdownTest, ExpiredDrainDeadlineAnswersDeadlineExceeded) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  CancelToken server;
  server.TightenDeadline(Deadline::AfterMillis(0));  // drain window over
  SchedulerOptions opts;
  opts.server_cancel = &server;
  BatchScheduler sched(session.get(), opts);

  QueryResult res = sched.Run(BcQuery("q1", {1}));
  EXPECT_EQ(res.status.code(), StatusCode::kDeadlineExceeded);
  const std::string line = SerializeQueryResult(res);
  EXPECT_NE(line.find("\"code\":\"DEADLINE_EXCEEDED\""), std::string::npos);

  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.cancelled, 0u);  // deadline, not hard cancel
  EXPECT_EQ(stats.computed, 0u);
}

// ---------------------------------------------------------------------------
// Injected faults (only in -DSAPHYRA_FAILPOINTS=ON builds; the CI
// fault-injection job runs these).
// ---------------------------------------------------------------------------

class SchedulerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fail::kBuiltWithFailpoints) {
      GTEST_SKIP() << "build has no failpoint registry";
    }
    fail::ClearAll();
  }
  void TearDown() override {
    if (fail::kBuiltWithFailpoints) fail::ClearAll();
  }
};

TEST_F(SchedulerFaultTest, AdmissionFaultIsStructuredError) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  BatchScheduler sched(session.get(), {});

  ASSERT_TRUE(fail::Inject("scheduler.admit", "1*error(admission down)"));
  QueryResult res = sched.Run(BcQuery("q1", {1}));
  EXPECT_EQ(res.status.code(), StatusCode::kInternal);
  EXPECT_NE(res.status.message().find("injected fault"), std::string::npos);
  EXPECT_EQ(sched.stats().errors, 1u);

  // The failpoint disarmed itself; the scheduler carries no residue.
  QueryResult ok = sched.Run(BcQuery("q2", {1}));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(ok.mode, ServeMode::kComputed);
}

TEST_F(SchedulerFaultTest, IndexBuildFaultSurfacesAndRetries) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  BatchScheduler sched(session.get(), {});

  ASSERT_TRUE(fail::Inject("session.index", "1*throw(index build died)"));
  QueryResult res = sched.Run(BcQuery("q1", {1, 2}));
  EXPECT_EQ(res.status.code(), StatusCode::kInternal);
  EXPECT_NE(res.status.message().find("query execution failed"),
            std::string::npos);
  EXPECT_NE(res.status.message().find("index build died"), std::string::npos);
  EXPECT_FALSE(session->index_built());

  // std::call_once does not latch on an exception: the next bc query
  // rebuilds the index and succeeds.
  QueryResult ok = sched.Run(BcQuery("q2", {1, 2}));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_TRUE(session->index_built());
}

TEST_F(SchedulerFaultTest, WaveThrowCompletesEntryAndReleasesWaiters) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  session->isp();  // pre-build: this test is about the sampling wave
  SchedulerOptions opts;
  opts.max_concurrent = 1;
  BatchScheduler sched(session.get(), opts);

  // Park the owner in long waves, attach a duplicate waiter, then swap
  // the site's action to a throw: the owner's next wave dies mid-run.
  ASSERT_TRUE(fail::Inject("sampler.wave", "sleep(200)"));
  const QueryRequest query = BcQuery("owner", {1, 2, 3});
  QueryResult owner_res;
  std::thread owner([&] { owner_res = sched.Run(query); });
  AwaitOrDie([&] { return sched.stats().computed >= 1; }, "owner slot");

  QueryRequest dup = query;
  dup.id = "dup";
  QueryResult dup_res;
  std::thread waiter([&] { dup_res = sched.Run(dup); });
  AwaitOrDie([&] { return sched.stats().dedup_hits >= 1; }, "dup waiter");

  ASSERT_TRUE(fail::Inject("sampler.wave", "1*throw(mid-wave fault)"));
  owner.join();
  waiter.join();

  // The owner completed the in-flight entry with the structured error and
  // the duplicate was released with the same status — no wedged waiter.
  EXPECT_EQ(owner_res.status.code(), StatusCode::kInternal);
  EXPECT_NE(owner_res.status.message().find("query execution failed"),
            std::string::npos);
  EXPECT_NE(owner_res.status.message().find("mid-wave fault"),
            std::string::npos);
  EXPECT_EQ(dup_res.status.code(), StatusCode::kInternal);
  EXPECT_EQ(dup_res.id, "dup");
  EXPECT_EQ(dup_res.mode, ServeMode::kDeduped);

  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.errors, 1u);  // the owner; the waiter shares its result
  EXPECT_EQ(stats.memo_hits, 0u);

  // The failed run was not memoized: the same key now recomputes cleanly.
  fail::ClearAll();
  QueryResult retry = sched.Run(query);
  EXPECT_TRUE(retry.status.ok());
  EXPECT_EQ(retry.mode, ServeMode::kComputed);
  EXPECT_EQ(sched.stats().computed, 2u);
  EXPECT_EQ(sched.stats().memo_hits, 0u);
}

TEST_F(SchedulerFaultTest, FullQueueShedsWithResourceExhausted) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  session->isp();
  SchedulerOptions opts;
  opts.max_concurrent = 1;
  opts.max_queue = 1;
  BatchScheduler sched(session.get(), opts);

  // Owner holds the only slot inside slow waves; one distinct query queues
  // behind it (waiting = max_queue); the third is shed immediately.
  ASSERT_TRUE(fail::Inject("sampler.wave", "sleep(150)"));
  QueryResult r1, r2;
  std::thread owner([&] { r1 = sched.Run(BcQuery("q1", {1})); });
  AwaitOrDie([&] { return sched.stats().computed >= 1; }, "owner slot");
  std::thread queued([&] { r2 = sched.Run(BcQuery("q2", {2})); });
  AwaitOrDie([&] { return sched.stats().queries >= 2; }, "queued owner");

  QueryResult shed = sched.Run(BcQuery("q3", {3}));
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status.message().find("admission queue full (max_queue=1)"),
            std::string::npos);
  EXPECT_NE(SerializeQueryResult(shed).find("\"code\":\"RESOURCE_EXHAUSTED\""),
            std::string::npos);

  fail::ClearAll();  // let the parked queries finish quickly
  owner.join();
  queued.join();
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.errors, 1u);
}

TEST_F(SchedulerFaultTest, DeadlineDegradedResultIsNeverMemoized) {
  GraphFiles files(RandomConnectedGraph(60, 0.05, 5));
  auto session = OpenSession(files);
  BatchScheduler sched(session.get(), {});

  // Every wave sleeps well past the 1 ms budget, so the run is guaranteed
  // to truncate — deterministically degraded, whatever the machine.
  ASSERT_TRUE(fail::Inject("sampler.wave", "sleep(30)"));
  QueryRequest req = BcQuery("q1", {1, 2, 3});
  req.deadline_ms = 1;

  QueryResult first = sched.Run(req);
  ASSERT_TRUE(first.status.ok());
  EXPECT_TRUE(first.degraded);
  EXPECT_EQ(first.mode, ServeMode::kComputed);
  EXPECT_NE(SerializeQueryResult(first).find("\"degraded\":true"),
            std::string::npos);

  // A degraded result must not satisfy the next identical request from
  // the memo: its bytes depend on where the clock cut the run.
  QueryResult second = sched.Run(req);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.degraded);
  EXPECT_EQ(second.mode, ServeMode::kComputed);
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.memo_hits, 0u);
  EXPECT_EQ(stats.computed, 2u);
  EXPECT_EQ(stats.degraded, 2u);
  EXPECT_EQ(stats.errors, 0u);  // degraded is a success mode, not an error
}

}  // namespace
}  // namespace saphyra
