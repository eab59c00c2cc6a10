// Tests of the pooled SampleEngine's determinism contract: for a fixed
// (base RNG, num_workers), results are bitwise identical no matter which
// thread pool executes the logical workers — across pool sizes, across
// runs, against inline execution, and across any split of the stripes
// over DrawStripes calls and engines.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/sample_engine.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace saphyra {
namespace {

/// Clonable problem whose sample stream is a pure function of the RNG:
/// each sample hits exactly one of k hypotheses.
class CountingProblem : public HypothesisRankingProblem {
 public:
  explicit CountingProblem(size_t k) : k_(k) {}
  size_t num_hypotheses() const override { return k_; }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(k_, 0.0);
    return 0.0;
  }
  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    hits->push_back(static_cast<uint32_t>(rng->UniformInt(k_)));
  }
  double VcDimension() const override { return 1.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<CountingProblem>(k_);
  }

 private:
  size_t k_;
};

/// Weighted-loss counterpart: every sample credits each hypothesis a
/// fractional loss, so deltas carry the fixed-point moment arrays.
class FractionalProblem : public HypothesisRankingProblem {
 public:
  explicit FractionalProblem(size_t k) : k_(k) {}
  size_t num_hypotheses() const override { return k_; }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(k_, 0.0);
    return 0.0;
  }
  bool has_weighted_losses() const override { return true; }
  void SampleApproxLosses(Rng*, std::vector<uint32_t>*) override {
    FAIL() << "weighted problem must be sampled through the weighted hook";
  }
  void SampleWeightedLosses(Rng* rng,
                            std::vector<WeightedHit>* hits) override {
    for (size_t i = 0; i < k_; ++i) {
      hits->push_back({static_cast<uint32_t>(i),
                       rng->UniformDouble() / static_cast<double>(i + 1)});
    }
  }
  double VcDimension() const override { return 1.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<FractionalProblem>(k_);
  }

 private:
  size_t k_;
};

std::vector<uint64_t> RunDraws(uint32_t num_workers, ThreadPool* pool,
                               uint64_t seed) {
  CountingProblem problem(8);
  Rng rng(seed);
  SampleEngine engine(&problem, num_workers, &rng, pool);
  // Several rounds with awkward quotas (not divisible by the worker count).
  uint64_t n = 0;
  for (uint64_t target : {37u, 138u, 979u, 2025u}) {
    n = engine.DrawAccumulate(n, target);
    EXPECT_EQ(n, target);
  }
  SampleStats stats;
  engine.SnapshotStats(n, &stats);
  return stats.counts;
}

TEST(SampleEngine, CountsEveryRequestedSample) {
  ThreadPool pool(3);
  auto counts = RunDraws(4, &pool, 1);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(total, 2025u);  // every sample hits exactly one hypothesis
}

TEST(SampleEngine, DeterministicAcrossRuns) {
  ThreadPool pool(4);
  EXPECT_EQ(RunDraws(4, &pool, 7), RunDraws(4, &pool, 7));
}

TEST(SampleEngine, ResultIndependentOfPoolSize) {
  // The same 4 logical workers scheduled on 1, 2, or 8 pool threads — or
  // inline with no pool at all — must produce identical counts: quotas and
  // RNG streams belong to the logical workers, not the executing threads.
  ThreadPool pool1(1), pool2(2), pool8(8);
  auto inline_counts = RunDraws(4, nullptr, 13);
  EXPECT_EQ(RunDraws(4, &pool1, 13), inline_counts);
  EXPECT_EQ(RunDraws(4, &pool2, 13), inline_counts);
  EXPECT_EQ(RunDraws(4, &pool8, 13), inline_counts);
  EXPECT_EQ(RunDraws(4, &SharedThreadPool(), 13), inline_counts);
}

TEST(SampleEngine, WorkerCountChangesTheStream) {
  // Different worker counts partition the RNG streams differently; the
  // totals still match but the per-run stream is a different draw.
  ThreadPool pool(4);
  auto one = RunDraws(1, &pool, 3);
  auto four = RunDraws(4, &pool, 3);
  uint64_t t1 = 0, t4 = 0;
  for (uint64_t c : one) t1 += c;
  for (uint64_t c : four) t4 += c;
  EXPECT_EQ(t1, t4);
}

TEST(SampleEngine, NonClonableDegradesToOneWorker) {
  class NonClonable : public HypothesisRankingProblem {
   public:
    size_t num_hypotheses() const override { return 2; }
    double ComputeExactRisks(std::vector<double>* e) override {
      e->assign(2, 0.0);
      return 0.0;
    }
    void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
      if (rng->Bernoulli(0.5)) hits->push_back(0);
    }
    double VcDimension() const override { return 1.0; }
  };
  NonClonable p;
  Rng rng(5);
  SampleEngine engine(&p, 8, &rng, &SharedThreadPool());
  EXPECT_EQ(engine.num_workers(), 1u);
  EXPECT_EQ(engine.DrawAccumulate(0, 100), 100u);
}

TEST(SampleEngine, ZeroNeedIsANoop) {
  CountingProblem p(4);
  Rng rng(9);
  SampleEngine engine(&p, 2, &rng, nullptr);
  EXPECT_EQ(engine.DrawAccumulate(50, 50), 50u);
  SampleStats stats;
  engine.SnapshotStats(50, &stats);
  for (uint64_t c : stats.counts) EXPECT_EQ(c, 0u);
}

/// Draws stripe 0 of the wave on the calling engine, as the sharded
/// coordinator does with its own share, then fails the wave.
class FailingPartlyLocalExecutor : public WaveExecutor {
 public:
  Status ExecuteWave(uint64_t, uint64_t, size_t, RawSampleDelta*) override {
    return Status::Internal("called without the engine");
  }
  Status ExecuteWaveOn(SampleEngine* engine, uint64_t current,
                       uint64_t target, size_t num_stripes,
                       RawSampleDelta*) override {
    ++calls;
    RawSampleDelta partial;
    EXPECT_TRUE(
        engine->DrawStripes({0}, current, target, nullptr, &partial).ok());
    return Status::Unavailable("tier lost");
  }
  int calls = 0;
};

TEST(SampleEngine, FailedDelegatedWaveRefusesLaterWaves) {
  CountingProblem p(4);
  Rng rng(3);
  SampleEngine engine(&p, 2, &rng, nullptr);
  FailingPartlyLocalExecutor executor;
  engine.set_wave_executor(&executor);
  EXPECT_EQ(engine.DrawAccumulate(0, 100), 0u);
  EXPECT_EQ(engine.last_wave_status().code(), StatusCode::kUnavailable);

  // Stripe 0's stream has moved past samples nobody merged: no later
  // wave, delegated or local, may run on this engine.
  EXPECT_EQ(engine.DrawAccumulate(0, 100), 0u);
  engine.set_wave_executor(nullptr);
  EXPECT_EQ(engine.DrawAccumulate(0, 100), 0u);
  EXPECT_EQ(engine.last_wave_status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(executor.calls, 1);
  SampleStats stats;
  engine.SnapshotStats(0, &stats);
  for (uint64_t c : stats.counts) EXPECT_EQ(c, 0u);
}

/// Returns a fixed delta for every wave.
class FixedDeltaExecutor : public WaveExecutor {
 public:
  explicit FixedDeltaExecutor(RawSampleDelta delta) : delta_(delta) {}
  Status ExecuteWave(uint64_t, uint64_t, size_t,
                     RawSampleDelta* out) override {
    ++calls;
    *out = delta_;
    return Status::OK();
  }
  int calls = 0;

 private:
  RawSampleDelta delta_;
};

TEST(SampleEngine, WrongShapeDeltaIsInternalAndLatches) {
  CountingProblem p(4);
  Rng rng(3);
  SampleEngine engine(&p, 2, &rng, nullptr);
  FixedDeltaExecutor good({{1, 2, 3, 4}, {}, {}});
  engine.set_wave_executor(&good);
  EXPECT_EQ(engine.DrawAccumulate(0, 10), 10u);

  // One hypothesis too many, then fixed-point arrays on a 0/1 problem.
  for (const RawSampleDelta& bad :
       {RawSampleDelta{{1, 2, 3, 4, 5}, {}, {}},
        RawSampleDelta{{1, 2, 3, 4}, {1, 1, 1, 1}, {}}}) {
    CountingProblem q(4);
    Rng r(3);
    SampleEngine fresh(&q, 2, &r, nullptr);
    FixedDeltaExecutor wrong(bad);
    fresh.set_wave_executor(&wrong);
    EXPECT_EQ(fresh.DrawAccumulate(0, 10), 0u);
    EXPECT_EQ(fresh.last_wave_status().code(), StatusCode::kInternal);
    // The failure latches: a well-formed executor is never consulted.
    fresh.set_wave_executor(&good);
    EXPECT_EQ(fresh.DrawAccumulate(0, 10), 0u);
    EXPECT_EQ(fresh.last_wave_status().code(), StatusCode::kInternal);
    SampleStats stats;
    fresh.SnapshotStats(0, &stats);
    EXPECT_EQ(stats.counts, std::vector<uint64_t>(4, 0));
  }
  EXPECT_EQ(good.calls, 1);
}

/// The 32.32 fixed-point moment of a delta, as SnapshotStats reports it.
std::vector<double> FromFixed(const std::vector<uint64_t>& fp) {
  std::vector<double> out;
  for (uint64_t v : fp) out.push_back(static_cast<double>(v) / 4294967296.0);
  return out;
}

/// Two engines from one seed share the stripes of every wave: even/odd
/// for the first half of the run, swapped after, so each must advance
/// past samples the other drew. Their summed deltas must equal one
/// engine's DrawAccumulate bitwise.
void ExpectSplitMatchesOneEngine(HypothesisRankingProblem* a,
                                 HypothesisRankingProblem* b,
                                 HypothesisRankingProblem* whole,
                                 ThreadPool* pool) {
  constexpr uint32_t kStripes = 16;
  constexpr uint64_t kSeed = 41;
  Rng ra(kSeed), rb(kSeed), rw(kSeed);
  SampleEngine ea(a, kStripes, &ra, pool);
  SampleEngine eb(b, kStripes, &rb, nullptr);
  SampleEngine ew(whole, kStripes, &rw, pool);
  std::vector<uint32_t> even, odd;
  for (uint32_t s = 0; s < kStripes; ++s) {
    (s % 2 == 0 ? even : odd).push_back(s);
  }

  RawSampleDelta sum;
  uint64_t n = 0;
  const std::vector<uint64_t> targets = {5, 37, 138, 979, 1500, 2025};
  for (size_t i = 0; i < targets.size(); ++i) {
    const bool swapped = i >= targets.size() / 2;
    ASSERT_TRUE(
        ea.DrawStripes(swapped ? odd : even, n, targets[i], nullptr, &sum)
            .ok());
    ASSERT_TRUE(
        eb.DrawStripes(swapped ? even : odd, n, targets[i], nullptr, &sum)
            .ok());
    ASSERT_EQ(ew.DrawAccumulate(n, targets[i]), targets[i]);
    n = targets[i];
  }
  SampleStats stats;
  ew.SnapshotStats(n, &stats);
  EXPECT_EQ(sum.counts, stats.counts);
  if (stats.weighted) {
    EXPECT_EQ(FromFixed(sum.fp_sums), stats.sums);
    EXPECT_EQ(FromFixed(sum.fp_sum_squares), stats.sum_squares);
  } else {
    EXPECT_TRUE(sum.fp_sums.empty());
  }
}

TEST(SampleEngineStripes, SplitAcrossEnginesSumsToOneEngine) {
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CountingProblem a(8), b(8), whole(8);
    ExpectSplitMatchesOneEngine(&a, &b, &whole, p);
    FractionalProblem fa(5), fb(5), fwhole(5);
    ExpectSplitMatchesOneEngine(&fa, &fb, &fwhole, p);
  }
}

TEST(SampleEngineStripes, StripePastFromIsRefusedBeforeAnythingIsDrawn) {
  FractionalProblem p(3), q(3);
  Rng rp(5), rq(5);
  SampleEngine engine(&p, 4, &rp, nullptr);
  SampleEngine reference(&q, 4, &rq, nullptr);

  RawSampleDelta out;
  ASSERT_TRUE(engine.DrawStripes({0}, 0, 100, nullptr, &out).ok());
  const RawSampleDelta before = out;
  // Stripe 1 could be drawn, but stripe 0 is already past sample 50: the
  // call is refused whole, leaving stripe 1's stream where it was.
  EXPECT_EQ(engine.DrawStripes({1, 0}, 50, 150, nullptr, &out).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(out.counts, before.counts);
  EXPECT_EQ(out.fp_sums, before.fp_sums);
  EXPECT_EQ(out.fp_sum_squares, before.fp_sum_squares);
  EXPECT_EQ(engine.DrawStripes({1, 1}, 100, 150, nullptr, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.DrawStripes({4}, 100, 150, nullptr, &out).code(),
            StatusCode::kInvalidArgument);

  // The next valid call is still bitwise equal to an untouched engine.
  RawSampleDelta got, expected, discard;
  ASSERT_TRUE(engine.DrawStripes({0, 1, 2, 3}, 100, 200, nullptr, &got).ok());
  ASSERT_TRUE(
      reference.DrawStripes({0, 1, 2, 3}, 0, 100, nullptr, &discard).ok());
  ASSERT_TRUE(
      reference.DrawStripes({0, 1, 2, 3}, 100, 200, nullptr, &expected).ok());
  EXPECT_EQ(got.counts, expected.counts);
  EXPECT_EQ(got.fp_sums, expected.fp_sums);
  EXPECT_EQ(got.fp_sum_squares, expected.fp_sum_squares);
}

TEST(SampleEngineStripes, ExpiredTokenLeavesOutUntouched) {
  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    CountingProblem problem(4);
    Rng rng(8);
    SampleEngine engine(&problem, 4, &rng, p);
    RawSampleDelta out;
    ASSERT_TRUE(engine.DrawStripes({0, 1, 2, 3}, 0, 40, nullptr, &out).ok());
    const std::vector<uint64_t> before = out.counts;

    CancelToken cancelled;
    cancelled.Cancel();
    EXPECT_EQ(engine.DrawStripes({0, 1}, 40, 80, &cancelled, &out).code(),
              StatusCode::kCancelled);
    EXPECT_EQ(out.counts, before);

    CancelToken expired(Deadline::AfterMillis(0));
    EXPECT_EQ(engine.DrawStripes({2, 3}, 40, 80, &expired, &out).code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(out.counts, before);

    // The token fires on its third poll: two stripes were drawn, and
    // their samples are discarded with the rest.
    CancelToken third;
    third.CancelAfterPolls(3);
    EXPECT_EQ(engine.DrawStripes({0, 1, 2, 3}, 80, 120, &third, &out).code(),
              StatusCode::kCancelled);
    EXPECT_EQ(out.counts, before);
  }
}

}  // namespace
}  // namespace saphyra
