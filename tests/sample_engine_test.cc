// Tests of the pooled SampleEngine's determinism contract: for a fixed
// (base RNG, num_workers), results are bitwise identical no matter which
// thread pool executes the logical workers — across pool sizes, across
// runs, and against inline execution.

#include <memory>

#include <gtest/gtest.h>

#include "core/sample_engine.h"
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

std::vector<uint64_t> RunDraws(uint32_t num_workers, ThreadPool* pool,
                               uint64_t seed) {
  CountingProblem problem(8);
  Rng rng(seed);
  SampleEngine engine(&problem, num_workers, &rng, pool);
  std::vector<uint64_t> counts(8, 0);
  // Several rounds with awkward quotas (not divisible by the worker count).
  uint64_t n = 0;
  for (uint64_t target : {37u, 138u, 979u, 2025u}) {
    n = engine.Draw(n, target, &counts);
    EXPECT_EQ(n, target);
  }
  return counts;
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
  std::vector<uint64_t> counts(2, 0);
  EXPECT_EQ(engine.Draw(0, 100, &counts), 100u);
}

TEST(SampleEngine, ZeroNeedIsANoop) {
  CountingProblem p(4);
  Rng rng(9);
  SampleEngine engine(&p, 2, &rng, nullptr);
  std::vector<uint64_t> counts(4, 0);
  EXPECT_EQ(engine.Draw(50, 50, &counts), 50u);
  for (uint64_t c : counts) EXPECT_EQ(c, 0u);
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
    engine->DrawStripe(0, StripeSamplesBelow(target, 0, num_stripes) -
                              StripeSamplesBelow(current, 0, num_stripes));
    RawSampleDelta discard;
    engine->HarvestDelta(&discard);
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

}  // namespace
}  // namespace saphyra
