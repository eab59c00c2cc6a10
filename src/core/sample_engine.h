#ifndef SAPHYRA_CORE_SAMPLE_ENGINE_H_
#define SAPHYRA_CORE_SAMPLE_ENGINE_H_

/// \file
/// The pooled sampling engine: draws batches of i.i.d. samples for the
/// adaptive estimation loop over a fixed set of logical RNG stripes, so
/// that merged statistics are bitwise independent of thread count, pool
/// size and wave batching (DESIGN.md, "Pooled sample engine and its
/// determinism contract"). Every estimator frontend samples through this
/// engine via core/progressive_sampler.h.
///
/// Ownership/threading: an engine borrows the problem, base RNG and pool
/// (all must outlive it) and owns its clones and accumulators. One
/// engine serves one driver thread — its DrawAccumulate/DrawStripes
/// calls must not be made concurrently — but independent engines may
/// share one ThreadPool from different driver threads: pool completion
/// is tracked per task group (util/thread_pool.h), which is what lets the
/// serving layer (src/service/) run concurrent queries on the shared
/// pool.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/saphyra.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace saphyra {

/// \brief #samples with global index in [0, n) assigned to stripe `w` of
/// `num_stripes` under the engine's `j mod W` striping. Exported so the
/// sharded serving tier (src/service/shard*) can compute per-stripe wave
/// quotas with exactly the arithmetic the engine uses internally.
uint64_t StripeSamplesBelow(uint64_t n, size_t w, size_t num_stripes);

/// \brief Raw integer accumulator delta of one sample wave: per-hypothesis
/// hit counts, plus the 32.32 fixed-point loss moments for weighted
/// problems (`fp_sums`/`fp_sum_squares` stay empty otherwise). Integer
/// accumulation is associative, so deltas merge by plain element-wise sum
/// in any order — the property that makes a distributed wave bitwise
/// identical to a local one.
struct RawSampleDelta {
  std::vector<uint64_t> counts;
  std::vector<uint64_t> fp_sums;
  std::vector<uint64_t> fp_sum_squares;
};

/// \brief Add `part` into *sum element-wise. An empty *sum (no counts, no
/// fixed-point arrays) first takes part's shape. Otherwise each of the
/// three arrays must have its counterpart's length, or INTERNAL is
/// returned and *sum is left untouched.
Status AddDelta(const RawSampleDelta& part, RawSampleDelta* sum);

class SampleEngine;

/// \brief Pluggable wave execution: when installed on a SampleEngine, each
/// DrawAccumulate wave is delegated here instead of being drawn locally.
/// The executor must return the exact integer delta the engine would have
/// produced for samples [current, target) over `num_stripes` logical RNG
/// stripes — the sharded serving tier implements this by farming stripes
/// out to worker processes and summing their deltas.
class WaveExecutor {
 public:
  virtual ~WaveExecutor() = default;
  /// On success fills *out (counts sized to the hypothesis count; the
  /// fixed-point arrays too for weighted problems). On failure *out is
  /// ignored; the engine reports the status via last_wave_status(), keeps
  /// its pre-wave accumulation and refuses every later wave.
  virtual Status ExecuteWave(uint64_t current, uint64_t target,
                             size_t num_stripes, RawSampleDelta* out) = 0;

  /// \brief The call the engine makes: ExecuteWave, plus the calling
  /// engine, on which the executor may draw any subset of the wave's
  /// stripes itself through DrawStripes. The engine tracks how far each
  /// stripe's stream has been drawn, so whichever stripes it is handed
  /// are drawn from the right stream position, and a stripe drawn twice
  /// is refused. The default ignores the engine and delegates the whole
  /// wave.
  virtual Status ExecuteWaveOn(SampleEngine* engine, uint64_t current,
                               uint64_t target, size_t num_stripes,
                               RawSampleDelta* out) {
    (void)engine;
    return ExecuteWave(current, target, num_stripes, out);
  }
};

/// \brief Merged sampling statistics after `n` i.i.d. draws.
///
/// For 0/1 losses only `counts` is maintained (`sums`/`sum_squares` stay
/// empty and the moment accessors fall back to the Bernoulli closed forms).
/// For weighted problems (`HypothesisRankingProblem::has_weighted_losses`)
/// the per-hypothesis loss sums and sums of squares are accumulated in
/// 32.32 fixed point and exposed here as doubles — fixed-point integer
/// accumulation is associative, which is what makes the merged moments
/// independent of wave partitioning and thread scheduling (see DESIGN.md,
/// "Adaptive stopping contract").
struct SampleStats {
  uint64_t n = 0;
  bool weighted = false;
  std::vector<uint64_t> counts;     ///< #samples with loss > 0 per hypothesis
  std::vector<double> sums;         ///< Σ loss (weighted problems only)
  std::vector<double> sum_squares;  ///< Σ loss² (weighted problems only)

  /// Empirical mean loss of hypothesis i.
  double mean(size_t i) const;
  /// Unbiased sample variance of hypothesis i (the U-statistic of Lemma 3).
  /// Requires n >= 2.
  double sample_variance(size_t i) const;
};

/// \brief Draws batches of i.i.d. samples for the adaptive estimation loop,
/// serially or across a persistent thread pool.
///
/// The engine decomposes work into `num_workers` *logical* workers
/// (stripes), each with an independently split RNG stream. Pooled
/// execution materializes one CloneForSampling copy per extra worker
/// (workers may run concurrently); inline execution serves every logical
/// worker from the caller's instance, since a worker's output is a pure
/// function of its stream (one probe clone is still made, so clonability
/// fixes the same logical worker count in both modes). Sample j (globally
/// indexed over the whole run) always belongs to worker j mod W, so
/// worker w's slice of its own RNG stream is a pure function of how many
/// samples have been requested in total — never of how the request was
/// batched:
///
///   **Determinism contract.** For a fixed (base_rng seed, num_workers),
///   the merged statistics after N total samples are bitwise identical
///   across runs, across pool sizes, against inline execution
///   (pool == nullptr), across any partitioning of the N samples into
///   waves, and across any partition of the stripes over DrawStripes
///   calls, engines and processes. They do differ from a run with another
///   num_workers, which partitions the streams differently.
///
/// Execution goes through the ThreadPool passed at construction (typically
/// SharedThreadPool()) — the workers persist across the adaptive rounds
/// instead of being spawned and joined per round.
class SampleEngine {
 public:
  /// \brief `pool` may be null to force inline execution on the caller's
  /// thread; it must otherwise outlive the engine. Requests for more than
  /// one worker degrade gracefully to one when the problem does not
  /// support cloning at all; a problem whose first clone succeeds must
  /// keep cloning (all-or-nothing — see CloneForSampling).
  SampleEngine(HypothesisRankingProblem* problem, uint32_t num_workers,
               Rng* base_rng, ThreadPool* pool);

  /// \brief Logical workers actually created.
  size_t num_workers() const { return workers_.size(); }

  /// \brief Delegate every DrawAccumulate wave to `executor` (borrowed;
  /// nullptr restores local drawing) through WaveExecutor::ExecuteWaveOn.
  void set_wave_executor(WaveExecutor* executor) { executor_ = executor; }

  /// \brief Status of the most recent DrawAccumulate wave. Non-OK when a
  /// wave executor failed or returned a delta of the wrong shape; the
  /// failed wave contributed nothing and DrawAccumulate returned `current`
  /// unchanged, so the caller can finalize a degraded result from the
  /// completed waves. The failure latches: every later DrawAccumulate
  /// returns `current` and keeps this status.
  const Status& last_wave_status() const { return last_wave_status_; }

  /// \brief Draw samples [current, target) into the engine's running
  /// accumulators — locally through DrawStripes, or through the wave
  /// executor — and return `target` (`current` if the wave failed). Call
  /// SnapshotStats at the checkpoints that evaluate a stopping rule.
  uint64_t DrawAccumulate(uint64_t current, uint64_t target);

  /// \brief Materialize the running accumulation into *stats, as of `n`
  /// total samples drawn.
  void SnapshotStats(uint64_t n, SampleStats* stats) const;

  /// \brief Add samples [from, to) of each listed stripe into *out, which
  /// is sized on first use (see AddDelta). The only routine that draws:
  /// local waves, the sharded coordinator's share and shard workers all
  /// come here. Runs on the engine's pool when it has one.
  ///
  /// The engine records how far each stripe's stream has been drawn. A
  /// stripe behind `from` is first advanced past the samples another
  /// engine or process drew, by draw-and-discard (identical RNG use, so a
  /// replay is transparent). Before anything is drawn, a stripe already
  /// past `from` returns FAILED_PRECONDITION (streams only run forward),
  /// and a repeated or out-of-range stripe INVALID_ARGUMENT. `cancel` may
  /// be null; it is polled before each stripe, and on expiry every pending
  /// local is discarded, *out is left untouched and the token's status
  /// returned (the drawn stripes' positions stay advanced).
  Status DrawStripes(const std::vector<uint32_t>& stripes, uint64_t from,
                     uint64_t to, const CancelToken* cancel,
                     RawSampleDelta* out);

 private:
  /// Draw `quota` samples of stripe `w` into locals_[w].
  void RunWorker(size_t w, uint64_t quota);

  std::vector<HypothesisRankingProblem*> workers_;
  std::vector<std::unique_ptr<HypothesisRankingProblem>> clones_;
  std::vector<Rng> rngs_;
  bool weighted_ = false;
  /// Per-stripe locals, zero between DrawStripes calls. The fixed-point
  /// arrays are sized for weighted problems only.
  std::vector<RawSampleDelta> locals_;
  /// Samples of each stripe's stream drawn (or discarded) so far.
  std::vector<uint64_t> drawn_;
  /// Running accumulation of DrawAccumulate, shaped like a local.
  RawSampleDelta agg_;
  std::vector<uint32_t> all_stripes_;
  std::vector<std::vector<WeightedHit>> weighted_scratch_;
  ThreadPool* pool_;
  WaveExecutor* executor_ = nullptr;
  Status last_wave_status_;
};

}  // namespace saphyra

#endif  // SAPHYRA_CORE_SAMPLE_ENGINE_H_
