#include "core/sample_engine.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.h"

namespace saphyra {

namespace {

/// 32.32 fixed point: weighted losses lie in [0, 1], so one sample
/// contributes at most 2³² to an accumulator — a uint64 holds 2³² samples
/// before overflow, far beyond any VC cap this codebase produces. Integer
/// accumulation is associative, which keeps the merged moments independent
/// of wave partitioning and worker scheduling; the 2⁻³³ rounding error per
/// sample is orders of magnitude below every stopping tolerance.
constexpr double kFixedPointScale = 4294967296.0;  // 2^32

uint64_t ToFixedPoint(double x) {
  return static_cast<uint64_t>(std::llround(x * kFixedPointScale));
}

double FromFixedPoint(uint64_t fp) {
  return static_cast<double>(fp) / kFixedPointScale;
}

void ZeroDelta(RawSampleDelta* delta) {
  std::fill(delta->counts.begin(), delta->counts.end(), 0);
  std::fill(delta->fp_sums.begin(), delta->fp_sums.end(), 0);
  std::fill(delta->fp_sum_squares.begin(), delta->fp_sum_squares.end(), 0);
}

/// sum[i] += part[i]; the caller has checked the lengths agree.
void AddArray(const std::vector<uint64_t>& part, std::vector<uint64_t>* sum) {
  for (size_t i = 0; i < part.size(); ++i) (*sum)[i] += part[i];
}

}  // namespace

uint64_t StripeSamplesBelow(uint64_t n, size_t w, size_t num_stripes) {
  if (n <= w) return 0;
  return (n - w - 1) / num_stripes + 1;
}

Status AddDelta(const RawSampleDelta& part, RawSampleDelta* sum) {
  if (sum->counts.empty() && sum->fp_sums.empty() &&
      sum->fp_sum_squares.empty()) {
    *sum = part;
    return Status::OK();
  }
  if (part.counts.size() != sum->counts.size() ||
      part.fp_sums.size() != sum->fp_sums.size() ||
      part.fp_sum_squares.size() != sum->fp_sum_squares.size()) {
    return Status::Internal(
        "sample deltas disagree on shape (hypothesis count or weighting)");
  }
  AddArray(part.counts, &sum->counts);
  AddArray(part.fp_sums, &sum->fp_sums);
  AddArray(part.fp_sum_squares, &sum->fp_sum_squares);
  return Status::OK();
}

double SampleStats::mean(size_t i) const {
  if (n == 0) return 0.0;
  const double nn = static_cast<double>(n);
  if (weighted) return sums[i] / nn;
  return static_cast<double>(counts[i]) / nn;
}

double SampleStats::sample_variance(size_t i) const {
  SAPHYRA_CHECK(n >= 2);
  const double nn = static_cast<double>(n);
  if (!weighted) {
    const uint64_t ones = counts[i];
    return static_cast<double>(ones) * static_cast<double>(n - ones) /
           (nn * (nn - 1.0));
  }
  const double var =
      (sum_squares[i] - sums[i] * sums[i] / nn) / (nn - 1.0);
  return var > 0.0 ? var : 0.0;
}

SampleEngine::SampleEngine(HypothesisRankingProblem* problem,
                           uint32_t num_workers, Rng* base_rng,
                           ThreadPool* pool)
    : weighted_(problem->has_weighted_losses()), pool_(pool) {
  workers_.push_back(problem);
  // Inline execution serves every logical worker from the primary instance
  // (a worker's output is a pure function of its RNG stream; scratch is
  // epoch-reset state), so physical clones are only materialized when a
  // pool may run workers concurrently. One probe clone is made either way,
  // because clonability must decide the logical worker count identically
  // for pooled and inline runs — a different count partitions the RNG
  // streams differently — and inline runs drop it once it has answered.
  // For the same reason clonability is all-or-nothing: a problem that
  // clones once must keep cloning (partial clonability would silently give
  // the two execution modes different worker counts), so a later nullptr
  // is a hard error, not a degrade.
  if (num_workers > 1 && pool_ == nullptr) {
    if (problem->CloneForSampling() != nullptr) {
      workers_.resize(num_workers, problem);
    }
  } else {
    for (uint32_t i = 1; i < num_workers; ++i) {
      auto clone = problem->CloneForSampling();
      if (i == 1 && clone == nullptr) break;  // non-clonable: one worker
      SAPHYRA_CHECK_MSG(clone != nullptr,
                        "CloneForSampling must not fail after succeeding");
      clones_.push_back(std::move(clone));
      workers_.push_back(clones_.back().get());
    }
  }
  const size_t k = problem->num_hypotheses();
  agg_.counts.assign(k, 0);
  if (weighted_) {
    agg_.fp_sums.assign(k, 0);
    agg_.fp_sum_squares.assign(k, 0);
  }
  for (size_t w = 0; w < workers_.size(); ++w) {
    rngs_.push_back(base_rng->Split());
    locals_.push_back(agg_);
    all_stripes_.push_back(static_cast<uint32_t>(w));
    if (weighted_) weighted_scratch_.emplace_back();
  }
  drawn_.assign(workers_.size(), 0);
}

Status SampleEngine::DrawStripes(const std::vector<uint32_t>& stripes,
                                 uint64_t from, uint64_t to,
                                 const CancelToken* cancel,
                                 RawSampleDelta* out) {
  SAPHYRA_CHECK(to >= from);
  const size_t nw = workers_.size();
  std::vector<bool> seen(nw, false);
  for (uint32_t s : stripes) {
    if (s >= nw || seen[s]) {
      return Status::InvalidArgument("stripe " + std::to_string(s) +
                                     " is out of range or repeated");
    }
    seen[s] = true;
    if (drawn_[s] > StripeSamplesBelow(from, s, nw)) {
      return Status::FailedPrecondition(
          "stripe " + std::to_string(s) + " has drawn past sample " +
          std::to_string(from));
    }
  }
  // Sample j belongs to stripe j mod W, so a stripe's share of [from, to)
  // — and with it its RNG stream use — is a pure function of (from, to,
  // W), however the run batches its waves and wherever a stripe is drawn.
  std::vector<StatusCode> polled(stripes.size(), StatusCode::kOk);
  auto draw = [&](size_t i) {
    if (cancel != nullptr) {
      polled[i] = cancel->Poll();
      if (polled[i] != StatusCode::kOk) return;
    }
    const uint32_t s = stripes[i];
    const uint64_t below_from = StripeSamplesBelow(from, s, nw);
    if (drawn_[s] < below_from) {
      // Another engine or process drew [drawn_, below_from) of this
      // stripe: replay it with identical RNG use and discard the losses.
      RunWorker(s, below_from - drawn_[s]);
      ZeroDelta(&locals_[s]);
    }
    const uint64_t below_to = StripeSamplesBelow(to, s, nw);
    RunWorker(s, below_to - below_from);
    drawn_[s] = below_to;
  };
  if (pool_ == nullptr || stripes.size() <= 1) {
    for (size_t i = 0; i < stripes.size(); ++i) draw(i);
  } else {
    pool_->ParallelFor(0, stripes.size(), draw);
  }
  Status st = Status::OK();
  for (StatusCode why : polled) {
    if (why != StatusCode::kOk) {
      st = CancelToken::ToStatus(why, "sample wave");
      break;
    }
  }
  for (uint32_t s : stripes) {
    if (st.ok()) st = AddDelta(locals_[s], out);
    ZeroDelta(&locals_[s]);
  }
  return st;
}

uint64_t SampleEngine::DrawAccumulate(uint64_t current, uint64_t target) {
  SAPHYRA_CHECK(target >= current);
  // A failed wave's samples were never merged, and the stripes it drew
  // have moved on, so every later wave is refused with the same status.
  if (!last_wave_status_.ok()) return current;
  if (target == current) return target;
  if (executor_ == nullptr) {
    last_wave_status_ =
        DrawStripes(all_stripes_, current, target, nullptr, &agg_);
  } else {
    // Delegated wave: the executor returns the raw integer delta of
    // samples [current, target) over this engine's stripes; summing it in
    // is bitwise-identical to having drawn locally because the integer
    // accumulators are associative.
    RawSampleDelta delta;
    last_wave_status_ = executor_->ExecuteWaveOn(this, current, target,
                                                 workers_.size(), &delta);
    if (last_wave_status_.ok()) last_wave_status_ = AddDelta(delta, &agg_);
  }
  return last_wave_status_.ok() ? target : current;
}

void SampleEngine::SnapshotStats(uint64_t n, SampleStats* stats) const {
  stats->n = n;
  stats->weighted = weighted_;
  stats->counts = agg_.counts;
  if (weighted_) {
    const size_t k = agg_.counts.size();
    stats->sums.resize(k);
    stats->sum_squares.resize(k);
    for (size_t i = 0; i < k; ++i) {
      stats->sums[i] = FromFixedPoint(agg_.fp_sums[i]);
      stats->sum_squares[i] = FromFixedPoint(agg_.fp_sum_squares[i]);
    }
  }
}

void SampleEngine::RunWorker(size_t w, uint64_t quota) {
  if (weighted_) {
    auto& hits = weighted_scratch_[w];
    auto& counts = locals_[w].counts;
    auto& sums = locals_[w].fp_sums;
    auto& squares = locals_[w].fp_sum_squares;
    for (uint64_t j = 0; j < quota; ++j) {
      hits.clear();
      workers_[w]->SampleWeightedLosses(&rngs_[w], &hits);
      for (const WeightedHit& h : hits) {
        SAPHYRA_CHECK(h.index < counts.size());
        if (h.value <= 0.0) continue;
        ++counts[h.index];
        sums[h.index] += ToFixedPoint(h.value);
        squares[h.index] += ToFixedPoint(h.value * h.value);
      }
    }
    return;
  }
  std::vector<uint32_t> hits;
  auto& local = locals_[w].counts;
  for (uint64_t j = 0; j < quota; ++j) {
    hits.clear();
    workers_[w]->SampleApproxLosses(&rngs_[w], &hits);
    for (uint32_t i : hits) {
      SAPHYRA_CHECK(i < local.size());
      ++local[i];
    }
  }
}

}  // namespace saphyra
