#ifndef SAPHYRA_SERVICE_SCHEDULER_H_
#define SAPHYRA_SERVICE_SCHEDULER_H_

/// \file
/// BatchScheduler: admission, deduplication and memoization over warm
/// query sessions. Admits up to `max_concurrent` queries at once (each
/// runs on its own driver thread; sample generation inside them shares
/// SharedThreadPool through per-call task groups), collapses identical
/// in-flight requests onto one execution, and memoizes completed results
/// keyed by the canonical query encoding — which includes the graph's
/// content fingerprint, so results can never leak across graphs. The memo
/// (service/memo_cache.h) evicts by GreedyDual-frequency credit, charged
/// with each result's measured compute time, so it keeps the answers that
/// are dearest to recompute and still asked for.
///
/// A scheduler fronts either one QuerySession (the single-graph servers
/// and tests) or a SessionPool (multi-graph tenancy): each admitted
/// request is routed by its `graph` name to the pooled session, which the
/// scheduler pins (shared_ptr handle) for the duration of the run — the
/// pool may evict the graph meanwhile, and the query still completes on
/// the pinned session. The memo, dedup table and slot gate are shared
/// across all graphs: safe by construction, because the cache key's
/// fingerprint prefix partitions entries per graph *content*.
///
/// Memoization is sound because of the determinism contract: a canonical
/// key pins every statistical parameter of the run, and the contract
/// (DESIGN.md, "Serving determinism contract") guarantees the estimator
/// would reproduce the stored bytes exactly. A memo hit is therefore
/// indistinguishable from a re-run — same bits, less work — and the
/// determinism tests (tests/serve_determinism_test.cc) verify exactly
/// that equivalence.
///
/// Degraded results (deadline-truncated runs) are NEVER memoized: their
/// bytes depend on where the wall clock cut the run, which the canonical
/// key does not pin. They are still deduplicated — concurrent duplicates
/// share whatever the owner produced, including its truncation.
///
/// Ownership/threading: all public methods are thread-safe; one mutex
/// guards the memo, the in-flight table, the slot gate and the stats. The
/// session (or pool) must outlive the scheduler.

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "service/memo_cache.h"
#include "service/query.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "util/cancel.h"

namespace saphyra {

class WorkerSupervisor;

struct SchedulerOptions {
  /// Estimator executions running concurrently (1 = serial execution);
  /// also the RunBatch driver count. Enforced inside Run(), so direct
  /// concurrent callers queue for a slot too.
  uint32_t max_concurrent = 1;
  /// Completed-result memo capacity in entries (0 disables memoization).
  size_t memo_capacity = 64;
  /// Byte budget of the memo (0 = unbounded). Entries are charged their
  /// actual footprint (MemoCache::EntryBytes) — O(|targets|) for subset
  /// queries but O(n) for whole-network results (bc-full, targetless
  /// baselines) — so one big result displaces proportionally many small
  /// ones instead of counting as "1 of 64". A result larger than the
  /// whole budget is served but not cached. Evictions happen when either
  /// this or memo_capacity is exceeded.
  size_t memo_capacity_bytes = 64ull << 20;
  /// Admission bound: queries queued for an execution slot beyond this
  /// many are shed immediately with RESOURCE_EXHAUSTED instead of
  /// waiting (0 = unbounded). Only genuinely queued queries count or are
  /// counted against: memo and dedup hits cost no slot and are never
  /// shed, and a query admitted straight into a free slot never touches
  /// the queue.
  size_t max_queue = 0;
  /// Server-wide shutdown token, chained as the parent of every per-query
  /// token: Cancel() stops new executions with CANCELLED and makes
  /// running ones finalize degraded at their next wave; TightenDeadline()
  /// implements a drain window. Borrowed; must outlive the scheduler.
  const CancelToken* server_cancel = nullptr;
  /// Non-null: delegate every sample wave to this sharded worker tier
  /// (service/shard.h) instead of drawing locally. Results are bitwise
  /// identical either way (determinism contract), so the memo and dedup
  /// machinery are oblivious to the switch. Borrowed; must outlive the
  /// scheduler.
  WorkerSupervisor* supervisor = nullptr;
  /// Accept {"op":"update"} requests (saphyra_serve --allow-updates).
  /// Off by default: a server not expecting mutations answers them with
  /// FAILED_PRECONDITION instead of silently changing its graphs.
  bool allow_updates = false;
};

struct SchedulerStats {
  uint64_t queries = 0;      ///< requests answered
  uint64_t updates = 0;      ///< graph mutations applied
  /// Of `updates`: those whose epoch index was built from its parent's at
  /// publish (UpdateOutcome::index_reused).
  uint64_t updates_index_reused = 0;
  uint64_t computed = 0;     ///< estimator executions
  uint64_t memo_hits = 0;    ///< served from the memo
  uint64_t dedup_hits = 0;   ///< shared an in-flight execution
  uint64_t errors = 0;       ///< requests answered with an error status
  uint64_t evictions = 0;    ///< memo entries displaced
  uint64_t shed = 0;         ///< rejected at admission (RESOURCE_EXHAUSTED)
  uint64_t degraded = 0;     ///< answered from a deadline-truncated run
  uint64_t cancelled = 0;    ///< answered CANCELLED (server shutdown)
  uint64_t memo_bytes = 0;   ///< gauge: current memo footprint
  uint64_t queued = 0;       ///< gauge: queries waiting for a slot now
  /// Σ over memo hits of the hit entry's recorded compute seconds: the
  /// estimator time the memo spared.
  double memo_saved_seconds = 0.0;
};

/// \brief Concurrent query front door over warm sessions.
class BatchScheduler {
 public:
  /// \brief Single-graph mode: every request runs on `session`; requests
  /// naming a graph are rejected with NOT_FOUND. Borrowed; must outlive
  /// the scheduler.
  BatchScheduler(QuerySession* session, const SchedulerOptions& options);
  /// \brief Multi-graph mode: requests route through `pool` by their
  /// `graph` name ("" = the pool's default graph). Borrowed; must outlive
  /// the scheduler.
  BatchScheduler(SessionPool* pool, const SchedulerOptions& options);

  /// \brief Answer one request through the memo/dedup machinery.
  /// Thread-safe; concurrent callers with the same canonical key share one
  /// execution.
  QueryResult Run(const QueryRequest& request);

  /// \brief Answer a batch; results align with `requests`. Up to
  /// `max_concurrent` requests execute at once. Result *values* are
  /// independent of the admission order and concurrency (determinism
  /// contract); the served-mode labels are not — which request of a
  /// duplicate pair computes and which dedups depends on timing.
  std::vector<QueryResult> RunBatch(const std::vector<QueryRequest>& requests);

  SchedulerStats stats() const;

 private:
  struct Inflight {
    bool done = false;
    QueryResult result;
    std::condition_variable cv;
  };
  /// Pin the session the request routes to: the pool's (loading it if
  /// cold) in pool mode, the borrowed single session otherwise.
  Status ResolveSession(const std::string& graph,
                        std::shared_ptr<QuerySession>* out);

  /// The {"op":"update"} path: bypasses the memo, the dedup table and
  /// the slot gate (mutations are cheap, serialized, and must never be
  /// answered from a cache), applies the mutation to the local session
  /// and — in sharded mode — broadcasts it to the worker tier under one
  /// update mutex, so no two updates can interleave differently between
  /// the coordinator and its workers.
  QueryResult RunUpdate(QuerySession* session, const QueryRequest& request,
                        const QueryRequest& canonical);

  QuerySession* session_ = nullptr;  ///< single-graph mode
  SessionPool* pool_ = nullptr;      ///< multi-graph mode
  SchedulerOptions options_;

  mutable std::mutex mu_;
  SchedulerStats stats_;
  /// Serializes update application across sessions AND the shard
  /// broadcast: local apply + worker broadcast are one critical section,
  /// so every worker observes updates in the exact order the epochs
  /// chained — a reorder would diverge the fingerprint chain.
  std::mutex update_mu_;
  /// Execution-slot gate: estimator runs in flight / owners queued for a
  /// slot. Slot waiters poll their cancel token every ~10 ms, so a queued
  /// query honors its deadline (and the shutdown token) without a
  /// per-query wakeup channel.
  uint32_t running_ = 0;
  size_t waiting_ = 0;
  std::condition_variable slot_cv_;
  /// Completed ok results, guarded by mu_; a hit hands out the shared
  /// immutable result and the per-caller copy happens outside mu_.
  MemoCache memo_;
  std::map<std::string, std::shared_ptr<Inflight>> inflight_;
};

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_SCHEDULER_H_
