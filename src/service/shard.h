#ifndef SAPHYRA_SERVICE_SHARD_H_
#define SAPHYRA_SERVICE_SHARD_H_

/// \file
/// The sharded serving tier's coordinator half: a supervised pool of
/// `saphyra_worker` processes that sample waves execute on, plus the
/// per-query WaveExecutor adapters that plug it into the estimator
/// frontends.
///
/// Why sharding is bitwise-safe. The sample engine stripes draws over a
/// fixed number of logical RNG streams and accumulates in integers
/// (core/sample_engine.h), so a wave's raw delta is the element-wise sum
/// of per-stripe deltas — and each stripe's delta is a pure function of
/// (query, stripe, [from, to)). The supervisor therefore partitions a
/// wave's stripes over worker processes, sums whatever comes back, and
/// the merged wave is bitwise identical to a local draw at ANY shard
/// count and under ANY reassignment of stripes between workers. Killing
/// a worker mid-wave and replaying its stripes elsewhere cannot change a
/// single result bit; tests/shard_test.cc pins exactly that.
///
/// The coordinator is one more participant. When a wave comes with the
/// query's own engine (WaveSpec::local) and the process may run on at
/// least N+1 cores, the coordinator owns stripes s ≡ 0 (mod N+1) for N
/// workers and draws them itself with the query's engine
/// (SampleEngine::DrawStripes, on the query's pool when it has threads)
/// between scatter and gather; the workers share the rest. With fewer
/// cores the workers already fill them, and a coordinator share would
/// only slow them down, so every stripe goes to the workers. Its stripes
/// are never sent to a worker and never redrawn in a retry round, so a
/// lost tier still fails the wave (shard_lost) instead of falling back
/// onto the coordinator.
///
/// Failure model (docs/serving.md, "Sharded serving" failure matrix):
///   - crash (connection drops, send/recv fails): mark the worker dead,
///     reassign its stripes to survivors, restart it lazily under
///     exponential backoff with jitter;
///   - hang/slow (RPC exceeds `rpc_timeout_ms` while the query deadline
///     still has room): same as a crash — the stuck incarnation is
///     killed on its next launch. The clock restarts after the
///     coordinator's own draw, which is never counted as a worker hang;
///   - lost past the budget (`retry_budget` failed rounds, or no worker
///     restartable): the wave fails with UNAVAILABLE, which the
///     progressive sampler surfaces as a degraded result
///     (degrade_reason = shard_lost) — never an error, never memoized.
/// A worker-reported DEADLINE_EXCEEDED/CANCELLED is the *query's*
/// deadline, not a worker fault: it propagates as-is and consumes no
/// retry budget.
///
/// Ownership/threading: one WorkerSupervisor per server, shared by every
/// concurrent query; a per-worker mutex serializes RPCs on each
/// connection. A wave round scatters its slices to all its workers before
/// gathering any reply, so it holds several worker locks at once and
/// always acquires them in ascending worker index order — two concurrent
/// queries can therefore never wait on each other in a cycle. Those locks
/// stay held across the coordinator's own draw, which takes no worker
/// lock (it touches only the query's engine and, at threads > 1, pool
/// tasks that take none either). Every other locker holds at most one
/// worker lock (BroadcastUpdate, Start, Shutdown) or only try_locks (the
/// heartbeat). Drain-or-drop: before
/// ExecuteWave returns — on success, a query deadline or cancellation, a
/// deterministic worker error, or a merge failure — every frame it sent
/// has had its reply read or its connection dropped, so no later RPC on
/// that connection can read a stale reply. ShardedQuery / its executors
/// are per-query, single-driver objects.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bicomp/incremental.h"
#include "core/sample_engine.h"
#include "net/socket.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/status.h"

namespace saphyra {

/// \brief Supervision knobs of the worker pool.
struct ShardOptions {
  /// Worker processes (shards). Stripes of every wave are partitioned
  /// round-robin over the live subset.
  uint32_t num_workers = 2;
  /// Failed *rounds* a wave tolerates before giving up with UNAVAILABLE:
  /// a round is one pass that reassigns the failed stripes over the
  /// workers then available. 0 = any worker fault degrades the query.
  uint32_t retry_budget = 2;
  /// Idle-worker health-check period (0 disables the heartbeat thread).
  /// A missed heartbeat marks the worker dead so the next wave restarts
  /// it instead of discovering the corpse mid-RPC.
  uint64_t heartbeat_ms = 1000;
  /// Per-RPC ceiling distinguishing a hung worker from a slow query: the
  /// effective RPC deadline is min(query deadline, now + this).
  uint64_t rpc_timeout_ms = 10000;
  /// Restart backoff: doubles per consecutive failure from `initial` up
  /// to `max`, with deterministic ±25% jitter.
  uint64_t backoff_initial_ms = 10;
  uint64_t backoff_max_ms = 1000;
};

/// \brief How worker incarnations come to life. The supervisor calls
/// Launch under the worker's lock whenever it needs incarnation N+1 of a
/// worker index; the launcher must tear down incarnation N itself (kill
/// the process / join the thread) before producing the new connection.
class WorkerLauncher {
 public:
  virtual ~WorkerLauncher() = default;
  virtual Status Launch(uint32_t index, net::UniqueFd* conn) = 0;
};

/// \brief Per-worker gauges, snapshot via WorkerSupervisor::stats() and
/// surfaced in saphyra_serve's --stats-json / stderr summary.
struct ShardWorkerStats {
  uint32_t index = 0;
  bool alive = false;
  uint64_t waves = 0;               ///< wave RPCs answered successfully
  uint64_t restarts = 0;            ///< incarnations launched after the first
  uint64_t retries = 0;             ///< RPCs that failed and were retried
  uint64_t stripes_reassigned = 0;  ///< stripes inherited from a failed peer
  uint64_t heartbeat_misses = 0;    ///< failed idle health checks
};

/// \brief One delegated wave: draw samples [from, to) of the query's
/// ordinal-th progressive run, striped over `num_stripes` streams.
struct WaveSpec {
  std::string graph;       ///< pool name routing the query ("" = default)
  uint64_t fingerprint = 0;  ///< content fingerprint the worker must match
  std::string query_json;  ///< canonical statistical query (state key)
  uint32_t ordinal = 0;    ///< 0 = pilot run, 1 = main run
  size_t num_stripes = 0;
  uint64_t from = 0;
  uint64_t to = 0;
  /// The query's cancel token: its effective deadline caps every RPC and
  /// is polled between retry rounds and between the coordinator's own
  /// stripes. May be null (unbounded query).
  const CancelToken* cancel = nullptr;
  /// The query's engine (borrowed; its stripe count is `num_stripes`).
  /// Non-null: the coordinator draws the stripes it owns on it, if the
  /// supervisor's coordinator_draws(). Null: every stripe goes to the
  /// workers.
  SampleEngine* local = nullptr;
};

/// \brief The supervised worker pool: launches workers, partitions wave
/// stripes over the live ones, merges their integer deltas, and turns
/// worker faults into retries, restarts, and — past the budget — one
/// UNAVAILABLE wave failure.
class WorkerSupervisor {
 public:
  /// `launcher` is borrowed and must outlive the supervisor.
  WorkerSupervisor(WorkerLauncher* launcher, const ShardOptions& options);
  ~WorkerSupervisor();

  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// \brief Launch every worker and start the heartbeat thread. Fails if
  /// any initial launch fails (a server that cannot assemble its pool
  /// should say so at startup, not on the first query).
  Status Start();

  /// \brief Quit the workers and stop the heartbeat thread. Idempotent;
  /// the destructor calls it.
  void Shutdown();

  /// \brief Execute one wave: partition its stripes, send every worker
  /// its slice before reading any reply, draw the coordinator's own
  /// stripes when `spec.local` is set and coordinator_draws(), then
  /// gather and merge the deltas into *out in worker index order. On
  /// worker faults, retries with reassignment/restarts up to the budget;
  /// returns UNAVAILABLE when the budget is exhausted, or the query's own
  /// DEADLINE_EXCEEDED / CANCELLED when that fires first. Thread-safe.
  Status ExecuteWave(const WaveSpec& spec, RawSampleDelta* out);

  /// \brief Propagate one applied graph mutation to the worker tier.
  ///
  /// The coordinator has already applied the mutation locally and chained
  /// the graph's fingerprint to `expect_fingerprint`; the caller (the
  /// scheduler's update path) serializes broadcasts, so workers observe
  /// mutations in epoch order. The entry is appended to a durable
  /// mutation log first, then pushed to every live worker best-effort: a
  /// worker that fails the push is marked dead, and EnsureAliveLocked
  /// replays the *whole* log into every new incarnation before it serves
  /// a wave — so a restarted worker rejoins at the coordinator's epoch,
  /// never at the stale on-disk graph. Workers treat a replayed entry
  /// whose fingerprint they already reached as a no-op, which makes the
  /// push + replay pair idempotent.
  void BroadcastUpdate(const std::string& graph, const EdgeMutation& mut,
                       uint64_t expect_fingerprint);

  uint32_t num_workers() const { return options_.num_workers; }
  std::vector<ShardWorkerStats> stats() const;
  /// \brief Stripes the coordinator drew itself (on a wave's
  /// `spec.local` engine) since startup.
  uint64_t coordinator_stripes() const {
    return coordinator_stripes_.load(std::memory_order_relaxed);
  }
  /// \brief Whether the coordinator draws its own share of waves that
  /// come with the query's engine: CoordinatorDrawsShare(num_workers,
  /// the cores in this process's CPU affinity mask).
  bool coordinator_draws() const { return coordinator_draws_; }
  /// \brief The rule: N workers plus the coordinator need N+1 cores.
  /// Measured on a 4-core host, a coordinator share sped 1 and 2 workers
  /// up and slowed 4 workers down (docs/serving.md).
  static bool CoordinatorDrawsShare(uint32_t num_workers, uint32_t cores) {
    return num_workers + 1 <= cores;
  }

 private:
  struct Worker {
    /// Serializes RPCs on this worker's connection. Holders of several
    /// workers' locks acquire them in ascending index order.
    std::mutex mu;
    net::UniqueFd conn;
    bool alive = false;
    uint32_t consecutive_failures = 0;
    /// Steady-clock gate for the next restart attempt (backoff).
    int64_t restart_after_ns = 0;

    // Gauges are atomics so stats() never blocks behind an RPC in flight.
    std::atomic<bool> alive_gauge{false};
    std::atomic<uint64_t> waves{0};
    std::atomic<uint64_t> restarts{0};
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> stripes_reassigned{0};
    std::atomic<uint64_t> heartbeat_misses{0};
  };

  /// One logged mutation, in broadcast order across ALL graphs: replay
  /// must preserve the relative order of a graph's entries or the
  /// fingerprint chain diverges.
  struct MutationLogEntry {
    std::string graph;
    EdgeMutation mut;
    uint64_t expect_fingerprint = 0;
  };

  /// Restart `w` if dead and its backoff window has passed, replaying the
  /// mutation log into the fresh incarnation before declaring it alive.
  /// Caller holds w->mu. `first_launch` suppresses the restart counter
  /// during Start().
  Status EnsureAliveLocked(uint32_t index, Worker* w, bool first_launch);
  /// Drop the connection and arm the restart backoff. Caller holds w->mu.
  void MarkDeadLocked(Worker* w);
  /// A wave RPC between its two halves: the worker's lock stays held
  /// from the send until the reply is read or the connection dropped.
  struct InFlightRpc {
    uint32_t index = 0;
    std::unique_lock<std::mutex> lock;
    /// min(query deadline, now + rpc_timeout_ms), taken at send and
    /// again after the coordinator's own draw.
    Deadline deadline;
  };
  /// Send half of one wave RPC against worker `index` for the given
  /// stripes: lock the worker into rpc->lock, restart it if needed, and
  /// send the wave frame. On OK the lock stays held for WaveRpcRecv; on
  /// failure nothing is in flight (a partly sent frame drops the
  /// connection). A non-OK status is either the query's
  /// deadline/cancellation (`*worker_fault` = false) or a worker fault
  /// the caller should retry elsewhere (`*worker_fault` = true).
  Status WaveRpcSend(uint32_t index, const WaveSpec& spec,
                     const std::vector<uint32_t>& stripes, InFlightRpc* rpc,
                     bool* worker_fault);
  /// Receive half (caller holds rpc.lock and releases it afterwards):
  /// read and parse the reply into *delta. Any failure leaves the
  /// connection either past the reply or dropped. `*worker_fault` as in
  /// WaveRpcSend; a worker-reported error (deterministic, or the query's
  /// budget) is not a fault.
  Status WaveRpcRecv(const InFlightRpc& rpc, const WaveSpec& spec,
                     RawSampleDelta* delta, bool* worker_fault);
  /// Drop `w`'s connection after a failed send/recv and classify `st`:
  /// the query's own deadline/cancellation (returned as such, no fault,
  /// no backoff growth) or a worker fault (returned as-is).
  Status DropFailedRpcLocked(Worker* w, const WaveSpec& spec,
                             const Status& st, bool* worker_fault);
  /// One update RPC on `w`'s connection (caller holds w->mu and has a
  /// live connection). Verifies the worker landed on the expected
  /// fingerprint; any failure is the caller's cue to MarkDeadLocked.
  Status UpdateRpc(uint32_t index, Worker* w, const MutationLogEntry& entry);
  void HeartbeatLoop();

  WorkerLauncher* launcher_;
  ShardOptions options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  bool coordinator_draws_ = false;
  std::atomic<uint64_t> coordinator_stripes_{0};

  std::mutex backoff_mu_;
  Rng backoff_rng_;  ///< fixed-seed jitter source (guarded by backoff_mu_)

  /// Every broadcast mutation since startup, in order. Guarded by
  /// log_mu_, which nests INSIDE a worker's mu (EnsureAliveLocked
  /// snapshots the log while holding w->mu); BroadcastUpdate appends
  /// before touching any worker, so a restart racing a broadcast replays
  /// a superset — harmless, replay is idempotent.
  std::mutex log_mu_;
  std::vector<MutationLogEntry> mutation_log_;

  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool shutting_down_ = false;
  std::thread heartbeat_;
  bool started_ = false;
};

/// \brief Production launcher: fork+exec `saphyra_worker` processes that
/// connect back over the rendezvous endpoint. A relaunch SIGKILLs and
/// reaps the previous incarnation first, so a hung worker cannot leak.
class ProcessWorkerLauncher : public WorkerLauncher {
 public:
  struct Options {
    /// Path to the saphyra_worker binary.
    std::string worker_binary;
    /// Rendezvous endpoint the workers connect back to; the caller has
    /// already bound it (`listen_fd` is borrowed, not owned).
    net::Endpoint endpoint;
    int listen_fd = -1;
    /// Graph registrations forwarded verbatim ("NAME=PATH", first is the
    /// default), mirroring the server's own pool.
    std::vector<std::string> graph_args;
    /// Extra worker flags (e.g. "--no-cache").
    std::vector<std::string> extra_args;
    uint64_t launch_timeout_ms = 10000;
  };

  explicit ProcessWorkerLauncher(Options options);
  ~ProcessWorkerLauncher() override;

  Status Launch(uint32_t index, net::UniqueFd* conn) override;

 private:
  /// SIGKILL + reap index's incarnation, if any. Caller holds mu_.
  void KillLocked(uint32_t index);

  Options options_;
  std::mutex mu_;
  std::map<uint32_t, int> pids_;
  /// Connections that said hello for an index another Launch is not
  /// waiting on yet (two slow spawns can arrive out of order).
  std::map<uint32_t, net::UniqueFd> pending_;
};

/// \brief Per-query adapter handing the estimator frontends their
/// WaveExecutors (ordinal 0 = pilot run, 1 = main run), each of which
/// routes waves to the shared supervisor with this query's canonical
/// JSON, graph routing and cancel token attached. Called through
/// ExecuteWaveOn, an executor also passes the calling engine along, so
/// the coordinator draws its share of the wave; a direct ExecuteWave
/// call sends every stripe to the workers. Single-driver: lives on the
/// query's scheduler thread for the duration of RunCanonical.
class ShardedQuery {
 public:
  ShardedQuery(WorkerSupervisor* supervisor, std::string graph,
               uint64_t fingerprint, std::string query_json,
               const CancelToken* cancel);

  /// \brief The executor of the query's ordinal-th progressive run
  /// (created on first use; owned by this object).
  WaveExecutor* ExecutorFor(uint32_t ordinal);

 private:
  class Engine : public WaveExecutor {
   public:
    Engine(ShardedQuery* query, uint32_t ordinal)
        : query_(query), ordinal_(ordinal) {}
    Status ExecuteWave(uint64_t current, uint64_t target, size_t num_stripes,
                       RawSampleDelta* out) override {
      return ExecuteWaveOn(nullptr, current, target, num_stripes, out);
    }
    Status ExecuteWaveOn(SampleEngine* engine, uint64_t current,
                         uint64_t target, size_t num_stripes,
                         RawSampleDelta* out) override;

   private:
    ShardedQuery* query_;
    uint32_t ordinal_;
  };

  WorkerSupervisor* supervisor_;
  std::string graph_;
  uint64_t fingerprint_;
  std::string query_json_;
  const CancelToken* cancel_;
  std::vector<std::unique_ptr<Engine>> engines_;
};

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_SHARD_H_
