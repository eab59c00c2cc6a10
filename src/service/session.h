#ifndef SAPHYRA_SERVICE_SESSION_H_
#define SAPHYRA_SERVICE_SESSION_H_

/// \file
/// QuerySession: the warm half of the serving layer. Opens a graph once
/// (cache-aware, LoadGraphAuto), owns the long-lived state every query
/// shares — the graph, its content fingerprint, the lazily-built warm
/// IspIndex with its component views, and the persistent SharedThreadPool
/// — and answers a stream of heterogeneous queries without ever paying
/// parse/decomposition again. This is what turns the per-process cost
/// profile of `saphyra_rank` (load + index per query) into a per-session
/// one (load + index once, then marginal sampling cost per query).
///
/// Dynamic graphs. A session is a sequence of immutable epochs
/// (GraphSnapshot): epoch 0 is the loaded graph, and each accepted
/// {"op":"update"} produces epoch e+1: its CSR is epoch e's with the
/// edge's two arcs spliced in or out (SpliceEdge), and its decomposition
/// is repaired incrementally (bicomp/incremental.h). It then atomically
/// publishes the new snapshot with its IspIndex already built: one
/// derivation from the parent's index through the repair's block remap
/// re-derives the blocks the mutation changed and carries the rest (see
/// IspIndex). Queries pin the snapshot current
/// at their admission and run it to completion — snapshot isolation: an
/// update never changes bits of an in-flight query, and a query admitted
/// after the update sees the new epoch only. Each epoch's fingerprint chains
/// the mutation onto the previous epoch's digest
/// (ChainMutationFingerprint), so memo keys, the sharded tier's state
/// cache, and the multi-graph pool all invalidate exactly the entries
/// the mutation staled — see docs/serving.md, "Dynamic graphs".
///
/// Ownership/threading: Run() is safe to call from multiple threads
/// concurrently — estimator runs only read their pinned snapshot and keep
/// sampling scratch in per-run problem instances; each snapshot's lazy
/// IspIndex build is guarded by std::call_once; and sample generation
/// shares SharedThreadPool() through per-call task groups
/// (util/thread_pool.h). ApplyUpdate is serialized on an internal mutex
/// and may run concurrently with queries. Determinism: for a fixed
/// canonicalized request on a fixed epoch, Run() returns
/// bitwise-identical estimates on every call, cold or warm, whatever the
/// thread count — see DESIGN.md, "Serving determinism contract".

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "bicomp/incremental.h"
#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/graph.h"
#include "service/query.h"
#include "util/cancel.h"
#include "util/status.h"

namespace saphyra {

class ShardedQuery;

/// \brief Session-wide settings (per-query knobs live on QueryRequest).
struct SessionOptions {
  /// Graph loading (format, cache substitution, mmap) — LoadGraphAuto.
  LoadGraphOptions load;
  /// Default worker threads for queries that leave num_threads at 0.
  uint32_t default_threads = 1;
  /// Build the IspIndex at Open() instead of on the first bc query.
  /// Off by default: sessions serving only ABRA/KADABRA/k-path/closeness
  /// never need it.
  bool eager_index = false;
};

/// \brief One immutable epoch of a session: the graph's CSR, its chained
/// fingerprint, and the (lazily built) warm index, all frozen at publish
/// time. Queries pin the snapshot current at admission via
/// QuerySession::snapshot() and keep every read on it, so updates
/// landing mid-query cannot change any result bit.
class GraphSnapshot {
 public:
  const Graph& graph() const { return graph_; }
  /// \brief Mutation epoch: 0 for the loaded graph, +1 per applied
  /// update.
  uint64_t epoch() const { return epoch_; }
  /// \brief Epoch 0: the content digest of the loaded graph (from the
  /// `.sgr` header when recorded, computed otherwise). Epoch e+1: the
  /// previous epoch's fingerprint chained with the mutation
  /// (ChainMutationFingerprint). Keys the scheduler's memo and the
  /// sharded tier's worker state, so results computed against one epoch
  /// can never serve another.
  uint64_t fingerprint() const { return fingerprint_; }
  /// \brief The warm ISP index of this epoch, building it on first use
  /// (thread-safe; epochs > 0 had theirs derived from the parent's index
  /// before they were published).
  const IspIndex& isp() const;
  /// \brief Whether the index has been built yet (diagnostics only).
  bool index_built() const { return isp_ != nullptr; }

  GraphSnapshot(const GraphSnapshot&) = delete;
  GraphSnapshot& operator=(const GraphSnapshot&) = delete;

 private:
  friend class QuerySession;
  GraphSnapshot() = default;

  Graph graph_;
  /// Epoch 0's decomposition loaded from the `.sgr` cache, waiting for
  /// the IspIndex to adopt it (unused by later epochs).
  mutable GraphCache cache_;
  uint64_t fingerprint_ = 0;
  uint64_t epoch_ = 0;
  mutable std::once_flag isp_once_;
  mutable std::unique_ptr<IspIndex> isp_;
};

/// \brief What an applied update produced, for the wire result line and
/// the stats.
struct UpdateOutcome {
  uint64_t epoch = 0;        ///< the new epoch number
  uint64_t fingerprint = 0;  ///< the new chained fingerprint
  /// Always false: updates no longer compact anything. Kept while
  /// bench/e2e still assigns it.
  bool compacted = false;
  /// Arcs the decomposition repair relabeled (observability only).
  uint64_t repair_dirty_arcs = 0;
  /// Always false: the repair has no full-pass fallback. Kept while
  /// bench/e2e still reads it.
  bool repair_fell_back = false;
};

/// \brief Fingerprint of epoch `epoch` obtained by applying (kind, u, v)
/// to the epoch with fingerprint `prev`: FNV-1a over (prev, epoch, kind,
/// min(u,v), max(u,v)). Pure and process-independent, so the supervisor
/// can predict the post-update fingerprint its workers must reach.
uint64_t ChainMutationFingerprint(uint64_t prev, uint64_t epoch,
                                  EdgeMutationKind kind, NodeId u, NodeId v);

/// \brief A loaded graph plus its warm per-session state, answering
/// queries until destroyed.
class QuerySession {
 public:
  /// \brief Load `graph_path` (text or `.sgr`; cache-aware) and build the
  /// session around it. On success `*out` is ready for Run().
  static Status Open(const std::string& graph_path,
                     const SessionOptions& options,
                     std::unique_ptr<QuerySession>* out);

  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  /// \brief Pin the current epoch. The returned snapshot is immutable and
  /// outlives any concurrent update; every read a query makes must go
  /// through one pinned snapshot (the scheduler pins at admission).
  std::shared_ptr<const GraphSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lock(epoch_mu_);
    return current_;
  }

  /// \brief Current epoch's graph. Only safe for one-shot reads (startup
  /// logging, size checks); anything spanning waves must pin snapshot().
  const Graph& graph() const { return snapshot()->graph(); }
  /// \brief Current epoch's fingerprint (see GraphSnapshot::fingerprint).
  uint64_t fingerprint() const { return snapshot()->fingerprint(); }
  /// \brief Current mutation epoch (0 = never updated).
  uint64_t epoch() const { return snapshot()->epoch(); }
  /// \brief Whether any update was ever applied. A mutated session must
  /// not be dropped to disk-reload (the pool skips evicting it): the
  /// file still holds epoch 0.
  bool mutated() const { return snapshot()->epoch() != 0; }
  bool loaded_from_cache() const { return loaded_from_cache_; }
  const SessionOptions& options() const { return options_; }

  /// \brief The current epoch's warm ISP index, building it on first use
  /// (thread-safe).
  const IspIndex& isp() { return snapshot()->isp(); }
  /// \brief Whether the current epoch's index has been built yet
  /// (diagnostics only).
  bool index_built() const { return snapshot()->index_built(); }

  /// \brief Apply one edge mutation, producing and publishing the next
  /// epoch. Serialized internally; concurrent queries keep running on
  /// their pinned snapshots. On failure (duplicate insert, delete of a
  /// missing edge, endpoint out of range, self loop → INVALID_ARGUMENT)
  /// the session is unchanged. On success the new epoch's decomposition
  /// is repaired incrementally (bicomp/incremental.h) — bitwise identical
  /// to a from-scratch pass — and its index derived from the current
  /// epoch's before it is published; `*out`, when non-null, reports the
  /// new epoch/fingerprint and the size of the repair.
  Status ApplyUpdate(const EdgeMutation& mut, UpdateOutcome* out = nullptr);

  /// \brief Answer one query on the warm state. `req` is canonicalized
  /// internally; invalid requests come back as an error result (the
  /// status rides on QueryResult so one bad query in a batch cannot take
  /// the batch down). A request with deadline_ms > 0 gets a cancel token
  /// armed here; on expiry the result covers completed waves only and is
  /// tagged degraded. Thread-safe.
  QueryResult Run(const QueryRequest& req);

 private:
  friend class BatchScheduler;

  QuerySession() = default;

  /// \brief Run() minus validation: `req` must already be canonical and
  /// `snap` is the epoch the caller pinned at admission (all graph/index
  /// reads go through it — snapshot isolation). The scheduler
  /// canonicalizes once to derive the cache key and enters here, instead
  /// of paying a second copy + sort/dedup pass per query — and owns the
  /// cancel token (deadline measured from admission, chained to the
  /// server-wide shutdown token). `cancel` may be null; borrowed for the
  /// duration of the call. `shard` non-null routes every sample wave to
  /// the sharded worker tier (service/shard.h) instead of drawing
  /// locally; results are bitwise identical either way, and a shard that
  /// stays lost past the retry budget degrades the result
  /// (degrade_reason = kUnavailable) rather than erroring.
  QueryResult RunCanonical(const GraphSnapshot& snap, const QueryRequest& req,
                           const CancelToken* cancel,
                           ShardedQuery* shard = nullptr);

  SessionOptions options_;
  bool loaded_from_cache_ = false;

  /// Guards current_ (publish/pin). Updates hold update_mu_ as well;
  /// queries only ever take this one, briefly, inside snapshot().
  mutable std::mutex epoch_mu_;
  std::shared_ptr<const GraphSnapshot> current_;

  /// Serializes ApplyUpdate, so each update splices the epoch the last
  /// one published. Ordered before epoch_mu_ (ApplyUpdate publishes while
  /// holding it); nothing acquires them the other way around.
  std::mutex update_mu_;
};

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_SESSION_H_
