#include "service/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>

#include "service/shard.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace saphyra {
BatchScheduler::BatchScheduler(QuerySession* session,
                               const SchedulerOptions& options)
    : session_(session),
      options_(options),
      memo_(options.memo_capacity, options.memo_capacity_bytes) {}

BatchScheduler::BatchScheduler(SessionPool* pool,
                               const SchedulerOptions& options)
    : pool_(pool),
      options_(options),
      memo_(options.memo_capacity, options.memo_capacity_bytes) {}

Status BatchScheduler::ResolveSession(const std::string& graph,
                                      std::shared_ptr<QuerySession>* out) {
  if (pool_ != nullptr) return pool_->Acquire(graph, out);
  if (!graph.empty()) {
    return Status::NotFound("this server hosts a single unnamed graph "
                            "(request named \"" + graph + "\")");
  }
  // Non-owning handle over the borrowed session: the aliasing constructor
  // gives the callers the same pinned-pointer shape as pool mode without
  // the scheduler ever owning the session.
  *out = std::shared_ptr<QuerySession>(std::shared_ptr<QuerySession>(),
                                       session_);
  return Status::OK();
}

QueryResult BatchScheduler::RunUpdate(QuerySession* session,
                                      const QueryRequest& request,
                                      const QueryRequest& canonical) {
  QueryResult res;
  res.id = request.id;
  res.graph = request.graph;
  res.op = RequestOp::kUpdate;
  Status st = Status::OK();
  if (!options_.allow_updates) {
    st = Status::FailedPrecondition(
        "updates are disabled (start the server with --allow-updates)");
  }
  if (st.ok() && options_.server_cancel != nullptr) {
    const StatusCode why = options_.server_cancel->Poll();
    if (why != StatusCode::kOk) {
      st = CancelToken::ToStatus(why, "update " + request.id);
    }
  }
  UpdateOutcome outcome;
  Timer timer;
  if (st.ok()) {
    const EdgeMutation mut{canonical.action, canonical.edge_u,
                           canonical.edge_v};
    // One critical section covers the local apply AND the worker
    // broadcast: concurrent updates (even to different graphs) must reach
    // every worker in the order their epochs chained, or a restarted
    // worker's replayed fingerprints would diverge from the live ones.
    std::lock_guard<std::mutex> lock(update_mu_);
    st = session->ApplyUpdate(mut, &outcome);
    if (st.ok() && options_.supervisor != nullptr) {
      options_.supervisor->BroadcastUpdate(canonical.graph, mut,
                                           outcome.fingerprint);
    }
  }
  res.seconds = timer.ElapsedSeconds();
  res.status = st;
  res.epoch = outcome.epoch;
  res.fingerprint = outcome.fingerprint;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    if (st.ok()) {
      ++stats_.updates;
    } else {
      ++stats_.errors;
      if (st.code() == StatusCode::kCancelled) ++stats_.cancelled;
    }
  }
  return res;
}

QueryResult BatchScheduler::Run(const QueryRequest& request) {
  // Route first: the target range check inside canonicalization needs the
  // resolved graph's node count, and a cold pooled graph loads here (the
  // pinned handle keeps it valid even if the pool evicts it meanwhile).
  // The snapshot pinned here is the epoch this query runs on, whatever
  // updates land meanwhile — snapshot isolation.
  std::shared_ptr<QuerySession> session;
  Status st = ResolveSession(request.graph, &session);
  std::shared_ptr<const GraphSnapshot> snap;
  QueryRequest canonical;
  if (st.ok()) {
    snap = session->snapshot();
    canonical = request;
    st = CanonicalizeQuery(snap->graph().num_nodes(), &canonical);
  }
  if (st.ok() && canonical.op == RequestOp::kUpdate) {
    return RunUpdate(session.get(), request, canonical);
  }
  if (st.ok()) st = fail::FaultStatus("scheduler.admit");
  if (!st.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    ++stats_.errors;
    QueryResult res;
    res.id = request.id;
    res.graph = request.graph;
    res.estimator = request.estimator;
    res.status = st;
    return res;
  }
  // Keyed by the pinned epoch's fingerprint: a post-update admission
  // chains to a new fingerprint and therefore a new key, so memoized
  // pre-update answers can never serve the mutated graph.
  const QueryCacheKey key = MakeQueryCacheKey(snap->fingerprint(), canonical);

  // Per-query cancellation: the deadline starts at admission (queue time
  // counts against the budget — a client asking for 50 ms cares about
  // response time, not compute time), chained to the server token so a
  // shutdown reaches queued and running queries alike.
  CancelToken token;
  token.set_parent(options_.server_cancel);
  if (canonical.deadline_ms > 0) {
    token.TightenDeadline(Deadline::AfterMillis(canonical.deadline_ms));
  }

  const uint32_t cap = std::max<uint32_t>(1, options_.max_concurrent);
  std::shared_ptr<Inflight> entry;
  std::shared_ptr<const QueryResult> memo_hit;
  Status slot_st;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.queries;
    memo_hit = memo_.Lookup(key.canonical);
    if (memo_hit != nullptr) {
      ++stats_.memo_hits;
    } else {
      auto it = inflight_.find(key.canonical);
      if (it != inflight_.end()) {
        // Dedup join: costs no slot, so it neither counts against
        // max_queue nor can be shed — even a full queue joins here.
        entry = it->second;
        ++stats_.dedup_hits;
        entry->cv.wait(lock, [&entry] { return entry->done; });
        QueryResult res = entry->result;
        res.id = request.id;
        res.graph = request.graph;
        res.mode = ServeMode::kDeduped;
        res.seconds = 0.0;
        return res;
      }
      // Shed only queries that would actually wait: with a free execution
      // slot the queue is not involved, however full it is (registration
      // below and slot acquisition are one critical section, so "free
      // here" means "ours" — the old two-section flow could shed a query
      // while a slot sat idle).
      if (running_ >= cap && options_.max_queue != 0 &&
          waiting_ >= options_.max_queue) {
        ++stats_.shed;
        ++stats_.errors;
        QueryResult res;
        res.id = request.id;
        res.graph = request.graph;
        res.estimator = canonical.estimator;
        res.status = Status::ResourceExhausted(
            "admission queue full (max_queue=" +
            std::to_string(options_.max_queue) + ")");
        return res;
      }
      // Registered-before-queued: duplicates arriving while this query
      // waits for a slot dedup onto the entry instead of queueing their
      // own execution.
      entry = std::make_shared<Inflight>();
      inflight_[key.canonical] = entry;
      // Acquire a slot, honoring the token throughout: a query whose
      // deadline expires (or whose server is cancelled) before it ever
      // runs has no partial waves to report, so it answers with the bare
      // error. `queued` flips only once the query genuinely blocks —
      // a query admitted straight into a free slot never inflates
      // waiting_ (which the shed check above compares to max_queue).
      bool queued = false;
      for (;;) {
        const StatusCode why = token.Check();
        if (why != StatusCode::kOk) {
          slot_st = CancelToken::ToStatus(why, "queued query " + request.id);
          if (queued) --waiting_;
          break;
        }
        if (running_ < cap) {
          ++running_;
          if (queued) --waiting_;
          ++stats_.computed;
          break;
        }
        if (!queued) {
          queued = true;
          ++waiting_;
        }
        slot_cv_.wait_for(lock, std::chrono::milliseconds(10));
      }
    }
  }
  if (memo_hit != nullptr) {
    // The per-caller copy happens outside the lock; memo entries are
    // immutable and shared by pointer, so the hit itself was O(1).
    QueryResult res = *memo_hit;
    res.id = request.id;
    res.graph = request.graph;
    res.mode = ServeMode::kMemoized;
    res.seconds = 0.0;
    return res;
  }

  QueryResult res;
  if (!slot_st.ok()) {
    res.status = slot_st;
  } else {
    // The owner must always complete the in-flight entry — a throw from
    // the estimator (e.g. bad_alloc) that left it pending would wedge
    // every future request with this key in the dedup wait.
    try {
      if (options_.supervisor != nullptr) {
        // The worker keys its engine state by (graph, statistical query):
        // id and graph are routing fields, not statistical parameters, so
        // they are stripped from the wire encoding — two clients asking
        // the same question share one replayable state.
        QueryRequest wire = canonical;
        wire.id.clear();
        wire.graph.clear();
        ShardedQuery shard(options_.supervisor, canonical.graph,
                           snap->fingerprint(), SerializeQueryRequest(wire),
                           &token);
        res = session->RunCanonical(*snap, canonical, &token, &shard);
      } else {
        res = session->RunCanonical(*snap, canonical, &token);
      }
    } catch (const std::exception& e) {
      res.status = Status::Internal(std::string("query execution failed: ") +
                                    e.what());
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
    }
    slot_cv_.notify_one();
  }
  res.id = request.id;
  res.graph = request.graph;
  res.estimator = canonical.estimator;  // a no-op when RunCanonical ran
  if (res.status.ok()) res.mode = ServeMode::kComputed;
  // Materialize the memo entry before taking the lock: the O(|result|)
  // copy should not serialize other drivers. Degraded results are
  // deliberately not memoized — their bytes depend on where the clock cut
  // the run, which the cache key cannot pin.
  std::shared_ptr<const QueryResult> memo_entry;
  if (res.status.ok() && !res.degraded) {
    memo_entry = std::make_shared<const QueryResult>(res);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Charged with the run's own compute seconds (shard RPCs included):
    // the eviction rule keeps what is dear to recompute.
    if (memo_entry != nullptr) {
      memo_.Insert(key.canonical, std::move(memo_entry), res.seconds);
    }
    if (!res.status.ok()) {
      ++stats_.errors;  // shed/expired/failed: visible in the error count
      if (res.status.code() == StatusCode::kCancelled) ++stats_.cancelled;
    } else if (res.degraded) {
      ++stats_.degraded;
    }
    entry->result = res;
    entry->done = true;
    inflight_.erase(key.canonical);
  }
  entry->cv.notify_all();
  return res;
}

std::vector<QueryResult> BatchScheduler::RunBatch(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());
  const size_t admit =
      std::min<size_t>(std::max<uint32_t>(1, options_.max_concurrent),
                       requests.size());
  if (admit <= 1) {
    for (size_t i = 0; i < requests.size(); ++i) results[i] = Run(requests[i]);
    return results;
  }
  // Driver threads pull the next unanswered request; sampling inside each
  // query still fans out on SharedThreadPool (per-call task groups keep
  // the drivers independent there).
  std::atomic<size_t> next{0};
  auto drive = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= requests.size()) return;
      results[i] = Run(requests[i]);
    }
  };
  std::vector<std::thread> drivers;
  drivers.reserve(admit);
  for (size_t t = 0; t < admit; ++t) drivers.emplace_back(drive);
  for (auto& d : drivers) d.join();
  return results;
}

SchedulerStats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats snapshot = stats_;
  snapshot.evictions = memo_.evictions();
  snapshot.memo_bytes = memo_.bytes();
  snapshot.memo_saved_seconds = memo_.saved_seconds();
  snapshot.queued = waiting_;
  return snapshot;
}

}  // namespace saphyra
