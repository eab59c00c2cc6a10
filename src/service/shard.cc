#include "service/shard.h"

#include <sched.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "net/frame.h"
#include "service/json_util.h"
#include "service/shard_worker.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace saphyra {

namespace {

/// Cores this process may run on: its CPU affinity mask, which also
/// reflects taskset/cpuset limits.
uint32_t AvailableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<uint32_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The RPC deadline of one worker exchange: the query's effective
/// deadline, capped by the per-RPC timeout that distinguishes a hung
/// worker from a merely long query.
Deadline RpcDeadline(const CancelToken* cancel, uint64_t rpc_timeout_ms) {
  Deadline rpc = Deadline::AfterMillis(rpc_timeout_ms);
  if (cancel != nullptr) {
    const Deadline query = cancel->EffectiveDeadline();
    if (query.steady_nanos() < rpc.steady_nanos()) return query;
  }
  return rpc;
}

/// Milliseconds from now until `d` (0 when unbounded — the worker treats
/// budget_ms 0 as "no deadline").
uint64_t BudgetMillis(Deadline d) {
  if (d.unbounded()) return 0;
  const int64_t ns = d.steady_nanos() - Deadline::NowNanos();
  if (ns <= 0) return 1;  // expired: let the worker report it immediately
  return static_cast<uint64_t>(ns / 1000000) + 1;
}

/// True when a non-OK RPC status is the *query's* doing (deadline or
/// cancellation), which must propagate as-is instead of burning retry
/// budget on a healthy pool.
bool IsQueryLevel(const Status& st, const CancelToken* cancel) {
  if (st.code() == StatusCode::kCancelled) return true;
  if (st.code() != StatusCode::kDeadlineExceeded) return false;
  if (cancel == nullptr) return false;  // only the RPC timeout can expire
  const Deadline query = cancel->EffectiveDeadline();
  return !query.unbounded() && query.expired();
}

}  // namespace

// ---------------------------------------------------------------------------
// WorkerSupervisor

WorkerSupervisor::WorkerSupervisor(WorkerLauncher* launcher,
                                   const ShardOptions& options)
    : launcher_(launcher),
      options_(options),
      backoff_rng_(0x5eedu) {
  SAPHYRA_CHECK(options_.num_workers >= 1);
  coordinator_draws_ =
      CoordinatorDrawsShare(options_.num_workers, AvailableCores());
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

WorkerSupervisor::~WorkerSupervisor() { Shutdown(); }

Status WorkerSupervisor::Start() {
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    Worker* w = workers_[i].get();
    std::lock_guard<std::mutex> lock(w->mu);
    SAPHYRA_RETURN_NOT_OK(EnsureAliveLocked(i, w, /*first_launch=*/true));
  }
  if (options_.heartbeat_ms > 0) {
    heartbeat_ = std::thread([this] { HeartbeatLoop(); });
  }
  started_ = true;
  return Status::OK();
}

void WorkerSupervisor::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_.joinable()) heartbeat_.join();
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    std::lock_guard<std::mutex> lock(w->mu);
    if (w->alive && w->conn.valid()) {
      // Best-effort clean quit; a worker that ignores it is reaped by the
      // launcher anyway.
      net::SendFrame(w->conn.get(), "{\"type\":\"quit\"}",
                     Deadline::AfterMillis(200));
    }
    w->conn.Reset();
    w->alive = false;
    w->alive_gauge.store(false, std::memory_order_relaxed);
  }
}

void WorkerSupervisor::MarkDeadLocked(Worker* w) {
  w->conn.Reset();
  w->alive = false;
  w->alive_gauge.store(false, std::memory_order_relaxed);
  ++w->consecutive_failures;
  // Exponential backoff with deterministic ±25% jitter, so a crash-looping
  // worker binary cannot hot-spin the supervisor while every retry round
  // still lands at a slightly different phase.
  uint64_t base = options_.backoff_initial_ms;
  for (uint32_t i = 1; i < w->consecutive_failures && base < options_.backoff_max_ms;
       ++i) {
    base *= 2;
  }
  base = std::min(base, options_.backoff_max_ms);
  uint64_t jittered = base;
  {
    std::lock_guard<std::mutex> lock(backoff_mu_);
    const uint64_t span = std::max<uint64_t>(1, base / 2);  // ±25%
    jittered = base - base / 4 + backoff_rng_.UniformInt(span);
  }
  w->restart_after_ns =
      Deadline::NowNanos() + static_cast<int64_t>(jittered) * 1000000;
}

Status WorkerSupervisor::EnsureAliveLocked(uint32_t index, Worker* w,
                                           bool first_launch) {
  if (w->alive) return Status::OK();
  if (!first_launch && Deadline::NowNanos() < w->restart_after_ns) {
    return Status::Unavailable("worker " + std::to_string(index) +
                               " is backing off");
  }
  net::UniqueFd conn;
  Status st = launcher_->Launch(index, &conn);
  if (!st.ok()) {
    MarkDeadLocked(w);
    return st;
  }
  w->conn = std::move(conn);
  w->alive = true;
  w->alive_gauge.store(true, std::memory_order_relaxed);
  w->consecutive_failures = 0;
  if (!first_launch) w->restarts.fetch_add(1, std::memory_order_relaxed);

  // A fresh incarnation loaded its graphs from disk — epoch 0. Replay the
  // full mutation log before this worker serves a wave, or its
  // fingerprints (and result bits) would lag the coordinator's graphs.
  std::vector<MutationLogEntry> log;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    log = mutation_log_;
  }
  for (const MutationLogEntry& entry : log) {
    st = UpdateRpc(index, w, entry);
    if (!st.ok()) {
      MarkDeadLocked(w);
      return Status::Unavailable("worker " + std::to_string(index) +
                                 " failed mutation-log replay: " +
                                 st.ToString());
    }
  }
  return Status::OK();
}

Status WorkerSupervisor::UpdateRpc(uint32_t index, Worker* w,
                                   const MutationLogEntry& entry) {
  const Deadline deadline = Deadline::AfterMillis(options_.rpc_timeout_ms);
  std::string msg =
      "{\"type\":\"update\",\"graph\":" + JsonQuote(entry.graph) +
      ",\"action\":";
  msg += entry.mut.kind == EdgeMutationKind::kInsert ? "\"insert\""
                                                     : "\"delete\"";
  msg += ",\"u\":" + std::to_string(entry.mut.u) +
         ",\"v\":" + std::to_string(entry.mut.v) +
         ",\"fingerprint\":" + std::to_string(entry.expect_fingerprint) + "}";
  Status st = net::SendFrame(w->conn.get(), msg, deadline);
  std::string reply;
  if (st.ok()) st = net::RecvFrame(w->conn.get(), &reply, deadline);
  if (!st.ok()) return st;
  JsonValue doc;
  st = ParseJson(reply, &doc);
  const JsonValue* ok = st.ok() ? doc.Find("ok") : nullptr;
  if (!st.ok() || ok == nullptr || ok->type != JsonValue::Type::kBool) {
    return Status::Internal("worker " + std::to_string(index) +
                            " sent a malformed update reply");
  }
  if (!ok->bool_value) {
    const JsonValue* error = doc.Find("error");
    return Status::Internal(
        "worker " + std::to_string(index) + " rejected update: " +
        (error != nullptr && error->type == JsonValue::Type::kString
             ? error->string_value
             : "unknown error"));
  }
  return Status::OK();
}

void WorkerSupervisor::BroadcastUpdate(const std::string& graph,
                                       const EdgeMutation& mut,
                                       uint64_t expect_fingerprint) {
  MutationLogEntry entry;
  entry.graph = graph;
  entry.mut = mut;
  entry.expect_fingerprint = expect_fingerprint;
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    mutation_log_.push_back(entry);
  }
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    Worker* w = workers_[i].get();
    std::lock_guard<std::mutex> lock(w->mu);
    const bool was_alive = w->alive;
    Status st = EnsureAliveLocked(i, w, /*first_launch=*/false);
    // Dead and backing off: fine — the restart replays the log, which
    // already holds this entry. A relaunch inside EnsureAliveLocked also
    // replayed it; only a worker that was already up needs the push.
    if (!st.ok() || !was_alive) continue;
    st = UpdateRpc(i, w, entry);
    if (!st.ok()) MarkDeadLocked(w);
  }
}

Status WorkerSupervisor::WaveRpcSend(uint32_t index, const WaveSpec& spec,
                                     const std::vector<uint32_t>& stripes,
                                     InFlightRpc* rpc, bool* worker_fault) {
  *worker_fault = true;  // transport errors default to "the worker's fault"
  Worker* w = workers_[index].get();
  rpc->index = index;
  rpc->lock = std::unique_lock<std::mutex>(w->mu);
  Status st = EnsureAliveLocked(index, w, /*first_launch=*/false);
  if (!st.ok()) return st;

  rpc->deadline = RpcDeadline(spec.cancel, options_.rpc_timeout_ms);
  std::string msg = "{\"type\":\"wave\",\"graph\":" + JsonQuote(spec.graph) +
                    ",\"fingerprint\":" + std::to_string(spec.fingerprint) +
                    ",\"ordinal\":" + std::to_string(spec.ordinal) +
                    ",\"num_stripes\":" + std::to_string(spec.num_stripes) +
                    ",\"from\":" + std::to_string(spec.from) +
                    ",\"to\":" + std::to_string(spec.to) +
                    ",\"budget_ms\":" +
                    std::to_string(BudgetMillis(rpc->deadline)) +
                    ",\"stripes\":";
  std::vector<uint64_t> wide(stripes.begin(), stripes.end());
  AppendUintArray(wide, &msg);
  msg += ",\"query\":" + JsonQuote(spec.query_json) + "}";

  st = net::SendFrame(w->conn.get(), msg, rpc->deadline);
  // A partly written frame leaves the stream unusable either way.
  if (!st.ok()) return DropFailedRpcLocked(w, spec, st, worker_fault);
  return Status::OK();
}

Status WorkerSupervisor::DropFailedRpcLocked(Worker* w, const WaveSpec& spec,
                                             const Status& st,
                                             bool* worker_fault) {
  MarkDeadLocked(w);
  if (!IsQueryLevel(st, spec.cancel)) return st;
  // The query ran out of time mid-RPC; the worker may well be fine. The
  // connection goes anyway — its next frame would be the stale wave
  // reply, which no one is going to read.
  *worker_fault = false;
  w->consecutive_failures = 0;  // not the worker's fault
  StatusCode why = spec.cancel != nullptr ? spec.cancel->Poll()
                                          : StatusCode::kDeadlineExceeded;
  if (why == StatusCode::kOk) why = StatusCode::kDeadlineExceeded;
  return CancelToken::ToStatus(why, "shard wave RPC");
}

Status WorkerSupervisor::WaveRpcRecv(const InFlightRpc& rpc,
                                     const WaveSpec& spec,
                                     RawSampleDelta* delta,
                                     bool* worker_fault) {
  *worker_fault = true;
  const uint32_t index = rpc.index;
  Worker* w = workers_[index].get();
  std::string reply;
  Status st = net::RecvFrame(w->conn.get(), &reply, rpc.deadline);
  if (!st.ok()) return DropFailedRpcLocked(w, spec, st, worker_fault);

  JsonValue doc;
  st = ParseJson(reply, &doc);
  const JsonValue* ok = st.ok() ? doc.Find("ok") : nullptr;
  if (!st.ok() || ok == nullptr || ok->type != JsonValue::Type::kBool) {
    MarkDeadLocked(w);
    return Status::Internal("worker " + std::to_string(index) +
                            " sent a malformed wave reply");
  }
  if (!ok->bool_value) {
    const JsonValue* code = doc.Find("code");
    const JsonValue* error = doc.Find("error");
    const std::string code_s =
        code != nullptr && code->type == JsonValue::Type::kString
            ? code->string_value
            : "INTERNAL";
    const std::string error_s =
        error != nullptr && error->type == JsonValue::Type::kString
            ? error->string_value
            : "worker error";
    if (code_s == "DEADLINE_EXCEEDED" || code_s == "CANCELLED") {
      // The worker hit the query's budget while drawing — query-level,
      // and the worker is healthy (it answered).
      *worker_fault = false;
      return code_s == "CANCELLED" ? Status::Cancelled(error_s)
                                   : Status::DeadlineExceeded(error_s);
    }
    // A deterministic worker-side failure (bad graph, fingerprint
    // mismatch, malformed query) would fail identically everywhere:
    // retrying it on a survivor would burn the budget for nothing.
    *worker_fault = false;
    return Status::Internal("worker " + std::to_string(index) + ": " +
                            error_s);
  }

  st = DecodeDeltaReply(doc, delta);
  if (!st.ok()) {
    MarkDeadLocked(w);
    return st;
  }
  w->consecutive_failures = 0;
  w->waves.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status WorkerSupervisor::ExecuteWave(const WaveSpec& spec,
                                     RawSampleDelta* out) {
  *out = RawSampleDelta();
  SAPHYRA_CHECK(spec.to > spec.from);
  SAPHYRA_CHECK(spec.num_stripes >= 1);

  // Stripes with a non-zero quota in [from, to). Stripe deltas are pure
  // functions of (query, stripe, range), so WHERE each one runs is
  // irrelevant to the merged bits — the whole point of this tier. Given
  // the query's engine and a core to spare, the coordinator keeps
  // s ≡ 0 (mod N+1): the largest share, since it pays no RPC.
  const uint32_t n = options_.num_workers;
  const bool local = spec.local != nullptr && coordinator_draws_;
  std::vector<uint32_t> remaining, coordinator;
  for (uint32_t s = 0; s < spec.num_stripes; ++s) {
    if (StripeSamplesBelow(spec.to, s, spec.num_stripes) >
        StripeSamplesBelow(spec.from, s, spec.num_stripes)) {
      (local && s % (n + 1) == 0 ? coordinator : remaining).push_back(s);
    }
  }
  // Stripes that were part of a failed RPC; landing on any worker now
  // counts as a reassignment.
  std::vector<bool> failed_once(spec.num_stripes, false);

  uint32_t failed_rounds = 0;
  Status last_fault = Status::OK();
  while (!remaining.empty() || !coordinator.empty()) {
    if (spec.cancel != nullptr) {
      const StatusCode why = spec.cancel->Poll();
      if (why != StatusCode::kOk) {
        return CancelToken::ToStatus(why, "shard wave");
      }
    }

    // Round-robin the remaining stripes over every worker index; workers
    // that turn out dead (and unrestartable) fail their slice into the
    // next round.
    std::vector<std::vector<uint32_t>> assigned(n);
    for (size_t i = 0; i < remaining.size(); ++i) {
      assigned[i % n].push_back(remaining[i]);
    }

    std::vector<uint32_t> next_remaining;
    bool any_fault = false;
    // The first query-level or deterministic error of the round. Once
    // set, no further slice is sent and the replies still in flight are
    // drained (or their connections dropped) without being merged.
    Status stop = Status::OK();
    // A worker fault sends the slice to the next round; any other failure
    // stops this one.
    auto fail_slice = [&](uint32_t i, const Status& st, bool worker_fault) {
      if (!worker_fault) {
        stop = st;
        return;
      }
      any_fault = true;
      last_fault = st;
      workers_[i]->retries.fetch_add(1, std::memory_order_relaxed);
      for (uint32_t s : assigned[i]) {
        failed_once[s] = true;
        next_remaining.push_back(s);
      }
    };

    // Scatter: lock (ascending index order — the deadlock-freedom rule
    // between concurrent queries) and send every slice before waiting on
    // any reply, so the workers draw at the same time.
    std::vector<InFlightRpc> in_flight;
    in_flight.reserve(n);
    for (uint32_t i = 0; i < n && stop.ok(); ++i) {
      if (assigned[i].empty()) continue;
      InFlightRpc rpc;
      bool worker_fault = false;
      Status st = WaveRpcSend(i, spec, assigned[i], &rpc, &worker_fault);
      if (st.ok()) {
        in_flight.push_back(std::move(rpc));
      } else {
        fail_slice(i, st, worker_fault);
      }
    }

    // The coordinator's own share, drawn while the workers draw theirs —
    // in the first round only: it never fails over to a retry round.
    if (!coordinator.empty() && stop.ok()) {
      stop = fail::FaultStatus("shard.coordinator_stripe");
      if (stop.ok()) {
        stop = spec.local->DrawStripes(coordinator, spec.from, spec.to,
                                       spec.cancel, out);
      }
      if (stop.ok()) {
        coordinator_stripes_.fetch_add(coordinator.size(),
                                       std::memory_order_relaxed);
      }
      // A worker's hang timeout runs from here: the coordinator's own
      // draw time is not the worker's.
      for (InFlightRpc& rpc : in_flight) {
        rpc.deadline = RpcDeadline(spec.cancel, options_.rpc_timeout_ms);
      }
    }
    coordinator.clear();

    // Gather in index order. Merge order is irrelevant to the integer
    // sums; a fixed order just keeps the failure bookkeeping reproducible.
    for (InFlightRpc& rpc : in_flight) {
      const uint32_t i = rpc.index;
      RawSampleDelta part;
      bool worker_fault = false;
      Status st = WaveRpcRecv(rpc, spec, &part, &worker_fault);
      rpc.lock.unlock();
      if (!stop.ok()) continue;  // drained or dropped; nothing to merge
      if (!st.ok()) {
        fail_slice(i, st, worker_fault);
        continue;
      }
      st = AddDelta(part, out);
      if (!st.ok()) {
        stop = st;
        continue;
      }
      uint64_t inherited = 0;
      for (uint32_t s : assigned[i]) {
        if (failed_once[s]) ++inherited;
      }
      if (inherited > 0) {
        workers_[i]->stripes_reassigned.fetch_add(inherited,
                                                  std::memory_order_relaxed);
      }
    }
    if (!stop.ok()) return stop;

    remaining = std::move(next_remaining);
    if (remaining.empty()) break;
    SAPHYRA_CHECK(any_fault);
    if (++failed_rounds > options_.retry_budget) {
      return Status::Unavailable(
          "shard_lost: wave [" + std::to_string(spec.from) + ", " +
          std::to_string(spec.to) + ") failed " +
          std::to_string(failed_rounds) + " rounds (retry budget " +
          std::to_string(options_.retry_budget) + "): " +
          last_fault.ToString());
    }
    // Give restart backoffs a moment to elapse before the next round, but
    // never past the query's own deadline.
    int64_t sleep_until = Deadline::NowNanos() + 2 * 1000000;
    for (auto& worker : workers_) {
      // Unlocked peek at the backoff gate: a stale read only mistimes the
      // retry round, it cannot corrupt anything.
      sleep_until = std::max(sleep_until, worker->restart_after_ns);
    }
    const Deadline query = spec.cancel != nullptr
                               ? spec.cancel->EffectiveDeadline()
                               : Deadline::Never();
    if (!query.unbounded()) {
      sleep_until = std::min(sleep_until, query.steady_nanos());
    }
    sleep_until = std::min(
        sleep_until,
        Deadline::NowNanos() +
            static_cast<int64_t>(options_.backoff_max_ms) * 1000000);
    const int64_t delta_ns = sleep_until - Deadline::NowNanos();
    if (delta_ns > 0) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(delta_ns));
    }
  }
  return Status::OK();
}

std::vector<ShardWorkerStats> WorkerSupervisor::stats() const {
  std::vector<ShardWorkerStats> out;
  out.reserve(workers_.size());
  for (uint32_t i = 0; i < workers_.size(); ++i) {
    const Worker* w = workers_[i].get();
    ShardWorkerStats s;
    s.index = i;
    s.alive = w->alive_gauge.load(std::memory_order_relaxed);
    s.waves = w->waves.load(std::memory_order_relaxed);
    s.restarts = w->restarts.load(std::memory_order_relaxed);
    s.retries = w->retries.load(std::memory_order_relaxed);
    s.stripes_reassigned =
        w->stripes_reassigned.load(std::memory_order_relaxed);
    s.heartbeat_misses = w->heartbeat_misses.load(std::memory_order_relaxed);
    out.push_back(s);
  }
  return out;
}

void WorkerSupervisor::HeartbeatLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock, std::chrono::milliseconds(options_.heartbeat_ms),
                      [this] { return shutting_down_; });
      if (shutting_down_) return;
    }
    for (auto& worker : workers_) {
      Worker* w = worker.get();
      // A worker busy with an RPC is demonstrating liveness (or will be
      // caught by that RPC's own timeout); never queue behind it.
      std::unique_lock<std::mutex> lock(w->mu, std::try_to_lock);
      if (!lock.owns_lock() || !w->alive) continue;
      const Deadline deadline = Deadline::AfterMillis(options_.heartbeat_ms);
      Status st = net::SendFrame(w->conn.get(), "{\"type\":\"ping\"}",
                                 deadline);
      std::string reply;
      if (st.ok()) st = net::RecvFrame(w->conn.get(), &reply, deadline);
      if (!st.ok()) {
        w->heartbeat_misses.fetch_add(1, std::memory_order_relaxed);
        MarkDeadLocked(w);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ProcessWorkerLauncher

ProcessWorkerLauncher::ProcessWorkerLauncher(Options options)
    : options_(std::move(options)) {}

ProcessWorkerLauncher::~ProcessWorkerLauncher() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [index, pid] : pids_) {
    (void)index;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
  }
  pids_.clear();
}

void ProcessWorkerLauncher::KillLocked(uint32_t index) {
  auto it = pids_.find(index);
  if (it != pids_.end()) {
    ::kill(it->second, SIGKILL);
    int wstatus = 0;
    ::waitpid(it->second, &wstatus, 0);
    pids_.erase(it);
  }
  // A stale hello from the dead incarnation must not satisfy the next
  // Launch of this index.
  pending_.erase(index);
}

Status ProcessWorkerLauncher::Launch(uint32_t index, net::UniqueFd* conn) {
  std::lock_guard<std::mutex> lock(mu_);
  KillLocked(index);

  std::vector<std::string> args;
  args.push_back(options_.worker_binary);
  args.push_back("--connect");
  args.push_back(net::EndpointToString(options_.endpoint));
  args.push_back("--index");
  args.push_back(std::to_string(index));
  for (const std::string& g : options_.graph_args) {
    args.push_back("--graph");
    args.push_back(g);
  }
  for (const std::string& a : options_.extra_args) args.push_back(a);

  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed; the parent sees the dropped rendezvous
  }
  pids_[index] = pid;

  // Wait for THIS index's hello. Connections from other slow spawns can
  // arrive first; park them for the Launch that wants them.
  const Deadline deadline = Deadline::AfterMillis(options_.launch_timeout_ms);
  for (;;) {
    auto it = pending_.find(index);
    if (it != pending_.end()) {
      *conn = std::move(it->second);
      pending_.erase(it);
      return Status::OK();
    }
    net::UniqueFd accepted;
    Status st = net::Accept(options_.listen_fd, deadline, &accepted);
    std::string hello;
    if (st.ok()) {
      st = net::RecvFrame(accepted.get(), &hello, deadline);
    }
    if (!st.ok()) {
      KillLocked(index);
      return Status::Unavailable("worker " + std::to_string(index) +
                                 " failed to rendezvous: " + st.ToString());
    }
    JsonValue doc;
    st = ParseJson(hello, &doc);
    const JsonValue* idx = st.ok() ? doc.Find("index") : nullptr;
    if (idx == nullptr || idx->type != JsonValue::Type::kNumber ||
        !idx->is_uint) {
      // Not a worker hello; drop the connection and keep waiting.
      continue;
    }
    pending_[static_cast<uint32_t>(idx->uint_value)] = std::move(accepted);
  }
}

// ---------------------------------------------------------------------------
// ShardedQuery

ShardedQuery::ShardedQuery(WorkerSupervisor* supervisor, std::string graph,
                           uint64_t fingerprint, std::string query_json,
                           const CancelToken* cancel)
    : supervisor_(supervisor),
      graph_(std::move(graph)),
      fingerprint_(fingerprint),
      query_json_(std::move(query_json)),
      cancel_(cancel) {}

WaveExecutor* ShardedQuery::ExecutorFor(uint32_t ordinal) {
  if (engines_.size() <= ordinal) engines_.resize(ordinal + 1);
  if (engines_[ordinal] == nullptr) {
    engines_[ordinal] = std::make_unique<Engine>(this, ordinal);
  }
  return engines_[ordinal].get();
}

Status ShardedQuery::Engine::ExecuteWaveOn(SampleEngine* engine,
                                           uint64_t current, uint64_t target,
                                           size_t num_stripes,
                                           RawSampleDelta* out) {
  WaveSpec spec;
  spec.graph = query_->graph_;
  spec.fingerprint = query_->fingerprint_;
  spec.query_json = query_->query_json_;
  spec.ordinal = ordinal_;
  spec.num_stripes = num_stripes;
  spec.from = current;
  spec.to = target;
  spec.cancel = query_->cancel_;
  spec.local = engine;
  return query_->supervisor_->ExecuteWave(spec, out);
}

}  // namespace saphyra
