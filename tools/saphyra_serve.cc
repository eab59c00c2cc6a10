// saphyra_serve — multi-query, multi-graph serving front end.
//
// Hosts one or more graphs in a fingerprint-keyed SessionPool: each
// `--graph NAME=PATH` registration is loaded lazily into a warm
// QuerySession on its first query (cache-aware: a fresh `<graph>.sgr` is
// mmap'ed, preprocessing adopted), kept warm across queries, and
// LRU-evicted once more than --max-graphs are resident — in-flight
// queries pin their session, so eviction never interrupts them. Requests
// pick their graph with a `"graph"` field ("" or absent = the first
// registered graph); results are answered through the BatchScheduler:
// concurrent admission, identical in-flight requests collapsed onto one
// execution, completed results memoized keyed by (graph fingerprint,
// canonical query) — shared across graphs, partitioned by the
// fingerprint, and evicted by GreedyDual-frequency credit charged with
// each result's measured compute time. Heterogeneous queries — bc, k-path, closeness, ABRA,
// KADABRA, each with its own ε/δ/seed/strategy/top-k — share the warm
// index and thread pool.
//
// Usage:
//   saphyra_serve --graph [NAME=]FILE [--graph NAME=FILE ...]
//                 [--format snap|dimacs|sgr|auto]
//                 [--max-graphs G]       (resident sessions, default 4)
//                 [--preload]            (load every graph at startup)
//                 [--requests FILE]      (default: stdin; "-" = stdin)
//                 [--concurrency N]      (default 1: serial admission)
//                 [--threads T]          (default sampling threads, def. 1)
//                 [--memo-capacity M]    (memo entries, default 64; 0 = off)
//                 [--memo-capacity-bytes B]  (memo bytes, default 64 MiB;
//                                             0 = unbounded)
//                 [--repeat R]           (serve the request list R times)
//                 [--default-deadline-ms D]  (deadline for requests without
//                                             one; 0 = unbounded, default)
//                 [--max-queue Q]        (shed beyond Q queued; 0 = unbounded)
//                 [--drain-ms D]         (drain window after SIGINT/SIGTERM,
//                                         default 2000)
//                 [--workers N]          (sharded tier: N worker processes,
//                                         0 = sample locally, default)
//                 [--shard-socket SPEC]  (worker rendezvous endpoint,
//                                         unix:/path or tcp:host:port;
//                                         default unix:/tmp/saphyra_shard_<pid>)
//                 [--retry-budget R]     (failed wave rounds tolerated before
//                                         a query degrades, default 2)
//                 [--heartbeat-ms H]     (worker health-check period,
//                                         0 = off, default 1000)
//                 [--allow-updates]      (accept {"op":"update"} mutation
//                                         requests; off = FAILED_PRECONDITION)
//                 [--no-cache] [--output FILE] [--stats-json FILE]
//
// Request lines (see docs/serving.md for the full schema):
//   {"id":"q1","estimator":"bc","epsilon":0.05,"delta":0.01,"seed":7,
//    "targets":[1,2,3]}
//   {"id":"q2","graph":"road","estimator":"kadabra","epsilon":0.1,"topk":10}
//
// One JSON result line per request, in request order:
//   {"id":"q1","ok":true,"estimator":"bc","served":"computed",
//    "samples":512,"seconds":0.004,"nodes":[1,2,3],"estimates":[...]}
//
// Estimates are deterministic: for a fixed seed a query returns
// bitwise-identical values whether it runs cold, warm, batched, from the
// memo, or against a reloaded-after-eviction graph (`served` tells
// which). Diagnostics and the final latency/throughput summary go to
// stderr; --stats-json additionally writes the summary — including a
// per-graph "graphs" array — as one JSON object.
//
// --repeat R re-serves the whole request list R times — the easy way to
// watch the memo work: the second pass serves every line with
// "served":"memo" at ~zero latency.
//
// Shutdown: SIGINT/SIGTERM starts a graceful drain — in-flight queries
// get --drain-ms to finish (after which they finalize degraded at their
// next wave), no further repeat pass starts, and the process exits with
// the normal summary. A second signal hard-cancels immediately.
//
// Sharded tier (--workers N, docs/serving.md "Sharded serving"): sample
// waves are partitioned over N supervised saphyra_worker processes by
// RNG stripe and merged by integer sum — bitwise identical to local
// sampling at any N. Worker crashes are retried with stripe reassignment
// and backoff restarts; past --retry-budget failed rounds a query
// answers degraded ("degrade_reason":"shard_lost"), never an error.
//
// A client that closes the output pipe mid-stream (e.g. `| head`) does
// not kill the server: SIGPIPE is ignored, the write failure is
// detected, remaining passes drain without output, and the exit code is
// unaffected ("output_closed":true in --stats-json).

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flags.h"
#include "net/socket.h"
#include "service/json_util.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "service/shard.h"
#include "util/cancel.h"
#include "util/timer.h"

using namespace saphyra;

namespace {

struct Args {
  /// Registrations in order; first is the default graph. A bare PATH
  /// registers under its own spelling as the name.
  std::vector<std::pair<std::string, std::string>> graphs;
  std::string format = "auto";
  size_t max_graphs = 4;
  bool preload = false;
  std::string requests_path = "-";
  uint32_t concurrency = 1;
  uint32_t threads = 1;
  size_t memo_capacity = 64;
  size_t memo_capacity_bytes = 64ull << 20;
  uint32_t repeat = 1;
  uint64_t default_deadline_ms = 0;
  size_t max_queue = 0;
  uint64_t drain_ms = 2000;
  uint32_t workers = 0;
  std::string shard_socket;
  uint32_t retry_budget = 2;
  uint64_t heartbeat_ms = 1000;
  bool allow_updates = false;
  bool no_cache = false;
  std::string output;
  std::string stats_json;
};

// Shutdown state shared with the detached signal watcher. Static storage
// only: the watcher must stay valid if it outlives main's locals, and the
// server token is the parent of every per-query token the scheduler arms.
CancelToken& ServerToken() {
  static CancelToken* token = new CancelToken();
  return *token;
}
std::atomic<bool> g_shutdown{false};
std::atomic<uint64_t> g_drain_ms{2000};

// sigwait-based shutdown: SIGINT/SIGTERM are blocked in every thread (the
// mask is inherited), and one detached watcher consumes them
// synchronously — no async-signal-safety contortions, and a second signal
// still escalates to a hard cancel.
void StartSignalWatcher(sigset_t set) {
  std::thread([set] {
    bool draining = false;
    for (;;) {
      int sig = 0;
      if (sigwait(&set, &sig) != 0) return;
      if (!draining) {
        draining = true;
        g_shutdown.store(true, std::memory_order_release);
        std::fprintf(stderr,
                     "signal %d: draining in-flight queries (%llu ms "
                     "budget); signal again to hard-cancel\n",
                     sig,
                     static_cast<unsigned long long>(
                         g_drain_ms.load(std::memory_order_acquire)));
        ServerToken().TightenDeadline(Deadline::AfterMillis(
            g_drain_ms.load(std::memory_order_acquire)));
      } else {
        std::fprintf(stderr, "signal %d: hard cancel\n", sig);
        ServerToken().Cancel();
        return;
      }
    }
  }).detach();
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --graph [NAME=]FILE [--graph NAME=FILE ...]\n"
      "          [--format snap|dimacs|sgr|auto] [--max-graphs G] [--preload]\n"
      "          [--requests FILE] [--concurrency N] [--threads T]\n"
      "          [--memo-capacity M] [--memo-capacity-bytes B] [--repeat R]\n"
      "          [--default-deadline-ms D] [--max-queue Q] [--drain-ms D]\n"
      "          [--workers N] [--shard-socket SPEC] [--retry-budget R]\n"
      "          [--heartbeat-ms H] [--allow-updates]\n"
      "          [--no-cache] [--output FILE] [--stats-json FILE]\n",
      argv0);
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    const char* val = nullptr;
    auto parse_uint = [&](auto* out) {
      return ParseUnsignedFlag(key.c_str(), val, out);
    };
    if (key == "--no-cache") {
      args->no_cache = true;
    } else if (key == "--preload") {
      args->preload = true;
    } else if (key == "--allow-updates") {
      args->allow_updates = true;
    } else if (key == "--graph" && (val = next())) {
      args->graphs.push_back(SplitGraphSpec(val));
    } else if (key == "--format" && (val = next())) {
      args->format = val;
    } else if (key == "--max-graphs" && (val = next())) {
      if (!parse_uint(&args->max_graphs)) return false;
    } else if (key == "--requests" && (val = next())) {
      args->requests_path = val;
    } else if (key == "--concurrency" && (val = next())) {
      if (!parse_uint(&args->concurrency)) return false;
    } else if (key == "--threads" && (val = next())) {
      if (!parse_uint(&args->threads)) return false;
    } else if (key == "--memo-capacity" && (val = next())) {
      if (!parse_uint(&args->memo_capacity)) return false;
    } else if (key == "--memo-capacity-bytes" && (val = next())) {
      if (!parse_uint(&args->memo_capacity_bytes)) return false;
    } else if (key == "--repeat" && (val = next())) {
      if (!parse_uint(&args->repeat)) return false;
    } else if (key == "--default-deadline-ms" && (val = next())) {
      if (!parse_uint(&args->default_deadline_ms)) return false;
    } else if (key == "--max-queue" && (val = next())) {
      if (!parse_uint(&args->max_queue)) return false;
    } else if (key == "--drain-ms" && (val = next())) {
      if (!parse_uint(&args->drain_ms)) return false;
    } else if (key == "--workers" && (val = next())) {
      if (!parse_uint(&args->workers)) return false;
    } else if (key == "--shard-socket" && (val = next())) {
      args->shard_socket = val;
    } else if (key == "--retry-budget" && (val = next())) {
      if (!parse_uint(&args->retry_budget)) return false;
    } else if (key == "--heartbeat-ms" && (val = next())) {
      if (!parse_uint(&args->heartbeat_ms)) return false;
    } else if (key == "--output" && (val = next())) {
      args->output = val;
    } else if (key == "--stats-json" && (val = next())) {
      args->stats_json = val;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", key.c_str());
      return false;
    }
  }
  if (args->graphs.empty()) {
    std::fprintf(stderr, "--graph is required\n");
    return false;
  }
  if (args->concurrency == 0 || args->repeat == 0) {
    std::fprintf(stderr, "--concurrency and --repeat must be >= 1\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  // A client closing our output pipe must be an ordinary stream error,
  // not a process kill: detected per line, remaining work drains.
  signal(SIGPIPE, SIG_IGN);

  // Block the shutdown signals before any thread exists so every later
  // thread inherits the mask and only the watcher ever sees them.
  g_drain_ms.store(args.drain_ms, std::memory_order_release);
  sigset_t shutdown_set;
  sigemptyset(&shutdown_set);
  sigaddset(&shutdown_set, SIGINT);
  sigaddset(&shutdown_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_set, nullptr);
  StartSignalWatcher(shutdown_set);

  // --- register the graphs, load the default one now --------------------
  // The default graph loads eagerly whatever --preload says: a typo'd
  // path should be exit code 1 at startup, not an error line on the
  // first query. The others stay cold until queried (or --preload).
  SessionPoolOptions popts;
  popts.session.load.format = args.format;
  popts.session.load.use_cache = !args.no_cache;
  popts.session.default_threads = std::max(1u, args.threads);
  popts.max_graphs = args.max_graphs;
  SessionPool pool(popts);
  for (const auto& [name, path] : args.graphs) {
    Status st = pool.Register(name, path);
    if (!st.ok()) {
      std::fprintf(stderr, "bad --graph registration: %s\n",
                   st.ToString().c_str());
      return 2;
    }
  }

  Timer timer;
  {
    std::shared_ptr<QuerySession> session;
    Status st = args.preload ? pool.Preload() : pool.Acquire("", &session);
    if (!st.ok()) {
      std::fprintf(stderr, "failed to open session: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    if (session == nullptr) {
      st = pool.Acquire("", &session);  // preload path: re-pin the default
      if (!st.ok()) {
        std::fprintf(stderr, "failed to open session: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    const double load_seconds = timer.ElapsedSeconds();
    std::fprintf(stderr,
                 "session: %s in %s%s, fingerprint %016llx%s\n",
                 session->graph().DebugString().c_str(),
                 FormatDuration(load_seconds).c_str(),
                 session->loaded_from_cache() ? " (.sgr cache)" : "",
                 static_cast<unsigned long long>(session->fingerprint()),
                 args.preload ? " (preloaded all)" : "");
  }
  const double load_seconds = timer.ElapsedSeconds();

  // --- read the request list --------------------------------------------
  std::ifstream req_file;
  std::istream* in = &std::cin;
  if (args.requests_path != "-") {
    req_file.open(args.requests_path);
    if (!req_file) {
      std::fprintf(stderr, "cannot open requests file %s\n",
                   args.requests_path.c_str());
      return 1;
    }
    in = &req_file;
  }
  std::vector<QueryRequest> requests;
  std::vector<QueryResult> parse_errors;  // bad lines answered in place
  std::vector<int> line_kind;             // 0 = request idx, 1 = error idx
  std::string line;
  size_t lineno = 0;
  while (std::getline(*in, line)) {
    ++lineno;
    // Blank lines and # comments keep checked-in request files readable.
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    QueryRequest req;
    Status pst = ParseQueryRequest(line, &req);
    if (!pst.ok()) {
      QueryResult bad;
      bad.id = "line:" + std::to_string(lineno);
      bad.status = pst;
      parse_errors.push_back(std::move(bad));
      line_kind.push_back(1);
      continue;
    }
    if (req.id.empty()) req.id = "line:" + std::to_string(lineno);
    if (req.deadline_ms == 0) req.deadline_ms = args.default_deadline_ms;
    requests.push_back(std::move(req));
    line_kind.push_back(0);
  }
  std::fprintf(stderr, "requests: %zu parsed, %zu invalid\n", requests.size(),
               parse_errors.size());

  // --- sharded tier (optional) ------------------------------------------
  // Declared before the scheduler (which borrows the supervisor) and after
  // the pool (whose graphs the workers mirror), so destruction order tears
  // the tier down while both neighbors are alive.
  net::Endpoint shard_ep;
  net::UniqueFd shard_listen;
  std::unique_ptr<ProcessWorkerLauncher> launcher;
  std::unique_ptr<WorkerSupervisor> supervisor;
  if (args.workers > 0) {
    std::string spec = args.shard_socket;
    if (spec.empty()) {
      spec = "unix:/tmp/saphyra_shard_" + std::to_string(getpid()) + ".sock";
    }
    Status st = net::ParseEndpoint(spec, &shard_ep);
    if (st.ok()) st = net::Listen(shard_ep, &shard_listen);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot bind --shard-socket %s: %s\n", spec.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    // Workers are siblings of this binary; forward the graph registrations
    // and load options verbatim so their pools resolve identically.
    ProcessWorkerLauncher::Options lopts;
    const std::string self = argv[0];
    const size_t slash = self.rfind('/');
    lopts.worker_binary = (slash == std::string::npos
                               ? std::string("./")
                               : self.substr(0, slash + 1)) +
                          "saphyra_worker";
    lopts.endpoint = shard_ep;
    lopts.listen_fd = shard_listen.get();
    for (const auto& [name, path] : args.graphs) {
      lopts.graph_args.push_back(name + "=" + path);
    }
    lopts.extra_args.push_back("--format");
    lopts.extra_args.push_back(args.format);
    lopts.extra_args.push_back("--max-graphs");
    lopts.extra_args.push_back(std::to_string(args.max_graphs));
    if (args.no_cache) lopts.extra_args.push_back("--no-cache");
    launcher = std::make_unique<ProcessWorkerLauncher>(std::move(lopts));

    ShardOptions sopts;
    sopts.num_workers = args.workers;
    sopts.retry_budget = args.retry_budget;
    sopts.heartbeat_ms = args.heartbeat_ms;
    supervisor = std::make_unique<WorkerSupervisor>(launcher.get(), sopts);
    st = supervisor->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "cannot start worker tier: %s\n",
                   st.ToString().c_str());
      if (shard_ep.is_unix) unlink(shard_ep.path.c_str());
      return 1;
    }
    std::fprintf(stderr, "shard tier: %u workers on %s\n", args.workers,
                 spec.c_str());
  }

  // --- serve -------------------------------------------------------------
  SchedulerOptions schopts;
  schopts.max_concurrent = args.concurrency;
  schopts.memo_capacity = args.memo_capacity;
  schopts.memo_capacity_bytes = args.memo_capacity_bytes;
  schopts.max_queue = args.max_queue;
  schopts.server_cancel = &ServerToken();
  schopts.supervisor = supervisor.get();
  schopts.allow_updates = args.allow_updates;
  BatchScheduler scheduler(&pool, schopts);

  std::ofstream file_out;
  std::ostream* out = &std::cout;
  if (!args.output.empty()) {
    file_out.open(args.output);
    if (!file_out) {
      std::fprintf(stderr, "cannot open %s\n", args.output.c_str());
      return 1;
    }
    out = &file_out;
  }

  timer.Restart();
  uint64_t answered = 0;
  double max_query_seconds = 0.0;
  bool any_error = !parse_errors.empty();
  bool output_closed = false;
  uint32_t passes_served = 0;
  for (uint32_t pass = 0; pass < args.repeat; ++pass) {
    std::vector<QueryResult> results = scheduler.RunBatch(requests);
    ++passes_served;
    // Emit in input-line order, interleaving the parse failures where
    // their lines sat. Flushed per line so a closed pipe (client went
    // away, e.g. `| head`) surfaces on THIS line's write, not at some
    // buffer boundary passes later.
    size_t ri = 0, ei = 0;
    for (int kind : line_kind) {
      const QueryResult& res =
          kind == 0 ? results[ri++] : parse_errors[ei++];
      if (!output_closed) {
        *out << SerializeQueryResult(res) << '\n';
        out->flush();
        if (!out->good()) {
          output_closed = true;
          std::fprintf(stderr,
                       "output closed after %llu lines; draining "
                       "remaining queries without output\n",
                       static_cast<unsigned long long>(answered));
        }
      }
      ++answered;
      if (!res.status.ok()) any_error = true;
      max_query_seconds = std::max(max_query_seconds, res.seconds);
    }
    // Drain: finish the pass in flight (every request already answered,
    // degraded past the drain deadline), skip the rest.
    if (g_shutdown.load(std::memory_order_acquire) &&
        pass + 1 < args.repeat) {
      std::fprintf(stderr, "drained after pass %u/%u\n", pass + 1,
                   args.repeat);
      break;
    }
  }
  if (!output_closed) out->flush();
  const double serve_seconds = timer.ElapsedSeconds();
  const SchedulerStats stats = scheduler.stats();
  const std::vector<SessionPoolGraphStats> graph_stats = pool.stats();
  const double qps =
      serve_seconds > 0.0 ? static_cast<double>(answered) / serve_seconds : 0.0;

  const uint64_t invalid =
      stats.errors + parse_errors.size() * passes_served;
  std::fprintf(stderr,
               "served %llu queries in %s (%.1f q/s): %llu computed, "
               "%llu updates, %llu memo, %llu dedup, "
               "%llu error, %llu degraded, %llu shed, %llu cancelled; "
               "max query %s\n",
               static_cast<unsigned long long>(answered),
               FormatDuration(serve_seconds).c_str(), qps,
               static_cast<unsigned long long>(stats.computed),
               static_cast<unsigned long long>(stats.updates),
               static_cast<unsigned long long>(stats.memo_hits),
               static_cast<unsigned long long>(stats.dedup_hits),
               static_cast<unsigned long long>(invalid),
               static_cast<unsigned long long>(stats.degraded),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.cancelled),
               FormatDuration(max_query_seconds).c_str());
  for (const SessionPoolGraphStats& g : graph_stats) {
    std::fprintf(stderr,
                 "graph %s: fingerprint %016llx, %s, %llu acquires, "
                 "%llu loads, %llu evictions\n",
                 g.name.c_str(),
                 static_cast<unsigned long long>(g.fingerprint),
                 g.resident ? "resident" : "cold",
                 static_cast<unsigned long long>(g.acquires),
                 static_cast<unsigned long long>(g.loads),
                 static_cast<unsigned long long>(g.evictions));
  }
  std::vector<ShardWorkerStats> worker_stats;
  uint64_t worker_restarts = 0;
  uint64_t coordinator_stripes = 0;
  if (supervisor != nullptr) {
    coordinator_stripes = supervisor->coordinator_stripes();
    std::fprintf(stderr, "coordinator: %llu stripes drawn in-process\n",
                 static_cast<unsigned long long>(coordinator_stripes));
    worker_stats = supervisor->stats();
    for (const ShardWorkerStats& w : worker_stats) {
      worker_restarts += w.restarts;
      std::fprintf(stderr,
                   "worker %u: %s, %llu waves, %llu restarts, %llu retries, "
                   "%llu stripes_reassigned, %llu heartbeat_misses\n",
                   w.index, w.alive ? "alive" : "dead",
                   static_cast<unsigned long long>(w.waves),
                   static_cast<unsigned long long>(w.restarts),
                   static_cast<unsigned long long>(w.retries),
                   static_cast<unsigned long long>(w.stripes_reassigned),
                   static_cast<unsigned long long>(w.heartbeat_misses));
    }
  }

  if (!args.stats_json.empty()) {
    std::ofstream sj(args.stats_json);
    if (!sj) {
      std::fprintf(stderr, "cannot open %s\n", args.stats_json.c_str());
      return 1;
    }
    sj << "{\"queries\":" << answered << ",\"computed\":" << stats.computed
       << ",\"updates\":" << stats.updates
       << ",\"memo_hits\":" << stats.memo_hits
       << ",\"dedup_hits\":" << stats.dedup_hits
       << ",\"invalid\":" << invalid
       << ",\"degraded\":" << stats.degraded
       << ",\"shed\":" << stats.shed
       << ",\"cancelled\":" << stats.cancelled
       << ",\"memo_bytes\":" << stats.memo_bytes
       << ",\"memo_evictions\":" << stats.evictions
       << ",\"memo_saved_s\":" << stats.memo_saved_seconds
       << ",\"drained\":" << (g_shutdown.load() ? "true" : "false")
       << ",\"output_closed\":" << (output_closed ? "true" : "false")
       << ",\"worker_restarts\":" << worker_restarts
       << ",\"coordinator_stripes\":" << coordinator_stripes
       << ",\"load_seconds\":" << load_seconds
       << ",\"serve_seconds\":" << serve_seconds
       << ",\"queries_per_second\":" << qps
       << ",\"graphs\":[";
    char fp[32];
    for (size_t i = 0; i < graph_stats.size(); ++i) {
      const SessionPoolGraphStats& g = graph_stats[i];
      std::snprintf(fp, sizeof(fp), "%016llx",
                    static_cast<unsigned long long>(g.fingerprint));
      if (i != 0) sj << ',';
      sj << "{\"name\":" << JsonQuote(g.name)
         << ",\"fingerprint\":\"" << fp << '"'
         << ",\"resident\":" << (g.resident ? "true" : "false")
         << ",\"acquires\":" << g.acquires
         << ",\"loads\":" << g.loads
         << ",\"evictions\":" << g.evictions << '}';
    }
    sj << "],\"workers\":[";
    for (size_t i = 0; i < worker_stats.size(); ++i) {
      const ShardWorkerStats& w = worker_stats[i];
      if (i != 0) sj << ',';
      sj << "{\"index\":" << w.index
         << ",\"alive\":" << (w.alive ? "true" : "false")
         << ",\"waves\":" << w.waves
         << ",\"restarts\":" << w.restarts
         << ",\"retries\":" << w.retries
         << ",\"stripes_reassigned\":" << w.stripes_reassigned
         << ",\"heartbeat_misses\":" << w.heartbeat_misses << '}';
    }
    sj << "]}\n";
  }
  // The workers quit before their rendezvous path goes away; stale paths
  // from a crashed run are unlinked by the next Listen anyway.
  if (supervisor != nullptr) {
    supervisor->Shutdown();
    if (shard_ep.is_unix) unlink(shard_ep.path.c_str());
  }
  return any_error ? 3 : 0;
}
