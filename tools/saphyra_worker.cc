// saphyra_worker — sharded serving tier worker process.
//
// Launched by saphyra_serve when --workers N is set (one process per
// shard); not normally invoked by hand. Connects back to the
// coordinator's rendezvous endpoint, announces its shard index with a
// hello frame, then serves the shard RPC protocol (service/shard.h):
// ping health checks and wave requests that draw an assigned subset of a
// sample wave's RNG stripes on a local SampleEngine, shipping back the
// raw integer delta. The coordinator sums the per-stripe deltas, so the
// merged wave is bitwise identical to a local draw (determinism
// contract, DESIGN.md).
//
// Usage:
//   saphyra_worker --connect SPEC --graph [NAME=]FILE [--graph ...]
//                  [--index I] [--format snap|dimacs|sgr|auto]
//                  [--max-graphs G] [--max-states S] [--no-cache]
//
// SPEC is unix:/path/to.sock or host:port, matching saphyra_serve
// --shard-socket. The graph registrations must mirror the coordinator's
// (same names, same files): every wave carries the coordinator graph's
// content fingerprint and the worker refuses a mismatch.
//
// Exit: 0 when the coordinator quits or its connection drops (the normal
// end of a serving run), nonzero on startup errors.

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "flags.h"
#include "net/socket.h"
#include "service/session_pool.h"
#include "service/shard_worker.h"
#include "util/status.h"

using namespace saphyra;

namespace {

struct Args {
  std::string connect;
  std::vector<std::pair<std::string, std::string>> graphs;
  uint32_t index = 0;
  std::string format = "auto";
  size_t max_graphs = 4;
  size_t max_states = 32;
  bool no_cache = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --connect SPEC --graph [NAME=]FILE [--graph ...]\n"
               "          [--index I] [--format snap|dimacs|sgr|auto]\n"
               "          [--max-graphs G] [--max-states S] [--no-cache]\n",
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
    } else if (key == "--connect" && (val = next())) {
      args->connect = val;
    } else if (key == "--graph" && (val = next())) {
      args->graphs.push_back(SplitGraphSpec(val));
    } else if (key == "--index" && (val = next())) {
      if (!parse_uint(&args->index)) return false;
    } else if (key == "--format" && (val = next())) {
      args->format = val;
    } else if (key == "--max-graphs" && (val = next())) {
      if (!parse_uint(&args->max_graphs)) return false;
    } else if (key == "--max-states" && (val = next())) {
      if (!parse_uint(&args->max_states)) return false;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", key.c_str());
      return false;
    }
  }
  if (args->connect.empty() || args->graphs.empty()) {
    std::fprintf(stderr, "--connect and --graph are required\n");
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

  SessionPoolOptions popts;
  popts.session.load.format = args.format;
  popts.session.load.use_cache = !args.no_cache;
  popts.session.default_threads = 1;  // striping happens on the engine,
                                      // not a thread pool, in a worker
  popts.max_graphs = args.max_graphs;
  SessionPool pool(popts);
  for (const auto& [name, path] : args.graphs) {
    Status st = pool.Register(name, path);
    if (!st.ok()) {
      std::fprintf(stderr, "worker %u: bad --graph registration: %s\n",
                   args.index, st.ToString().c_str());
      return 2;
    }
  }

  net::Endpoint endpoint;
  Status st = net::ParseEndpoint(args.connect, &endpoint);
  if (!st.ok()) {
    std::fprintf(stderr, "worker %u: bad --connect: %s\n", args.index,
                 st.ToString().c_str());
    return 2;
  }
  net::UniqueFd conn;
  st = net::Connect(endpoint, &conn);
  if (!st.ok()) {
    std::fprintf(stderr, "worker %u: cannot reach coordinator: %s\n",
                 args.index, st.ToString().c_str());
    return 1;
  }

  WorkerLoopOptions wopts;
  wopts.index = args.index;
  wopts.max_states = args.max_states;
  st = RunWorkerLoop(conn.get(), &pool, wopts);
  if (!st.ok()) {
    std::fprintf(stderr, "worker %u: %s\n", args.index, st.ToString().c_str());
    return 1;
  }
  return 0;
}
