// saphyra_rank — command-line node ranking.
//
// Loads a graph, picks (or reads) a target subset, and ranks it by
// betweenness centrality with SaPHyRa_bc, ABRA or KADABRA.
//
// Usage:
//   saphyra_rank --graph edges.txt [--format snap|dimacs|sgr|auto]
//                [--targets targets.txt | --random-targets K]
//                [--algorithm saphyra|saphyra-full|abra|kadabra]
//                [--epsilon 0.05] [--delta 0.01] [--topk K] [--seed 1]
//                [--strategy auto|topdown|hybrid]
//                [--lcc] [--no-cache] [--output ranking.tsv]
//
// All algorithms run on the shared progressive sampling scheduler. By
// default they sample until every estimate carries the (--epsilon,
// --delta) guarantee; with --topk K they stop as soon as the K
// highest-ranked nodes are separated from the rest by their confidence
// intervals, which typically needs far fewer samples.
//
// Loading is cache-aware: when `<graph>.sgr` exists and is fresh (see
// tools/graph_convert.cc and README.md, "The .sgr binary cache"), the graph
// *and* its preprocessing are mmap'ed from the cache instead of re-parsing
// the text and re-running the decomposition; --no-cache forces the text
// path. A `.sgr` file can also be passed directly as --graph.
//
// --strategy picks the BFS traversal policy of the sampling kernels
// (graph/frontier.h): `auto` (default) and `hybrid` use the
// direction-optimizing top-down/bottom-up kernel, `topdown` forces the
// classic push. Purely an execution choice — estimates are bitwise
// identical for a fixed seed whichever policy runs (ABRA keeps its own
// truncated traversal and ignores the flag).
//
// The targets file holds one node id per line ('#' comments allowed).
// Output: "<rank>\t<node>\t<estimate>" sorted by rank; diagnostics go to
// stderr.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "flags.h"
#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "graph/binary_io.h"
#include "graph/frontier.h"
#include "graph/connectivity.h"
#include "graph/io.h"
#include "metrics/rank.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace saphyra;

namespace {

struct Args {
  std::string graph_path;
  std::string format = "auto";
  std::string targets_path;
  size_t random_targets = 0;
  std::string algorithm = "saphyra";
  double epsilon = 0.05;
  double delta = 0.01;
  uint64_t topk = 0;
  uint64_t seed = 1;
  TraversalPolicy traversal = TraversalPolicy::kAuto;
  bool lcc = false;
  bool no_cache = false;
  std::string output;
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --graph FILE [--format snap|dimacs|sgr|auto]\n"
      "          [--targets FILE | --random-targets K]\n"
      "          [--algorithm saphyra|saphyra-full|abra|kadabra]\n"
      "          [--epsilon E] [--delta D] [--topk K] [--seed S] [--lcc]\n"
      "          [--strategy auto|topdown|hybrid]\n"
      "          [--no-cache] [--output FILE]\n",
      argv0);
}

/// Parses `val` as a probability-like flag value: the whole token must be a
/// number strictly inside (0, 1).
bool ParseOpenUnit(const char* flag, const char* val, double* out) {
  char* end = nullptr;
  const double x = std::strtod(val, &end);
  if (end == val || *end != '\0' || !(x > 0.0 && x < 1.0)) {
    std::fprintf(stderr, "%s must be a number in (0, 1), got '%s'\n", flag,
                 val);
    return false;
  }
  *out = x;
  return true;
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
    if (key == "--lcc") {
      args->lcc = true;
    } else if (key == "--no-cache") {
      args->no_cache = true;
    } else if (key == "--graph" && (val = next())) {
      args->graph_path = val;
    } else if (key == "--format" && (val = next())) {
      args->format = val;
    } else if (key == "--targets" && (val = next())) {
      args->targets_path = val;
    } else if (key == "--random-targets" && (val = next())) {
      if (!parse_uint(&args->random_targets)) return false;
    } else if (key == "--algorithm" && (val = next())) {
      args->algorithm = val;
    } else if (key == "--epsilon" && (val = next())) {
      if (!ParseOpenUnit("--epsilon", val, &args->epsilon)) return false;
    } else if (key == "--delta" && (val = next())) {
      if (!ParseOpenUnit("--delta", val, &args->delta)) return false;
    } else if (key == "--topk" && (val = next())) {
      if (!parse_uint(&args->topk)) return false;
    } else if (key == "--seed" && (val = next())) {
      if (!parse_uint(&args->seed)) return false;
    } else if (key == "--strategy" && (val = next())) {
      if (!ParseTraversalPolicy(val, &args->traversal)) {
        std::fprintf(stderr, "unknown --strategy %s\n", val);
        return false;
      }
    } else if (key == "--output" && (val = next())) {
      args->output = val;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", key.c_str());
      return false;
    }
  }
  if (args->graph_path.empty()) {
    std::fprintf(stderr, "--graph is required\n");
    return false;
  }
  if (!args->targets_path.empty() && args->random_targets > 0) {
    std::fprintf(stderr, "--targets and --random-targets are exclusive\n");
    return false;
  }
  return true;
}

bool LoadTargets(const std::string& path, NodeId num_nodes,
                 std::vector<NodeId>* targets) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open targets file %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    uint64_t id = 0;
    if (!ParseUnsigned(line.c_str(), &id)) {
      std::fprintf(stderr, "targets file %s: '%s' is not a node id\n",
                   path.c_str(), line.c_str());
      return false;
    }
    if (id >= num_nodes) {
      std::fprintf(stderr, "target id %llu out of range (n=%u)\n",
                   static_cast<unsigned long long>(id), num_nodes);
      return false;
    }
    targets->push_back(static_cast<NodeId>(id));
  }
  std::sort(targets->begin(), targets->end());
  targets->erase(std::unique(targets->begin(), targets->end()),
                 targets->end());
  return !targets->empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  Timer timer;
  GraphCache cache;
  LoadGraphOptions lopts;
  lopts.format = args.format;
  lopts.use_cache = !args.no_cache;
  bool from_cache = false;
  Status st = LoadGraphAuto(args.graph_path, lopts, &cache, &from_cache);
  if (!st.ok()) {
    std::fprintf(stderr, "failed to load graph: %s\n", st.ToString().c_str());
    return 1;
  }
  Graph g = std::move(cache.graph);
  if (args.lcc) {
    // The cached decomposition labels the full graph; renumbering to the
    // giant component invalidates it.
    g = LargestComponent(g);
    cache.has_decomposition = false;
  }
  std::fprintf(stderr, "loaded %s in %s%s\n", g.DebugString().c_str(),
               FormatDuration(timer.ElapsedSeconds()).c_str(),
               from_cache ? " (.sgr cache)" : "");
  if (g.num_nodes() < 2) {
    std::fprintf(stderr, "graph too small to rank\n");
    return 1;
  }

  std::vector<NodeId> targets;
  if (!args.targets_path.empty()) {
    if (!LoadTargets(args.targets_path, g.num_nodes(), &targets)) return 1;
  } else if (args.random_targets > 0) {
    Rng rng(args.seed ^ 0xA5A5A5A5ULL);
    std::vector<NodeId> all(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) all[v] = v;
    size_t k = std::min<size_t>(args.random_targets, all.size());
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + rng.UniformInt(all.size() - i);
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    targets = std::move(all);
  } else {
    targets.resize(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) targets[v] = v;
  }
  std::fprintf(stderr,
               "ranking %zu target nodes with %s (eps=%g, delta=%g%s)\n",
               targets.size(), args.algorithm.c_str(), args.epsilon,
               args.delta,
               args.topk > 0 ? ", top-k separation mode" : "");

  timer.Restart();
  SamplingOptions base;
  base.epsilon = args.epsilon;
  base.delta = args.delta;
  base.seed = args.seed;
  base.top_k = args.topk;
  std::vector<double> estimates;
  if (args.algorithm == "saphyra" || args.algorithm == "saphyra-full") {
    std::unique_ptr<IspIndex> isp_ptr =
        cache.has_decomposition
            ? std::make_unique<IspIndex>(g, std::move(cache))
            : std::make_unique<IspIndex>(g);
    IspIndex& isp = *isp_ptr;
    SaphyraBcOptions opts{base};
    opts.traversal = args.traversal;
    SaphyraBcResult res =
        args.algorithm == "saphyra-full"
            ? RunSaphyraBcFull(isp, opts)
            : RunSaphyraBc(isp, targets, opts);
    if (args.algorithm == "saphyra-full") {
      estimates.reserve(targets.size());
      for (NodeId v : targets) estimates.push_back(res.bc[v]);
    } else {
      estimates = std::move(res.bc);
    }
    std::fprintf(stderr,
                 "samples=%llu/%llu eta=%.4f lambda_hat=%.4f vc=%.0f\n",
                 static_cast<unsigned long long>(res.samples_used),
                 static_cast<unsigned long long>(res.max_samples), res.eta,
                 res.lambda_hat, res.vc_bound);
  } else if (args.algorithm == "abra") {
    AbraResult res = RunAbra(g, base);
    for (NodeId v : targets) estimates.push_back(res.bc[v]);
  } else if (args.algorithm == "kadabra") {
    KadabraOptions opts{base};
    opts.traversal = args.traversal;
    KadabraResult res = RunKadabra(g, opts);
    for (NodeId v : targets) estimates.push_back(res.bc[v]);
  } else {
    std::fprintf(stderr, "unknown algorithm %s\n", args.algorithm.c_str());
    return 2;
  }
  std::fprintf(stderr, "ranked in %s\n",
               FormatDuration(timer.ElapsedSeconds()).c_str());

  std::vector<uint32_t> ranks = RanksDescending(estimates);
  std::vector<size_t> order(targets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return ranks[a] < ranks[b]; });

  std::ofstream file_out;
  std::ostream* out = nullptr;
  if (!args.output.empty()) {
    file_out.open(args.output);
    if (!file_out) {
      std::fprintf(stderr, "cannot open %s\n", args.output.c_str());
      return 1;
    }
    out = &file_out;
  }
  for (size_t i : order) {
    if (out != nullptr) {
      *out << ranks[i] << '\t' << targets[i] << '\t' << estimates[i] << '\n';
    } else {
      std::printf("%u\t%u\t%.10f\n", ranks[i], targets[i], estimates[i]);
    }
  }
  return 0;
}
