// Google-benchmark micro suite for the kernels the estimators spend their
// time in: BFS, biconnected decomposition, block-cut-tree construction,
// uniform path sampling (both strategies and both substrates), one Brandes
// source, and the Exact_bc 2-hop pass.
//
// In addition to the gbench timings, a hand-rolled speedup suite runs first
// and prints machine-readable before/after ratios for the optimizations this
// codebase tracks (component-view vs. filtered sampling, pooled vs.
// spawn-per-round engine, adaptive vs. fixed-budget sample counts at equal
// ε — `adaptive_sample_reduction`). Pass --speedup_json=PATH to also dump
// them as JSON (tools/run_benchmarks.sh does).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>
#include <type_traits>

#include "bc/brandes.h"
#include "bc/exact_subspace.h"
#include "bc/path_sampler.h"
#include "bc/saphyra_bc.h"
#include "bench_util.h"
#include "bicomp/isp.h"
#include "core/sample_engine.h"
#include "graph/bfs.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "seed_bfs.h"
#include "seed_path_sampler.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "util/thread_pool.h"

using namespace saphyra;
using namespace saphyra::bench;

namespace {

const Graph& SocialFixture() {
  static Graph g = SocialGraph(20000, 0.3, 5, 900);
  return g;
}

// Leaf-heavy social surrogate (flickr-s profile): hubs carry many filtered
// bridge arcs, the worst case for the legacy per-arc component test.
const Graph& LeafySocialFixture() {
  static Graph g = SocialGraph(20000, 0.55, 5, 902);
  return g;
}

const Graph& RoadFixture() {
  static Graph g = RoadGrid(150, 120, 0.85, 901).graph;
  return g;
}

// Near-complete lattice: one giant biconnected block, the dense-frontier
// regime for component-restricted sampling on road-like inputs (the
// `path_sampling_grid` scenario of ISSUE 4).
const Graph& GridFixture() {
  static Graph g = RoadGrid(140, 110, 0.97, 905).graph;
  return g;
}

const IspIndex& SocialIsp() {
  static IspIndex isp(SocialFixture());
  return isp;
}

const IspIndex& LeafySocialIsp() {
  static IspIndex isp(LeafySocialFixture());
  return isp;
}

const IspIndex& RoadIsp() {
  static IspIndex isp(RoadFixture());
  return isp;
}

const IspIndex& GridIsp() {
  static IspIndex isp(GridFixture());
  return isp;
}

const IspIndex& IspFixture(int which) {
  switch (which) {
    case 0: return SocialIsp();
    case 1: return RoadIsp();
    default: return LeafySocialIsp();
  }
}

// ---------------------------------------------------------------------------
// Speedup suite: paired before/after measurements with explicit ratios.
// ---------------------------------------------------------------------------

/// One Gen_bc draw: the block, its endpoints as member indices (what the
/// production sampler takes) and as global ids (what the seed sampler
/// takes).
struct GenBcTriple {
  uint32_t comp;
  NodeId ls, lt;
  NodeId s, t;
};

std::vector<GenBcTriple> DrawTriples(const IspIndex& isp,
                                     const PersonalizedSpace& space,
                                     size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<GenBcTriple> triples;
  triples.reserve(count);
  while (triples.size() < count) {
    uint32_t c = space.SampleComponent(&rng);
    NodeId ls = isp.SampleSource(c, &rng);
    NodeId lt = isp.SampleTarget(c, ls, &rng);
    const auto members = isp.bcc().component_nodes[c];
    triples.push_back({c, ls, lt, members[ls], members[lt]});
  }
  return triples;
}

/// Seconds to sample every pre-drawn (comp, s, t) triple with `sampler`.
template <class Sampler>
double TimeGenBcOnce(Sampler& sampler,
                     const std::vector<GenBcTriple>& triples, uint64_t seed) {
  PathSample path;
  Rng rng(seed);
  Timer timer;
  for (const GenBcTriple& x : triples) {
    if constexpr (std::is_same_v<Sampler, PathSampler>) {
      sampler.SampleRestrictedPath(x.comp, x.ls, x.lt,
                                   SamplingStrategy::kBidirectional, &rng,
                                   &path);
    } else {
      sampler.SampleUniformPath(x.s, x.t, x.comp,
                                SamplingStrategy::kBidirectional, &rng, &path);
    }
    benchmark::DoNotOptimize(path.length);
  }
  return timer.ElapsedSeconds();
}

struct Speedup {
  const char* key;
  double baseline_s;
  double optimized_s;
  double ratio() const { return baseline_s / optimized_s; }
};

/// Component-restricted path sampling: the frozen seed implementation
/// (filtered global CSR, bench/seed_path_sampler.h) vs. the production
/// component-view fast path.
Speedup MeasurePathSampling(const char* key, const IspIndex& isp,
                            size_t samples, uint64_t seed) {
  PersonalizedSpace space(isp, RandomSubset(isp.graph(), 100, seed));
  std::vector<GenBcTriple> triples = DrawTriples(isp, space, samples, seed);
  SeedPathSampler seed_sampler(isp.graph(), &isp.bcc().arc_component);
  PathSampler view(isp.graph(), &isp.views());
  // Interleaved min-of-5: alternating the two samplers per repetition keeps
  // slow drift of the host (frequency scaling, noisy neighbors) from
  // landing entirely on one side of the ratio.
  double base = 1e100, opt = 1e100;
  TimeGenBcOnce(seed_sampler, triples, seed + 1);  // warmup
  TimeGenBcOnce(view, triples, seed + 1);
  for (int r = 0; r < 5; ++r) {
    base = std::min(base, TimeGenBcOnce(seed_sampler, triples, seed + 1));
    opt = std::min(opt, TimeGenBcOnce(view, triples, seed + 1));
  }
  return {key, base, opt};
}

/// Full σ-counting BFS: the seed's allocate-per-call top-down kernel
/// (bench/seed_bfs.h) vs. the production direction-optimizing BfsKernel
/// (reused scratch, top-down/bottom-up switching). This is the
/// Brandes-forward-pass shape. `bfs_hybrid_speedup` — the tracked
/// acceptance metric — runs on the dense-frontier regime (the social
/// fixture), which is where direction switching pays: its mid-BFS levels
/// carry most of the arc mass, so the pull skips the bulk of the push's
/// work. The road/grid fixtures are the no-regression guards: a
/// Θ(width+height)-diameter lattice never develops a frontier dense
/// enough to clear the switch threshold (the kernel's pull counter stays
/// at zero there), so they measure pure kernel overhead, and the
/// road-side payoff of this refactor shows up in the path-sampling
/// scenarios instead (see DESIGN.md, "Direction-optimizing traversal").
Speedup MeasureBfsHybrid(const char* key, const Graph& g, size_t sources,
                         uint64_t seed) {
  std::vector<NodeId> srcs;
  Rng rng(seed);
  for (size_t i = 0; i < sources; ++i) {
    srcs.push_back(static_cast<NodeId>(rng.UniformInt(g.num_nodes())));
  }
  BfsKernel kernel(g, TraversalPolicy::kHybrid);
  auto time_seed = [&]() {
    Timer timer;
    for (NodeId s : srcs) {
      SpDag dag = SeedBfsWithCounts(g, s);
      benchmark::DoNotOptimize(dag.sigma[srcs[0]]);
    }
    return timer.ElapsedSeconds();
  };
  auto time_kernel = [&]() {
    Timer timer;
    for (NodeId s : srcs) {
      kernel.Run(s);
      benchmark::DoNotOptimize(kernel.sigma(srcs[0]));
    }
    return timer.ElapsedSeconds();
  };
  time_seed();  // warmup
  time_kernel();
  double base = 1e100, opt = 1e100;
  for (int r = 0; r < 5; ++r) {
    base = std::min(base, time_seed());
    opt = std::min(opt, time_kernel());
  }
  return {key, base, opt};
}

/// Cheap clonable problem: engine overhead dominates, which is exactly what
/// the pooled-vs-spawn comparison is about.
class EngineBenchProblem : public HypothesisRankingProblem {
 public:
  size_t num_hypotheses() const override { return 16; }
  double ComputeExactRisks(std::vector<double>* exact) override {
    exact->assign(16, 0.0);
    return 0.0;
  }
  void SampleApproxLosses(Rng* rng, std::vector<uint32_t>* hits) override {
    hits->push_back(static_cast<uint32_t>(rng->UniformInt(16)));
  }
  double VcDimension() const override { return 2.0; }
  std::unique_ptr<HypothesisRankingProblem> CloneForSampling() override {
    return std::make_unique<EngineBenchProblem>();
  }
};

/// The seed's Draw: spawn + join one std::thread per worker, every round.
double TimeSpawnPerRound(int rounds, uint64_t per_round, uint32_t workers) {
  EngineBenchProblem problem;
  Rng base(77);
  std::vector<std::unique_ptr<HypothesisRankingProblem>> clones;
  std::vector<HypothesisRankingProblem*> ptrs{&problem};
  for (uint32_t i = 1; i < workers; ++i) {
    clones.push_back(problem.CloneForSampling());
    ptrs.push_back(clones.back().get());
  }
  std::vector<Rng> rngs;
  std::vector<std::vector<uint64_t>> local(workers,
                                           std::vector<uint64_t>(16, 0));
  for (uint32_t w = 0; w < workers; ++w) rngs.push_back(base.Split());
  std::vector<uint64_t> counts(16, 0);
  Timer timer;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::thread> threads;
    const uint64_t per = per_round / workers;
    const uint64_t extra = per_round % workers;
    for (uint32_t w = 0; w < workers; ++w) {
      uint64_t quota = per + (w < extra ? 1 : 0);
      threads.emplace_back([&, w, quota] {
        std::vector<uint32_t> hits;
        for (uint64_t j = 0; j < quota; ++j) {
          hits.clear();
          ptrs[w]->SampleApproxLosses(&rngs[w], &hits);
          for (uint32_t i : hits) ++local[w][i];
        }
      });
    }
    for (auto& t : threads) t.join();
    for (auto& l : local) {
      for (size_t i = 0; i < counts.size(); ++i) {
        counts[i] += l[i];
        l[i] = 0;
      }
    }
  }
  benchmark::DoNotOptimize(counts);
  return timer.ElapsedSeconds();
}

double TimePooled(int rounds, uint64_t per_round, uint32_t workers) {
  EngineBenchProblem problem;
  Rng base(77);
  SampleEngine engine(&problem, workers, &base, &SharedThreadPool());
  Timer timer;
  uint64_t n = 0;
  for (int r = 0; r < rounds; ++r) {
    n = engine.DrawAccumulate(n, n + per_round);
  }
  SampleStats stats;
  engine.SnapshotStats(n, &stats);
  benchmark::DoNotOptimize(stats.counts);
  return timer.ElapsedSeconds();
}

/// On-disk fixtures for the load-path kernels: the largest generated graph
/// saved as a SNAP text file, a graph-only `.sgr`, and a full
/// (decomposition-carrying) `.sgr`. Files live in the working directory
/// next to the other bench artifacts and are removed on destruction.
struct LoadFixture {
  std::string text_path = "saphyra_bench_load.snap";
  std::string graph_sgr_path = "saphyra_bench_load_graph.sgr";
  std::string full_sgr_path;

  LoadFixture() {
    full_sgr_path = SgrCachePathFor(text_path);
    SAPHYRA_CHECK(SaveSnapEdgeList(SocialFixture(), text_path).ok());
    // Convert exactly as graph_convert does: parse the text back (compact
    // ids) and cache the parsed graph, so cache and text loads agree.
    Graph parsed;
    SAPHYRA_CHECK(LoadSnapEdgeList(text_path, &parsed).ok());
    SgrWriteOptions wopts;
    wopts.source_path = text_path;
    SAPHYRA_CHECK(WriteSgr(graph_sgr_path, parsed, nullptr, nullptr, nullptr,
                           nullptr, wopts)
                      .ok());
    IspIndex isp(parsed);
    SAPHYRA_CHECK(WriteSgr(full_sgr_path, parsed, &isp.bcc(), &isp.conn(),
                           &isp.views(), &isp.tree(), wopts)
                      .ok());
  }

  ~LoadFixture() {
    std::remove(text_path.c_str());
    std::remove(graph_sgr_path.c_str());
    std::remove(full_sgr_path.c_str());
  }
};

const LoadFixture& LoadFixtureFiles() {
  static LoadFixture fixture;
  return fixture;
}

/// Text parse vs. zero-copy binary load of the same graph (the
/// `binary_load_speedup` acceptance metric). The loaded CSRs are checked
/// equal once, then each path is timed min-of-5. DoNotOptimize on a
/// traversal-dependent value keeps the mmap path honest: the offsets and
/// adjacency pages actually fault in.
Speedup MeasureBinaryLoad() {
  const LoadFixture& files = LoadFixtureFiles();
  auto touch = [](const Graph& g) -> uint64_t {
    // Sum a stride of offsets and adjacency entries so every mapped page
    // of both CSR arrays is resident.
    uint64_t acc = g.num_nodes();
    const auto off = g.raw_offsets();
    for (size_t i = 0; i < off.size(); i += 512) acc += off[i];
    const auto adj = g.raw_adj();
    for (size_t i = 0; i < adj.size(); i += 512) acc += adj[i];
    return acc;
  };
  {
    Graph from_text, from_sgr;
    GraphCache cache;
    SAPHYRA_CHECK(LoadSnapEdgeList(files.text_path, &from_text).ok());
    SAPHYRA_CHECK(LoadSgr(files.graph_sgr_path, &cache).ok());
    from_sgr = std::move(cache.graph);
    SAPHYRA_CHECK(from_text.num_nodes() == from_sgr.num_nodes());
    SAPHYRA_CHECK(from_text.raw_adj().size() == from_sgr.raw_adj().size());
    SAPHYRA_CHECK(std::memcmp(from_text.raw_adj().data(),
                              from_sgr.raw_adj().data(),
                              from_text.raw_adj().size() * sizeof(NodeId)) ==
                  0);
  }
  double base = 1e100, opt = 1e100;
  for (int r = 0; r < 5; ++r) {
    Timer timer;
    Graph g;
    SAPHYRA_CHECK(LoadSnapEdgeList(files.text_path, &g).ok());
    benchmark::DoNotOptimize(touch(g));
    base = std::min(base, timer.ElapsedSeconds());

    timer.Restart();
    GraphCache cache;
    SAPHYRA_CHECK(LoadSgr(files.graph_sgr_path, &cache).ok());
    benchmark::DoNotOptimize(touch(cache.graph));
    opt = std::min(opt, timer.ElapsedSeconds());
  }
  return {"binary_load", base, opt};
}

/// End-to-end serve-from-cache: text parse + full IspIndex build vs. `.sgr`
/// load + IspIndex adopting the persisted decomposition.
Speedup MeasureCachedPreprocess() {
  const LoadFixture& files = LoadFixtureFiles();
  double base = 1e100, opt = 1e100;
  for (int r = 0; r < 3; ++r) {
    Timer timer;
    {
      Graph g;
      SAPHYRA_CHECK(LoadSnapEdgeList(files.text_path, &g).ok());
      IspIndex isp(g);
      benchmark::DoNotOptimize(isp.gamma());
    }
    base = std::min(base, timer.ElapsedSeconds());

    timer.Restart();
    {
      GraphCache cache;
      SAPHYRA_CHECK(LoadSgr(files.full_sgr_path, &cache).ok());
      Graph g = std::move(cache.graph);
      IspIndex isp(g, std::move(cache));
      benchmark::DoNotOptimize(isp.gamma());
    }
    opt = std::min(opt, timer.ElapsedSeconds());
  }
  return {"cached_preprocess", base, opt};
}

/// The serving-layer workload of the `serve_warm` / `batch_throughput`
/// kernels: bc subset queries with distinct seeds (distinct cache keys),
/// modest ε so the per-query sampling cost is realistic for a ranking
/// service but does not drown the index cost being amortized.
std::vector<QueryRequest> ServeWorkload(size_t count) {
  std::vector<QueryRequest> reqs;
  for (size_t i = 0; i < count; ++i) {
    QueryRequest req;
    req.id = "warm" + std::to_string(i);
    req.estimator = EstimatorKind::kBc;
    req.epsilon = 0.1;
    req.delta = 0.01;
    req.seed = 1000 + i;
    req.targets = RandomSubset(SocialFixture(), 16, 500 + i);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

/// Warm-session serving vs. cold per-process runs on the cached social
/// fixture (the `serve_warm_speedup` acceptance metric). The stream is a
/// ranking service's traffic shape: 8 distinct queries, each arriving 3
/// times (popular subsets get re-requested). Cold answers every arrival
/// the `saphyra_rank` way — a fresh process: open the `.sgr` session,
/// adopt the index, run the query, throw everything away. Warm is the
/// serving layer: one QuerySession + BatchScheduler, so the session state
/// is paid once and the 16 repeat arrivals come out of the memo LRU with
/// bitwise-identical bytes (the determinism contract is what makes that a
/// *correct* answer, not an approximation). Both sides load from the same
/// cache file; the gap is the serving layer itself — index amortization
/// on the unique fraction, memoization on the repeats. See
/// docs/benchmarks.md for how to read (and not over-read) this number.
Speedup MeasureServeWarmVsCold() {
  const LoadFixture& files = LoadFixtureFiles();
  const std::vector<QueryRequest> unique_reqs = ServeWorkload(8);
  std::vector<QueryRequest> stream;
  for (int copy = 0; copy < 3; ++copy) {
    for (const QueryRequest& req : unique_reqs) stream.push_back(req);
  }

  SessionOptions sopts;  // full .sgr: decomposition adopted, not rebuilt
  auto open_session = [&]() {
    std::unique_ptr<QuerySession> session;
    SAPHYRA_CHECK(
        QuerySession::Open(files.full_sgr_path, sopts, &session).ok());
    return session;
  };

  auto time_cold = [&]() {
    Timer timer;
    for (const QueryRequest& req : stream) {
      std::unique_ptr<QuerySession> session = open_session();
      QueryResult res = session->Run(req);
      SAPHYRA_CHECK(res.status.ok());
      benchmark::DoNotOptimize(res.estimates.data());
    }
    return timer.ElapsedSeconds();
  };
  // One warm session per timed rep, but a fresh scheduler (fresh memo):
  // a long-lived service would do even better by keeping its memo across
  // streams — this measures the steady state conservatively.
  std::unique_ptr<QuerySession> warm = open_session();
  auto time_warm = [&]() {
    SchedulerOptions opts;
    BatchScheduler scheduler(warm.get(), opts);
    Timer timer;
    for (const QueryRequest& req : stream) {
      QueryResult res = scheduler.Run(req);
      SAPHYRA_CHECK(res.status.ok());
      benchmark::DoNotOptimize(res.estimates.data());
    }
    return timer.ElapsedSeconds();
  };

  time_warm();  // builds the index; steady state from here
  time_cold();  // warm up page cache / allocator
  double base = 1e100, opt = 1e100;
  for (int r = 0; r < 5; ++r) {
    base = std::min(base, time_cold());
    opt = std::min(opt, time_warm());
  }
  return {"serve_warm", base, opt};
}

struct BatchThroughput {
  uint64_t queries = 0;
  double seconds = 0.0;
  uint64_t computed = 0;
  uint64_t cache_served = 0;  ///< memo + dedup
  double qps() const { return seconds > 0.0 ? queries / seconds : 0.0; }
};

/// Mixed batch through the BatchScheduler on a warm session: 8 distinct
/// queries served 3× each (the repeat traffic a ranking service sees),
/// so 2/3 of the stream should come from the memo/dedup machinery.
BatchThroughput MeasureBatchThroughput() {
  const LoadFixture& files = LoadFixtureFiles();
  std::unique_ptr<QuerySession> session;
  SAPHYRA_CHECK(
      QuerySession::Open(files.full_sgr_path, SessionOptions(), &session)
          .ok());

  std::vector<QueryRequest> batch;
  const std::vector<QueryRequest> unique_reqs = ServeWorkload(8);
  for (int copy = 0; copy < 3; ++copy) {
    for (const QueryRequest& req : unique_reqs) batch.push_back(req);
  }

  session->Run(unique_reqs[0]);  // build the index outside the timing

  BatchThroughput best;
  for (int r = 0; r < 3; ++r) {
    SchedulerOptions opts;
    opts.max_concurrent = 4;
    BatchScheduler scheduler(session.get(), opts);  // fresh memo per rep
    Timer timer;
    std::vector<QueryResult> results = scheduler.RunBatch(batch);
    const double seconds = timer.ElapsedSeconds();
    for (const QueryResult& res : results) SAPHYRA_CHECK(res.status.ok());
    const SchedulerStats stats = scheduler.stats();
    if (best.seconds == 0.0 || seconds < best.seconds) {
      best.queries = stats.queries;
      best.seconds = seconds;
      best.computed = stats.computed;
      best.cache_served = stats.memo_hits + stats.dedup_hits;
    }
  }
  return best;
}

/// Adaptive vs. fixed-budget sampling at equal ε: the progressive
/// scheduler's empirical-Bernstein rule stops as soon as every target
/// meets ε, while a fixed-budget run must draw the full VC cap Nmax
/// (which is what guarantees ε without adaptivity — RunDirectEstimation's
/// schedule). The ratio Nmax / N_adaptive is the sample (and, for
/// BFS-dominated workloads, time) reduction the adaptive stopping buys.
struct AdaptiveReduction {
  uint64_t adaptive_samples;
  uint64_t fixed_budget_samples;
  double ratio() const {
    return adaptive_samples == 0
               ? 1.0
               : static_cast<double>(fixed_budget_samples) /
                     static_cast<double>(adaptive_samples);
  }
};

AdaptiveReduction MeasureAdaptiveReduction() {
  const IspIndex& isp = SocialIsp();
  SaphyraBcOptions opts;
  opts.epsilon = 0.02;
  opts.seed = 42;
  SaphyraBcResult res =
      RunSaphyraBc(isp, RandomSubset(isp.graph(), 100, 42), opts);
  return {res.samples_used, res.max_samples};
}

Speedup MeasurePooledEngine() {
  const int rounds = 300;
  const uint64_t per_round = 512;
  const uint32_t workers = 4;
  // Warm both paths (pool creation, allocator) before timing.
  TimeSpawnPerRound(4, per_round, workers);
  TimePooled(4, per_round, workers);
  double base = 1e100, opt = 1e100;
  for (int r = 0; r < 3; ++r) {
    base = std::min(base, TimeSpawnPerRound(rounds, per_round, workers));
    opt = std::min(opt, TimePooled(rounds, per_round, workers));
  }
  return {"pooled_engine", base, opt};
}

void RunSpeedupSuite(const std::string& json_path) {
  std::printf("==== optimization speedups (baseline / optimized) ====\n");
  std::vector<Speedup> results;
  results.push_back(
      MeasurePathSampling("path_sampling_social", SocialIsp(), 30000, 42));
  results.push_back(MeasurePathSampling("path_sampling_leafy_social",
                                        LeafySocialIsp(), 30000, 43));
  results.push_back(
      MeasurePathSampling("path_sampling_road", RoadIsp(), 4000, 44));
  results.push_back(
      MeasurePathSampling("path_sampling_grid", GridIsp(), 2000, 45));
  // Direction-optimizing BFS kernel: `bfs_hybrid` (the gated
  // dense-frontier scenario, emitted as bfs_hybrid_speedup) plus the
  // road/grid no-regression guards.
  results.push_back(MeasureBfsHybrid("bfs_hybrid", SocialFixture(), 60, 46));
  results.push_back(
      MeasureBfsHybrid("bfs_hybrid_road", RoadFixture(), 60, 47));
  results.push_back(
      MeasureBfsHybrid("bfs_hybrid_grid", GridFixture(), 60, 48));
  results.push_back(MeasurePooledEngine());
  results.push_back(MeasureBinaryLoad());
  results.push_back(MeasureCachedPreprocess());
  // Serving layer: warm-session amortization (emitted as
  // serve_warm_speedup) — the cold side repeats session open + index
  // adoption per query, the warm side pays them once.
  results.push_back(MeasureServeWarmVsCold());

  double geo = 1.0;
  int npath = 0;
  for (const Speedup& s : results) {
    std::printf("[speedup] %-28s baseline=%.4fs optimized=%.4fs ratio=%.2fx\n",
                s.key, s.baseline_s, s.optimized_s, s.ratio());
    if (std::strncmp(s.key, "path_sampling", 13) == 0) {
      geo *= s.ratio();
      ++npath;
    }
  }
  const double path_speedup = std::pow(geo, 1.0 / npath);
  std::printf("[speedup] %-28s ratio=%.2fx (geomean of %d fixtures)\n",
              "path_sampling", path_speedup, npath);

  AdaptiveReduction adaptive = MeasureAdaptiveReduction();
  std::printf(
      "[speedup] %-28s adaptive=%llu fixed=%llu ratio=%.2fx\n",
      "adaptive_sample_reduction",
      static_cast<unsigned long long>(adaptive.adaptive_samples),
      static_cast<unsigned long long>(adaptive.fixed_budget_samples),
      adaptive.ratio());

  BatchThroughput batch = MeasureBatchThroughput();
  std::printf(
      "[speedup] %-28s %llu queries in %.4fs = %.1f q/s "
      "(%llu computed, %llu memo/dedup)\n",
      "batch_throughput",
      static_cast<unsigned long long>(batch.queries), batch.seconds,
      batch.qps(), static_cast<unsigned long long>(batch.computed),
      static_cast<unsigned long long>(batch.cache_served));

  if (json_path.empty()) return;
  std::ofstream out(json_path);
  out << "{\n";
  for (const Speedup& s : results) {
    out << "  \"" << s.key << "_baseline_seconds\": " << s.baseline_s << ",\n";
    out << "  \"" << s.key << "_optimized_seconds\": " << s.optimized_s
        << ",\n";
    out << "  \"" << s.key << "_speedup\": " << s.ratio() << ",\n";
  }
  out << "  \"adaptive_samples\": " << adaptive.adaptive_samples << ",\n";
  out << "  \"fixed_budget_samples\": " << adaptive.fixed_budget_samples
      << ",\n";
  out << "  \"adaptive_sample_reduction\": " << adaptive.ratio() << ",\n";
  out << "  \"batch_throughput_queries\": " << batch.queries << ",\n";
  out << "  \"batch_throughput_seconds\": " << batch.seconds << ",\n";
  out << "  \"batch_throughput_computed\": " << batch.computed << ",\n";
  out << "  \"batch_throughput_cache_served\": " << batch.cache_served
      << ",\n";
  out << "  \"batch_throughput_qps\": " << batch.qps() << ",\n";
  // Host context for the hardware-bound ratios (pooled_engine above
  // all): regression tooling can only tell a hardware artifact from a
  // regression if the measurement records the machine.
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"path_sampling_speedup\": " << path_speedup << "\n}\n";
  std::printf("[speedup] wrote %s\n", json_path.c_str());
}

// ---------------------------------------------------------------------------
// gbench kernels.
// ---------------------------------------------------------------------------

void BM_BfsSocial(benchmark::State& state) {
  const Graph& g = SocialFixture();
  Rng rng(1);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    benchmark::DoNotOptimize(Bfs(g, s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BfsSocial);

void BM_BfsWithCountsSocial(benchmark::State& state) {
  const Graph& g = SocialFixture();
  Rng rng(2);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    benchmark::DoNotOptimize(BfsWithCounts(g, s));
  }
}
BENCHMARK(BM_BfsWithCountsSocial);

// The reusable direction-optimizing kernel, forced to each policy.
// Arg(0)=social, Arg(1)=road, Arg(2)=grid. CI's bench smoke step runs
// these for one iteration so kernel bit-rot fails fast.
template <TraversalPolicy policy>
void BM_BfsKernel(benchmark::State& state) {
  const Graph& g = state.range(0) == 0   ? SocialFixture()
                   : state.range(0) == 1 ? RoadFixture()
                                         : GridFixture();
  BfsKernel kernel(g, policy);
  Rng rng(6);
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    kernel.Run(s);
    benchmark::DoNotOptimize(kernel.sigma(s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BfsKernel<TraversalPolicy::kTopDown>)->Arg(0)->Arg(1)->Arg(2);
BENCHMARK(BM_BfsKernel<TraversalPolicy::kHybrid>)->Arg(0)->Arg(1)->Arg(2);

void BM_BiconnectedDecomposition(benchmark::State& state) {
  const Graph& g = state.range(0) == 0 ? SocialFixture() : RoadFixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeBiconnectedComponents(g));
  }
}
BENCHMARK(BM_BiconnectedDecomposition)->Arg(0)->Arg(1);

void BM_IspIndexBuild(benchmark::State& state) {
  const Graph& g = state.range(0) == 0 ? SocialFixture() : RoadFixture();
  for (auto _ : state) {
    IspIndex isp(g);
    benchmark::DoNotOptimize(isp.gamma());
  }
}
BENCHMARK(BM_IspIndexBuild)->Arg(0)->Arg(1);

template <SamplingStrategy strategy>
void BM_PathSample(benchmark::State& state) {
  const Graph& g = state.range(0) == 0 ? SocialFixture() : RoadFixture();
  PathSampler sampler(g, nullptr);
  Rng rng(3);
  PathSample path;
  for (auto _ : state) {
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    NodeId t = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    if (s == t) continue;
    sampler.SampleUniformPath(s, t, strategy, &rng, &path);
    benchmark::DoNotOptimize(path.num_paths);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathSample<SamplingStrategy::kBidirectional>)->Arg(0)->Arg(1);
BENCHMARK(BM_PathSample<SamplingStrategy::kUnidirectional>)->Arg(0)->Arg(1);

// Gen_bc sampling on the component-view CSR (production path).
void BM_GenBcSampleView(benchmark::State& state) {
  const IspIndex& isp = IspFixture(static_cast<int>(state.range(0)));
  PersonalizedSpace space(isp, RandomSubset(isp.graph(), 100, 42));
  PathSampler sampler(isp.graph(), &isp.views());
  Rng rng(4);
  PathSample path;
  for (auto _ : state) {
    uint32_t c = space.SampleComponent(&rng);
    NodeId s = isp.SampleSource(c, &rng);
    NodeId t = isp.SampleTarget(c, s, &rng);
    sampler.SampleRestrictedPath(c, s, t, SamplingStrategy::kBidirectional,
                                 &rng, &path);
    benchmark::DoNotOptimize(path.length);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenBcSampleView)->Arg(0)->Arg(1)->Arg(2);

void BM_BrandesSingleSource(benchmark::State& state) {
  const Graph& g = state.range(0) == 0 ? SocialFixture() : RoadFixture();
  // One full Brandes over a graph scaled down to make a per-source figure.
  Rng rng(5);
  for (auto _ : state) {
    state.PauseTiming();
    NodeId s = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    state.ResumeTiming();
    benchmark::DoNotOptimize(BfsWithCounts(g, s));
  }
}
BENCHMARK(BM_BrandesSingleSource)->Arg(0)->Arg(1);

// Exact_bc on the social fixture for |A| = arg, 0 meaning every node: the
// whole-network case has no middle outside A, so only the A-middle pass
// runs.
void BM_ExactSubspace(benchmark::State& state) {
  const IspIndex& isp = SocialIsp();
  const size_t size =
      state.range(0) == 0 ? isp.graph().num_nodes() : state.range(0);
  PersonalizedSpace space(isp, RandomSubset(isp.graph(), size, 77));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeExactSubspace(space));
  }
}
BENCHMARK(BM_ExactSubspace)->Arg(16)->Arg(1024)->Arg(0);

// Load path: SNAP text parse vs. mmap'ed `.sgr` cache of the same graph.
void BM_GraphLoadText(benchmark::State& state) {
  const LoadFixture& files = LoadFixtureFiles();
  for (auto _ : state) {
    Graph g;
    SAPHYRA_CHECK(LoadSnapEdgeList(files.text_path, &g).ok());
    benchmark::DoNotOptimize(g.num_arcs());
  }
}
BENCHMARK(BM_GraphLoadText);

void BM_GraphLoadBinary(benchmark::State& state) {
  const LoadFixture& files = LoadFixtureFiles();
  for (auto _ : state) {
    GraphCache cache;
    SAPHYRA_CHECK(LoadSgr(files.graph_sgr_path, &cache).ok());
    benchmark::DoNotOptimize(cache.graph.num_arcs());
  }
}
BENCHMARK(BM_GraphLoadBinary);

// One bc subset query on a warm QuerySession — the steady-state unit of
// the serving layer. Compare against BM_ServeColdQuery (session open +
// same query) to see what the session amortizes.
void BM_ServeWarmQuery(benchmark::State& state) {
  const LoadFixture& files = LoadFixtureFiles();
  std::unique_ptr<QuerySession> session;
  SAPHYRA_CHECK(
      QuerySession::Open(files.full_sgr_path, SessionOptions(), &session)
          .ok());
  const std::vector<QueryRequest> workload = ServeWorkload(8);
  session->Run(workload[0]);  // build the index outside the loop
  size_t i = 0;
  for (auto _ : state) {
    QueryResult res = session->Run(workload[i++ % workload.size()]);
    benchmark::DoNotOptimize(res.estimates.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeWarmQuery);

void BM_ServeColdQuery(benchmark::State& state) {
  const LoadFixture& files = LoadFixtureFiles();
  const std::vector<QueryRequest> workload = ServeWorkload(8);
  size_t i = 0;
  for (auto _ : state) {
    std::unique_ptr<QuerySession> session;
    SAPHYRA_CHECK(
        QuerySession::Open(files.full_sgr_path, SessionOptions(), &session)
            .ok());
    QueryResult res = session->Run(workload[i++ % workload.size()]);
    benchmark::DoNotOptimize(res.estimates.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeColdQuery);

// Full serve-from-cache: load + decomposition, text pipeline vs. cache.
void BM_PreprocessFromCache(benchmark::State& state) {
  const LoadFixture& files = LoadFixtureFiles();
  for (auto _ : state) {
    GraphCache cache;
    SAPHYRA_CHECK(LoadSgr(files.full_sgr_path, &cache).ok());
    Graph g = std::move(cache.graph);
    IspIndex isp(g, std::move(cache));
    benchmark::DoNotOptimize(isp.gamma());
  }
}
BENCHMARK(BM_PreprocessFromCache);

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool saw_speedup_flag = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--speedup_json=", 15) == 0) {
      json_path = argv[i] + 15;
      saw_speedup_flag = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // The speedup suite takes minutes; run it for plain invocations and when
  // explicitly requested, but not when someone is iterating on a single
  // gbench kernel via --benchmark_* flags.
  if (saw_speedup_flag || passthrough.size() == 1) {
    RunSpeedupSuite(json_path);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
