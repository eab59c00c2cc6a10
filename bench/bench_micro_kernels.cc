// Google-benchmark micro suite for the kernels the estimators spend their
// time in: BFS (both traversal policies), biconnected decomposition, ISP
// index construction, uniform and Gen_bc path sampling, one Brandes
// source, the Exact_bc 2-hop pass, and the graph load paths.
//
// In addition to the gbench timings, a hand-rolled suite runs first and
// prints machine-readable ratios between two production paths: the `.sgr`
// cache vs. text parsing (`binary_load`, `cached_preprocess`), and the
// adaptive stop vs. the fixed VC-cap budget at equal ε
// (`adaptive_sample_reduction`). It takes seconds. Pass
// --speedup_json=PATH to also dump them as JSON (tools/run_benchmarks.sh
// does).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "bc/brandes.h"
#include "bc/exact_subspace.h"
#include "bc/path_sampler.h"
#include "bc/saphyra_bc.h"
#include "bench_util.h"
#include "bicomp/isp.h"
#include "graph/bfs.h"
#include "graph/binary_io.h"
#include "graph/io.h"

using namespace saphyra;
using namespace saphyra::bench;

namespace {

const Graph& SocialFixture() {
  static Graph g = SocialGraph(20000, 0.3, 5, 900);
  return g;
}

// Leaf-heavy social surrogate (flickr-s profile): hubs carry many bridge
// arcs to leaves, each its own block outside the hub's giant one.
const Graph& LeafySocialFixture() {
  static Graph g = SocialGraph(20000, 0.55, 5, 902);
  return g;
}

const Graph& RoadFixture() {
  static Graph g = RoadGrid(150, 120, 0.85, 901).graph;
  return g;
}

// Near-complete lattice: one giant biconnected block, the dense-frontier
// regime for component-restricted sampling on road-like inputs.
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
    case 2: return LeafySocialIsp();
    default: return GridIsp();
  }
}

// ---------------------------------------------------------------------------
// Speedup suite: paired production-path measurements with explicit ratios.
// ---------------------------------------------------------------------------

struct Speedup {
  const char* key;
  double baseline_s;
  double optimized_s;
  double ratio() const { return baseline_s / optimized_s; }
};

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

void RunSpeedupSuite(const std::string& json_path) {
  std::printf("==== optimization speedups (baseline / optimized) ====\n");
  const Speedup results[] = {MeasureBinaryLoad(), MeasureCachedPreprocess()};
  for (const Speedup& s : results) {
    std::printf("[speedup] %-28s baseline=%.4fs optimized=%.4fs ratio=%.2fx\n",
                s.key, s.baseline_s, s.optimized_s, s.ratio());
  }

  AdaptiveReduction adaptive = MeasureAdaptiveReduction();
  std::printf(
      "[speedup] %-28s adaptive=%llu fixed=%llu ratio=%.2fx\n",
      "adaptive_sample_reduction",
      static_cast<unsigned long long>(adaptive.adaptive_samples),
      static_cast<unsigned long long>(adaptive.fixed_budget_samples),
      adaptive.ratio());

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
  // Host context: regression tooling can only tell a hardware artifact
  // from a regression if the measurement records the machine.
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << "\n}\n";
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
// Arg(0)=social, Arg(1)=road, Arg(2)=leafy social, Arg(3)=grid.
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
BENCHMARK(BM_GenBcSampleView)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

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
  // Run the speedup suite for plain invocations and when explicitly
  // requested, but not when someone is iterating on a single gbench kernel
  // via --benchmark_* flags.
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
