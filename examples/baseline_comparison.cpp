// Head-to-head comparison of SaPHyRa_bc against the two baselines of the
// paper's evaluation, ABRA (node-pair sampling, Rademacher stopping) and
// KADABRA (path sampling, bidirectional BFS), on one laptop-scale network
// with exact ground truth — a single-command miniature of Figs. 3, 4, 6.
//
//   $ ./examples/baseline_comparison [epsilon] [graph-file]
//
// The optional graph file (SNAP edge list or `.sgr` cache) replaces the
// generated network; keep it laptop-scale — exact Brandes ground truth is
// computed for the comparison.

#include <cstdio>
#include <cstdlib>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/brandes.h"
#include "bc/saphyra_bc.h"
#include "example_util.h"
#include "graph/generators.h"
#include "metrics/rank.h"
#include "util/timer.h"

using namespace saphyra;

int main(int argc, char** argv) {
  const double eps = argc > 1 ? std::atof(argv[1]) : 0.05;
  const double delta = 0.01;
  examples::ExampleGraph eg;
  if (argc > 2) {
    eg = examples::LoadExampleGraph(argv[2]);
  } else {
    eg.graph = BarabasiAlbert(4000, 3, 99);
  }
  const Graph& g = eg.graph;
  std::printf("network: %s, epsilon = %.3f, delta = %.2f\n",
              g.DebugString().c_str(), eps, delta);

  std::vector<double> truth = ParallelBrandesBetweenness(g);
  std::unique_ptr<IspIndex> isp_ptr = examples::MakeIsp(eg);
  const IspIndex& isp = *isp_ptr;

  // The subset of interest: 100 random nodes.
  Rng rng(123);
  std::vector<NodeId> targets;
  while (targets.size() < 100) {
    NodeId v = static_cast<NodeId>(rng.UniformInt(g.num_nodes()));
    bool dup = false;
    for (NodeId u : targets) dup |= (u == v);
    if (!dup) targets.push_back(v);
  }
  std::vector<double> truth_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) truth_sub[i] = truth[targets[i]];

  struct Row {
    const char* name;
    double seconds;
    uint64_t samples;
    std::vector<double> estimate;
  };
  std::vector<Row> rows;

  Timer t;
  SamplingOptions aopts;
  aopts.epsilon = eps;
  aopts.delta = delta;
  aopts.seed = 1;
  t.Restart();
  AbraResult abra = RunAbra(g, aopts);
  std::vector<double> abra_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) abra_sub[i] = abra.bc[targets[i]];
  rows.push_back({"ABRA", t.ElapsedSeconds(), abra.samples_used, abra_sub});

  KadabraOptions kopts;
  kopts.epsilon = eps;
  kopts.delta = delta;
  kopts.seed = 2;
  t.Restart();
  KadabraResult kad = RunKadabra(g, kopts);
  std::vector<double> kad_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) kad_sub[i] = kad.bc[targets[i]];
  rows.push_back({"KADABRA", t.ElapsedSeconds(), kad.samples_used, kad_sub});

  SaphyraBcOptions sopts;
  sopts.epsilon = eps;
  sopts.delta = delta;
  sopts.seed = 3;
  t.Restart();
  SaphyraBcResult full = RunSaphyraBcFull(isp, sopts);
  std::vector<double> full_sub(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) full_sub[i] = full.bc[targets[i]];
  rows.push_back(
      {"SaPHyRa_bc-full", t.ElapsedSeconds(), full.samples_used, full_sub});

  t.Restart();
  SaphyraBcResult sub = RunSaphyraBc(isp, targets, sopts);
  rows.push_back({"SaPHyRa_bc", t.ElapsedSeconds(), sub.samples_used, sub.bc});

  std::printf("\n%-16s %10s %10s %10s %10s %12s %12s\n", "algorithm",
              "time (s)", "samples", "Spearman", "Kendall", "max |err|",
              "false zeros");
  for (const Row& row : rows) {
    double max_err = 0.0;
    for (size_t i = 0; i < targets.size(); ++i) {
      max_err = std::max(max_err, std::abs(row.estimate[i] - truth_sub[i]));
    }
    ZeroStats z = ClassifyZeros(truth_sub, row.estimate);
    std::printf("%-16s %10.3f %10llu %10.3f %10.3f %12.2e %12llu\n", row.name,
                row.seconds, static_cast<unsigned long long>(row.samples),
                SpearmanCorrelation(truth_sub, row.estimate),
                KendallTau(truth_sub, row.estimate), max_err,
                static_cast<unsigned long long>(z.false_zeros));
  }
  std::printf(
      "\nAll algorithms respect |err| < epsilon = %.3f; the *ranking* "
      "columns are where they differ\n(the paper's central point: equal "
      "estimation guarantees, very different rank quality).\n",
      eps);
  return 0;
}
