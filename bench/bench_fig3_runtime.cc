// Reproduces Fig. 3 of the paper: running time (log scale in the paper)
// versus the error guarantee ε ∈ {0.2, 0.1, 0.05, 0.02, 0.01} for ABRA,
// KADABRA, SaPHyRa_bc-full and SaPHyRa_bc (subsets of 100 random nodes),
// on all four networks. δ = 0.01, matching §V-A.
//
// Expected shape: SaPHyRa_bc fastest (the paper reports 7-235x vs KADABRA,
// 90-425x vs ABRA, and 4-11x vs SaPHyRa_bc-full).

#include <cstdio>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "bench_util.h"
#include "metrics/rank.h"

using namespace saphyra;
using namespace saphyra::bench;

int main() {
  const std::vector<double> epsilons = {0.2, 0.1, 0.05, 0.02, 0.01};
  const double delta = 0.01;
  const int kSubsets = 5;  // paper: 1000 subsets; scaled for the harness
  const size_t kSubsetSize = 100;

  PrintHeader("Fig. 3: running time (s) vs epsilon, delta = 0.01");
  CsvWriter csv("bench_fig3_runtime.csv",
                "network,epsilon,abra_s,kadabra_s,saphyra_full_s,"
                "saphyra_mean_s,saphyra_ci95_s");
  for (const BenchNetwork& net : AllNetworks()) {
    IspIndex isp(net.graph);
    std::printf("\n-- %s (%s) --\n", net.name.c_str(),
                net.graph.DebugString().c_str());
    std::printf("%8s %12s %12s %14s %22s\n", "eps", "ABRA", "KADABRA",
                "SaPHyRa-full", "SaPHyRa (mean +- ci)");
    for (double eps : epsilons) {
      Timer t;
      SamplingOptions aopts;
      aopts.epsilon = eps;
      aopts.delta = delta;
      aopts.seed = 11;
      t.Restart();
      RunAbra(net.graph, aopts);
      double abra_s = t.ElapsedSeconds();

      KadabraOptions kopts;
      kopts.epsilon = eps;
      kopts.delta = delta;
      kopts.seed = 12;
      t.Restart();
      RunKadabra(net.graph, kopts);
      double kadabra_s = t.ElapsedSeconds();

      SaphyraBcOptions sopts;
      sopts.epsilon = eps;
      sopts.delta = delta;
      sopts.seed = 13;
      t.Restart();
      RunSaphyraBcFull(isp, sopts);
      double full_s = t.ElapsedSeconds();

      TrialAggregate sub;
      for (int s = 0; s < kSubsets; ++s) {
        auto targets = RandomSubset(net.graph, kSubsetSize, 900 + s);
        sopts.seed = 500 + s;
        t.Restart();
        RunSaphyraBc(isp, targets, sopts);
        sub.Add(t.ElapsedSeconds());
      }
      std::printf("%8.2f %12.3f %12.3f %14.3f %14.4f +- %.4f\n", eps, abra_s,
                  kadabra_s, full_s, sub.mean(), sub.ci95_half_width());
      csv.Row("%s,%.2f,%.4f,%.4f,%.4f,%.5f,%.5f", net.name.c_str(), eps,
              abra_s, kadabra_s, full_s, sub.mean(), sub.ci95_half_width());
    }
  }
  std::printf(
      "\nExpected shape: every column grows roughly as 1/eps^2; SaPHyRa_bc "
      "beats SaPHyRa_bc-full,\nwhich beats KADABRA, which beats ABRA "
      "(Fig. 3 of the paper).\n");
  return 0;
}
