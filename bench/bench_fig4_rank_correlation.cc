// Reproduces Fig. 4 of the paper: Spearman's rank correlation between the
// estimated and exact betweenness of random 100-node subsets, as a function
// of ε, with 95% confidence intervals across subsets.
//
// Expected shape: SaPHyRa_bc (and -full) near 1 across the sweep; ABRA and
// KADABRA low and wildly varying at loose ε, recovering only at tiny ε
// (the paper reports e.g. 0.84 vs 0.13/0.09 on LiveJournal at ε = 0.05).

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
  const int kSubsets = 10;  // paper: 1000; scaled for the harness
  const size_t kSubsetSize = 100;

  PrintHeader("Fig. 4: Spearman rank correlation vs epsilon (100-node subsets)");
  CsvWriter csv("bench_fig4_rank_correlation.csv",
                "network,epsilon,abra_mean,abra_ci,kadabra_mean,kadabra_ci,"
                "saphyra_full_mean,saphyra_full_ci,saphyra_mean,saphyra_ci");
  for (const BenchNetwork& net : AllNetworks()) {
    IspIndex isp(net.graph);
    std::vector<double> truth = GroundTruth(net);
    std::printf("\n-- %s --\n", net.name.c_str());
    std::printf("%8s %18s %18s %18s %18s\n", "eps", "ABRA", "KADABRA",
                "SaPHyRa-full", "SaPHyRa");
    for (double eps : epsilons) {
      SamplingOptions aopts;
      aopts.epsilon = eps;
      aopts.delta = delta;
      aopts.seed = 21;
      AbraResult abra = RunAbra(net.graph, aopts);

      KadabraOptions kopts;
      kopts.epsilon = eps;
      kopts.delta = delta;
      kopts.seed = 22;
      KadabraResult kadabra = RunKadabra(net.graph, kopts);

      SaphyraBcOptions fopts;
      fopts.epsilon = eps;
      fopts.delta = delta;
      fopts.seed = 23;
      SaphyraBcResult full = RunSaphyraBcFull(isp, fopts);

      TrialAggregate ra, rk, rf, rs;
      for (int s = 0; s < kSubsets; ++s) {
        auto targets = RandomSubset(net.graph, kSubsetSize, 3100 + s);
        auto truth_sub = Restrict(truth, targets);
        ra.Add(SpearmanCorrelation(truth_sub, Restrict(abra.bc, targets)));
        rk.Add(SpearmanCorrelation(truth_sub, Restrict(kadabra.bc, targets)));
        rf.Add(SpearmanCorrelation(truth_sub, Restrict(full.bc, targets)));
        SaphyraBcOptions sopts;
        sopts.epsilon = eps;
        sopts.delta = delta;
        sopts.seed = 4200 + s;
        SaphyraBcResult sub = RunSaphyraBc(isp, targets, sopts);
        rs.Add(SpearmanCorrelation(truth_sub, sub.bc));
      }
      std::printf(
          "%8.2f %10.3f+-%.3f %10.3f+-%.3f %10.3f+-%.3f %10.3f+-%.3f\n", eps,
          ra.mean(), ra.ci95_half_width(), rk.mean(), rk.ci95_half_width(),
          rf.mean(), rf.ci95_half_width(), rs.mean(), rs.ci95_half_width());
      csv.Row("%s,%.2f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f",
              net.name.c_str(), eps, ra.mean(), ra.ci95_half_width(),
              rk.mean(), rk.ci95_half_width(), rf.mean(),
              rf.ci95_half_width(), rs.mean(), rs.ci95_half_width());
    }
  }
  std::printf(
      "\nExpected shape: SaPHyRa columns near 1 with tight CIs; baseline "
      "columns low/noisy at\nloose eps and improving as eps shrinks "
      "(Fig. 4 of the paper).\n");
  return 0;
}
