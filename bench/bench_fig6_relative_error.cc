// Reproduces Fig. 6 of the paper: histogram of the signed relative error
// (est/truth - 1)*100% at ε = 0.05, |A| = 100, with the true-zero /
// false-zero split that explains the baselines' poor rank quality.
//
// Expected shape: ABRA/KADABRA concentrate >95% of nodes at 0% (true
// zeros) or -100% (false zeros); SaPHyRa has no false zeros at all
// (Lemma 19) and a tight error distribution around 0.

#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "bench_util.h"
#include "metrics/rank.h"

using namespace saphyra;
using namespace saphyra::bench;

namespace {

struct Histogram {
  // Buckets: -100 (exact), (-100,-50], (-50,-10], (-10,10], (10,50],
  // (50,150], >150 or inf.
  std::vector<double> edges = {-99.999, -50, -10, 10, 50, 150};
  std::vector<uint64_t> counts = std::vector<uint64_t>(7, 0);
  uint64_t total = 0;

  void Add(double err) {
    ++total;
    if (err <= -99.999) {
      ++counts[0];
      return;
    }
    for (size_t i = 0; i < edges.size() - 1; ++i) {
      if (err <= edges[i + 1]) {
        ++counts[i + 1];
        return;
      }
    }
    ++counts[6];
  }

  void Print(const char* name) const {
    std::printf("  %-14s", name);
    for (uint64_t c : counts) {
      std::printf(" %6.1f%%", 100.0 * c / std::max<uint64_t>(1, total));
    }
    std::printf("\n");
  }
};

}  // namespace

int main() {
  const double eps = 0.05, delta = 0.01;
  const int kSubsets = 10;
  const size_t kSubsetSize = 100;

  PrintHeader("Fig. 6: signed relative error histogram (eps=0.05, |A|=100)");
  std::printf("Buckets:        %7s %7s %7s %7s %7s %7s %7s\n", "-100%",
              "<=-50", "<=-10", "~0", "<=50", "<=150", ">150");
  CsvWriter csv("bench_fig6_relative_error.csv",
                "network,algorithm,true_zero_pct,false_zero_pct,"
                "b_m100,b_m50,b_m10,b_0,b_50,b_150,b_inf");
  for (const BenchNetwork& net : AllNetworks()) {
    IspIndex isp(net.graph);
    std::vector<double> truth = GroundTruth(net);

    SamplingOptions aopts;
    aopts.epsilon = eps;
    aopts.delta = delta;
    aopts.seed = 41;
    AbraResult abra = RunAbra(net.graph, aopts);
    KadabraOptions kopts;
    kopts.epsilon = eps;
    kopts.delta = delta;
    kopts.seed = 42;
    KadabraResult kadabra = RunKadabra(net.graph, kopts);

    Histogram ha, hk, hs;
    ZeroStats za_total, zk_total, zs_total;
    uint64_t samples = 0;
    for (int s = 0; s < kSubsets; ++s) {
      auto targets = RandomSubset(net.graph, kSubsetSize, 5100 + s);
      auto truth_sub = Restrict(truth, targets);
      SaphyraBcOptions sopts;
      sopts.epsilon = eps;
      sopts.delta = delta;
      sopts.seed = 6200 + s;
      SaphyraBcResult sres = RunSaphyraBc(isp, targets, sopts);
      auto abra_sub = Restrict(abra.bc, targets);
      auto kad_sub = Restrict(kadabra.bc, targets);
      auto AddAll = [&](Histogram* h, const std::vector<double>& est) {
        auto errs = SignedRelativeErrorPercent(truth_sub, est);
        for (double e : errs) {
          h->Add(std::isinf(e) ? 1e9 : e);
        }
      };
      AddAll(&ha, abra_sub);
      AddAll(&hk, kad_sub);
      AddAll(&hs, sres.bc);
      auto Merge = [](ZeroStats* acc, ZeroStats z) {
        acc->true_zeros += z.true_zeros;
        acc->false_zeros += z.false_zeros;
        acc->nonzeros += z.nonzeros;
      };
      Merge(&za_total, ClassifyZeros(truth_sub, abra_sub));
      Merge(&zk_total, ClassifyZeros(truth_sub, kad_sub));
      Merge(&zs_total, ClassifyZeros(truth_sub, sres.bc));
      samples += targets.size();
    }
    std::printf("\n-- %s (%llu target nodes total) --\n", net.name.c_str(),
                static_cast<unsigned long long>(samples));
    ha.Print("ABRA");
    hk.Print("KADABRA");
    hs.Print("SaPHyRa");
    auto PrintZeros = [&](const char* name, const ZeroStats& z) {
      std::printf("  %-14s true zeros %5.1f%%   false zeros %5.1f%%\n", name,
                  100.0 * z.true_zeros / samples,
                  100.0 * z.false_zeros / samples);
      return std::pair<double, double>{100.0 * z.true_zeros / samples,
                                       100.0 * z.false_zeros / samples};
    };
    auto AbraZ = PrintZeros("ABRA", za_total);
    auto KadZ = PrintZeros("KADABRA", zk_total);
    auto SapZ = PrintZeros("SaPHyRa", zs_total);
    auto WriteCsv = [&](const char* alg, std::pair<double, double> z,
                        const Histogram& h) {
      csv.Row("%s,%s,%.2f,%.2f,%llu,%llu,%llu,%llu,%llu,%llu,%llu",
              net.name.c_str(), alg, z.first, z.second,
              (unsigned long long)h.counts[0], (unsigned long long)h.counts[1],
              (unsigned long long)h.counts[2], (unsigned long long)h.counts[3],
              (unsigned long long)h.counts[4], (unsigned long long)h.counts[5],
              (unsigned long long)h.counts[6]);
    };
    WriteCsv("abra", AbraZ, ha);
    WriteCsv("kadabra", KadZ, hk);
    WriteCsv("saphyra", SapZ, hs);
  }
  std::printf(
      "\nExpected shape: baselines put most mass at -100%% (false zeros) "
      "and 0%% (true zeros);\nSaPHyRa has zero false zeros (Lemma 19) and a "
      "tight bump around 0%% (Fig. 6 of the paper).\n");
  return 0;
}
