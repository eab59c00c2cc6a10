#ifndef SAPHYRA_BENCH_E2E_WORKLOADS_H_
#define SAPHYRA_BENCH_E2E_WORKLOADS_H_

/// \file
/// The four end-to-end workloads and their input generator. A workload is
/// a fixed shape (graphs, client count, scheduler settings, request mix).
/// Its graphs are fixed datasets, generated from the workload's name alone,
/// so their exact-betweenness ground truth is computed once per checkout;
/// the requests — target sets, query seeds, Zipf draws and their order,
/// update edges — are a pure function of the `--seed` the benchmark is
/// given. The counts below were calibrated once so one run of the default
/// length fits the benchmark's time budget (see README.md); changing them
/// changes the benchmark and needs a new baseline.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace e2e {

/// One served graph. Social graphs are Barabási–Albert cores with 30%
/// degree-1 leaves (the paper's Flickr/LiveJournal regime: tiny diameter,
/// many zero-betweenness nodes); road graphs are RoadGrid lattices with
/// keep probability 0.75 (the USA-road regime: long BFS, many blocks).
struct GraphSpec {
  std::string name;  ///< tenant name and file stem
  bool road = false;
  saphyra::NodeId size = 0;  ///< social: node count; road: grid side
};

struct WorkloadSpec {
  std::string name;
  std::vector<GraphSpec> graphs;
  /// Requests route through a SessionPool by their "graph" field.
  bool pooled = false;
  /// Sample waves run on 2 saphyra_worker processes behind a
  /// WorkerSupervisor.
  bool sharded = false;
  /// The stream interleaves {"op":"update"} lines (allow_updates).
  bool mutating = false;
  /// Closed-loop client threads; lines are split over them round-robin.
  uint32_t clients = 1;
  uint32_t max_concurrent = 1;
  /// Lines per pass: the timed phase serves consecutive blocks of this many
  /// stream lines, all on one fresh scheduler, until the run length has
  /// elapsed; the output digest covers the first pass.
  size_t pass_lines = 0;
  /// Lines generated for the timed phase (a cap a faster host could hit).
  size_t stream_lines = 0;
  /// Lines of the warm-up stream served before the clock starts.
  size_t warmup_lines = 0;
  /// serve-mixed: distinct queries the Zipf draws pick from.
  /// serve-mutating: bc queries the cycles pick from.
  size_t catalogue = 0;
  /// serve-mixed: lines per Zipf block; every block of the stream is the
  /// same multiset of catalogue ranks in its own order.
  size_t zipf_block = 0;
};

/// The spec of workload `name`; `smoke` shrinks graphs and counts to
/// about 5% for the quick self-check. Fails on an unknown name.
saphyra::Status FindWorkload(const std::string& name, bool smoke,
                             WorkloadSpec* out);

/// Path of graph `g`'s text edge list inside the input directory, and of
/// the `.sgr` the set-up phase converts it to.
std::string GraphTextPath(const std::string& dir, const GraphSpec& g);
std::string GraphSgrPath(const std::string& dir, const GraphSpec& g);

/// Write every input of `spec` for `seed` into `dir`: one SNAP edge list
/// per graph (the same for every seed), `warmup.jsonl` and `stream.jsonl`
/// (NDJSON request lines). The same seed always writes the same bytes.
saphyra::Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                               const std::string& dir);

}  // namespace e2e

#endif  // SAPHYRA_BENCH_E2E_WORKLOADS_H_
