#ifndef SAPHYRA_BENCH_E2E_RUNNER_H_
#define SAPHYRA_BENCH_E2E_RUNNER_H_

/// \file
/// One benchmark run of one workload: set-up (timed repeatedly), warm-up,
/// the untraced timed phase that every end-to-end metric comes from, the
/// optional traced phase that gives the per-layer split, and the oracle
/// that checks every served line against a plain QuerySession::Run.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "host_speed.h"
#include "net/socket.h"
#include "service/query.h"
#include "service/scheduler.h"
#include "service/session.h"
#include "service/session_pool.h"
#include "service/shard.h"
#include "workloads.h"

namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  std::string inputs;  ///< directory written by `e2e_bench gen`
  double seconds = 18.0;
  bool trace = false;
  bool smoke = false;
  std::string cache;    ///< ground-truth cache directory
  std::string results;  ///< results file to write
  std::string spans;    ///< span file to write (traced runs)
  std::string worker_binary;
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

/// One served request of a timed phase.
struct Record {
  uint32_t line = 0;  ///< index into the warm-up + stream lines
  uint32_t pass = 0;
  double latency_ms = 0.0;  ///< parse → Run → serialize
  uint64_t digest = 0;      ///< FNV-1a of the masked served line
  double compute_s = 0.0;   ///< QueryResult::seconds
  double run_ms = 0.0;      ///< traced: the Run / ApplyUpdate span
  uint32_t bytes = 0;
  bool update = false;
  bool failed = false;  ///< error status or degraded answer
  saphyra::ServeMode mode = saphyra::ServeMode::kComputed;
  saphyra::EstimatorKind estimator = saphyra::EstimatorKind::kBc;
  uint64_t dirty_arcs = 0;  ///< traced updates: repair routing
  bool fell_back = false;
};

struct Phase {
  std::vector<Record> records;
  std::vector<SpanLog> logs;  ///< one per client; traced phases only
  double wall_s = 0.0;
  std::vector<double> pass_s;  ///< wall time of each whole pass
  /// HostSpeed::Sample() before the first pass and after every pass, so
  /// pass p lies between slowdown[p] and slowdown[p + 1].
  std::vector<double> slowdown;
  uint64_t evictions = 0;
  bool exhausted = false;   ///< the generated stream ran out
  std::string sample_line;  ///< one served query line (negative check)
  uint32_t sample_index = 0;
};

struct SetupSample {
  double total = 0, parse = 0, decompose = 0, write = 0, open = 0,
         adopt = 0, start = 0;
};

/// Exact-subspace / sampling split of replayed queries (traced runs).
struct ReplayStats {
  std::vector<double> exact_ms, sampling_ms, samples, pilot, local_ms;
  std::vector<double> wave_rpc_ms, sharded_ms, rounds;
  uint64_t rejected = 0, drawn = 0, bc = 0, identical = 0, waves = 0;
  SpanLog log;
};

/// The acknowledgement a scheduler serves for an update that
/// QuerySession::ApplyUpdate answered with `st` and `outcome`. The oracle
/// and the traced serve path (which applies updates directly) both build
/// it here.
saphyra::QueryResult UpdateResult(const saphyra::QueryRequest& req,
                                  const saphyra::Status& st,
                                  const saphyra::UpdateOutcome& outcome);

/// The oracle's answer for one line.
struct RefLine {
  bool done = false;
  uint64_t digest = 0;
  std::shared_ptr<const saphyra::QueryResult> result;
};

class Runner {
 public:
  Runner(WorkloadSpec spec, RunOptions opt);
  ~Runner();
  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  /// Whole run; prints the metric table and the final JSON line. Returns
  /// the process exit code (0 correct, 1 incorrect, 2 could not run).
  int Run();

 private:
  // --- set-up (serve.cc) -----------------------------------------------
  saphyra::Status LoadLines();
  saphyra::Status SetupOnce(SetupSample* s);
  saphyra::Status StartWorkers();
  saphyra::Status ReopenSession();
  void TearDown();
  std::shared_ptr<const saphyra::GraphSnapshot> Snapshot(
      const std::string& graph);
  std::unique_ptr<saphyra::BatchScheduler> MakeScheduler();

  // --- serving (serve.cc) ----------------------------------------------
  saphyra::Status Warmup();
  Phase Serve(bool traced);
  void ServePass(saphyra::BatchScheduler* sched, size_t begin, size_t end,
                 uint32_t pass, Phase* ph, bool keep_sample);
  /// `sample` non-null: keep the first served query line there.
  Record ServeLine(saphyra::BatchScheduler* sched, size_t line,
                   uint32_t pass, SpanLog* log, Phase* sample);
  saphyra::QueryResult TracedCall(saphyra::BatchScheduler* sched,
                                  const saphyra::QueryRequest& req,
                                  SpanLog* log, int32_t root, Record* rec);

  // --- oracle and replays (oracle.cc) ----------------------------------
  saphyra::Status ReferenceStatic(const std::vector<bool>& needed);
  saphyra::Status ReferenceMutating(size_t last_line,
                                    const std::set<uint32_t>& replay,
                                    ReplayStats* rs);
  void Replay(const saphyra::GraphSnapshot& snap,
              const saphyra::QueryRequest& canonical,
              const saphyra::QueryResult& served, ReplayStats* rs);
  saphyra::Status GroundTruth(const saphyra::GraphSnapshot& snap,
                              std::vector<double>* bc);
  double GenUsPerSample(bool road);

  WorkloadSpec spec_;
  RunOptions opt_;
  std::vector<std::string> lines_;  ///< warm-up lines, then stream lines
  size_t warm_ = 0;
  std::vector<RefLine> ref_;
  uint64_t rebuild_checks_ = 0;
  uint64_t rebuild_mismatches_ = 0;
  HostSpeed host_speed_;

  // Live serving state. Declared so destruction tears down the worker
  // tier (supervisor, then launcher, then its socket) before the sessions
  // whose graphs the workers mirror.
  std::unique_ptr<saphyra::SessionPool> pool_;
  std::unique_ptr<saphyra::QuerySession> session_;
  saphyra::net::Endpoint shard_ep_;
  saphyra::net::UniqueFd shard_listen_;
  std::unique_ptr<saphyra::ProcessWorkerLauncher> launcher_;
  std::unique_ptr<saphyra::WorkerSupervisor> supervisor_;
};

}  // namespace e2e

#endif  // SAPHYRA_BENCH_E2E_RUNNER_H_
