// e2e_bench — the end-to-end benchmark's load generator and oracle.
//
//   e2e_bench gen --workload W --seed S --out DIR [--smoke]
//       Write the workload's inputs for seed S into DIR: SNAP edge lists
//       and NDJSON request streams. Nothing else reaches the serving code.
//
//   e2e_bench run --workload W --seed S --inputs DIR --seconds T
//                 --trace 0|1 --cache DIR --results FILE --spans FILE
//                 --worker-binary PATH [--commit C --dirty D] [--smoke]
//       Set up (repeatedly, timed), warm up, serve the stream through
//       ParseQueryRequest → BatchScheduler::Run → SerializeQueryResult for
//       T seconds of whole passes, check every served line against a plain
//       QuerySession::Run, and print the metrics. With --trace 1 the
//       stream is served a second time with spans around every layer call
//       and the per-layer metrics are printed instead.
//
// bench/e2e/run.sh builds this program and drives it; see README.md.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "metrics/rank.h"
#include "runner.h"
#include "service/json_util.h"
#include "util/hash.h"

namespace e2e {

using namespace saphyra;

namespace {

double P50(const std::vector<double>& v) { return Percentile(v, 50); }
double P95(const std::vector<double>& v) { return Percentile(v, 95); }
double Ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Smallest k with Pr[Bin(n, p) >= k] < alpha: more ε-misses than this
/// contradict the (ε, δ) guarantee at significance alpha.
uint64_t BinomialCritical(uint64_t n, double p, double alpha) {
  std::vector<double> pmf(n + 1, 0.0);
  pmf[0] = std::pow(1.0 - p, static_cast<double>(n));
  for (uint64_t k = 1; k <= n; ++k) {
    pmf[k] = pmf[k - 1] * static_cast<double>(n - k + 1) /
             static_cast<double>(k) * p / (1.0 - p);
  }
  double tail = 0.0;
  for (uint64_t k = n + 1; k-- > 0;) {
    if (tail + pmf[k] >= alpha) return k + 1;
    tail += pmf[k];
  }
  return 0;
}

/// `line` with the last digit of its first estimate changed — a served
/// answer that is wrong in one value.
std::string PerturbFirstEstimate(const std::string& line) {
  std::string bad = line;
  const size_t at = bad.find("\"estimates\":[");
  if (at == std::string::npos) return bad;
  size_t end = bad.find_first_of(",]", at + 13);
  while (end > at + 13 && !std::isdigit(static_cast<unsigned char>(bad[end - 1]))) {
    --end;
  }
  if (end > at + 13) {
    char& d = bad[end - 1];
    d = d == '9' ? '8' : static_cast<char>(d + 1);
  }
  return bad;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void PrintSection(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-46s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonWriter w;
  for (const Metric& m : metrics) {
    JsonWriter v;
    v.Number("value", m.value);
    v.String("unit", m.unit);
    w.Raw(m.name, v.str());
  }
  return w.str();
}

}  // namespace

int Runner::Run() {
  const HostRecord host = CaptureHost(opt_.commit, opt_.dirty);
  if (host.loadavg_1m > static_cast<double>(host.nproc) / 2.0) {
    std::fprintf(stderr,
                 "warning: 1-minute load average %.2f exceeds nproc/2 (%ld); "
                 "timings will be noisy\n",
                 host.loadavg_1m, host.nproc);
  }
  Status st = LoadLines();
  const double rss0 = ProcStatusMiB("VmRSS");
  // A set-up of tens of milliseconds is mostly an fsync and page faults,
  // so its median needs many samples: at least five, and more until a
  // second of set-up has been timed.
  std::vector<SetupSample> setups;
  double setup_spent = 0.0;
  while (st.ok() && (setups.size() < 5 ||
                     (setup_spent < 1.0 && setups.size() < 25))) {
    setups.emplace_back();
    st = SetupOnce(&setups.back());
    setup_spent += setups.back().total;
  }
  if (st.ok()) st = Warmup();
  if (!st.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
    return 2;
  }

  // --- timed phases -----------------------------------------------------
  const Phase plain = Serve(false);
  const double rss_peak = ProcStatusMiB("VmHWM") - rss0;
  Phase traced;
  if (opt_.trace) {
    if (spec_.mutating) {
      // Fresh state: epoch 0 again, and the warm-up updates replayed.
      st = ReopenSession();
      if (st.ok()) st = Warmup();
      if (!st.ok()) {
        std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
        return 2;
      }
    }
    traced = Serve(true);
  }
  if (plain.pass_s.empty()) {
    std::fprintf(stderr, "e2e_bench: the stream holds no complete pass\n");
    return 2;
  }

  // --- oracle -----------------------------------------------------------
  std::vector<bool> needed(lines_.size(), false);
  size_t last_line = 0;
  for (const Phase* ph : {&plain, static_cast<const Phase*>(&traced)}) {
    for (const Record& r : ph->records) {
      needed[r.line] = true;
      last_line = std::max<size_t>(last_line, r.line);
    }
  }
  std::set<uint32_t> replay_lines;
  const size_t replay_cap = opt_.smoke ? 8 : 40;
  {
    std::vector<uint32_t> computed;
    for (const Record& r : traced.records) {
      if (!r.update && !r.failed && r.mode == ServeMode::kComputed) {
        computed.push_back(r.line);
      }
    }
    std::sort(computed.begin(), computed.end());
    for (uint32_t li : computed) {
      if (replay_lines.size() == replay_cap) break;
      replay_lines.insert(li);
    }
  }
  ReplayStats rs;
  rs.log.Reserve(1 << 14);
  st = spec_.mutating ? ReferenceMutating(last_line, replay_lines, &rs)
                      : ReferenceStatic(needed);
  for (uint32_t li : replay_lines) {
    if (!st.ok() || spec_.mutating) break;
    QueryRequest c;
    st = ParseQueryRequest(lines_[li], &c);
    auto snap = Snapshot(c.graph);
    if (st.ok() && snap != nullptr) {
      st = CanonicalizeQuery(snap->graph().num_nodes(), &c);
      if (st.ok()) Replay(*snap, c, *ref_[li].result, &rs);
    }
  }
  if (!st.ok()) {
    std::fprintf(stderr, "e2e_bench: oracle: %s\n", st.ToString().c_str());
    return 2;
  }
  uint64_t mismatches = 0, failed = 0;
  for (const Phase* ph : {&plain, static_cast<const Phase*>(&traced)}) {
    for (const Record& r : ph->records) {
      if (!ref_[r.line].done || ref_[r.line].digest != r.digest) ++mismatches;
      if (r.failed) ++failed;
    }
  }
  // The gate must be able to fire: the sample line passes it, the same
  // line with one estimate nudged must not.
  const uint64_t sample_ref = ref_[plain.sample_index].digest;
  const bool negative_check =
      !plain.sample_line.empty() &&
      Fnv(MaskLine(plain.sample_line)) == sample_ref &&
      Fnv(MaskLine(PerturbFirstEstimate(plain.sample_line))) != sample_ref;

  // Output digest: FNV-1a over the first pass's masked-line digests in
  // stream order. Identical across runs of one seed.
  std::vector<std::pair<uint32_t, uint64_t>> first_pass;
  for (const Record& r : plain.records) {
    if (r.pass == 0) first_pass.emplace_back(r.line, r.digest);
  }
  std::sort(first_pass.begin(), first_pass.end());
  Fnv1a64 digest;
  for (const auto& [line, d] : first_pass) digest.UpdateValue(d);

  // --- ranking quality against Brandes ground truth ---------------------
  double spearman_sum = 0.0;
  uint64_t ranked = 0, eps_queries = 0, eps_misses = 0;
  const bool rank = spec_.name.rfind("rank-", 0) == 0;
  if (rank) {
    auto snap = Snapshot(spec_.graphs[0].name);
    std::vector<double> truth;
    st = GroundTruth(*snap, &truth);
    if (!st.ok()) {
      std::fprintf(stderr, "e2e_bench: ground truth: %s\n",
                   st.ToString().c_str());
      return 2;
    }
    std::set<uint32_t> lines;
    for (const Record& r : plain.records) lines.insert(r.line);
    for (uint32_t li : lines) {
      const QueryResult& res = *ref_[li].result;
      QueryRequest q;
      if (!ParseQueryRequest(lines_[li], &q).ok() || !res.status.ok()) continue;
      std::vector<double> t;
      double max_err = 0.0;
      for (size_t i = 0; i < res.nodes.size(); ++i) {
        t.push_back(truth[res.nodes[i]]);
        max_err = std::max(max_err, std::abs(res.estimates[i] - t.back()));
      }
      if (t.size() >= 2) {
        spearman_sum += SpearmanCorrelation(t, res.estimates);
        ++ranked;
      }
      if (q.top_k == 0) {
        ++eps_queries;
        if (max_err >= q.epsilon) ++eps_misses;
      }
    }
  }
  const uint64_t eps_critical = BinomialCritical(eps_queries, 0.01, 1e-4);

  // --- metrics ----------------------------------------------------------
  // Host-calibrated times divide each pass's times by the host's slowdown
  // around it, the mean of the two samples that bracket the pass: the time
  // the pass would have taken on the reference host at its usual speed.
  auto slowdown = [](const Phase& ph, uint32_t pass) {
    return (ph.slowdown[pass] + ph.slowdown[pass + 1]) / 2.0;
  };
  auto latencies = [&slowdown](const Phase& ph, bool updates,
                               bool calibrated) {
    std::vector<double> v;
    for (const Record& r : ph.records) {
      if (r.update != updates) continue;
      v.push_back(calibrated ? r.latency_ms / slowdown(ph, r.pass)
                             : r.latency_ms);
    }
    return v;
  };
  auto setup_median = [&setups](double SetupSample::*field) {
    std::vector<double> v;
    for (const SetupSample& s : setups) v.push_back(s.*field);
    return P50(v);
  };
  const std::vector<double> q_lat = latencies(plain, false, false);
  const std::vector<double> u_lat = latencies(plain, true, false);
  const std::vector<double> q_cal = latencies(plain, false, true);
  const std::vector<double> u_cal = latencies(plain, true, true);
  const uint64_t attempted = plain.records.size() + traced.records.size();

  // Throughput over all whole passes. Passes hold the same mix but not the
  // same queries, so one pass's rate varies with its target sets: the
  // median of per-pass rates spread 1.3-1.9 times as much between runs.
  double pass_s = 0.0, pass_cal_s = 0.0, slowdown_sum = 0.0;
  for (uint32_t p = 0; p < plain.pass_s.size(); ++p) {
    pass_s += plain.pass_s[p];
    pass_cal_s += plain.pass_s[p] / slowdown(plain, p);
    slowdown_sum += slowdown(plain, p);
  }
  const double lines =
      static_cast<double>(spec_.pass_lines * plain.pass_s.size());
  // The metrics BENCHMARK.json bounds: every workload has them, never 0.
  const std::vector<Metric> end_to_end = {
      {"query_p50_cal_ms", P50(q_cal), "ms"},
      {"query_p95_cal_ms", P95(q_cal), "ms"},
      {"qps_cal", Ratio(lines, pass_cal_s), "req/s"},
      {"setup_s", setup_median(&SetupSample::total), "s"},
      {"rss_peak_mb", rss_peak, "MiB"},
  };
  // The same times as the wall clock read them, and the host's mean
  // slowdown over the passes that relates the two.
  const std::vector<Metric> wall = {
      {"query_p50_ms", P50(q_lat), "ms"},
      {"query_p95_ms", P95(q_lat), "ms"},
      {"query_p99_ms", Percentile(q_lat, 99), "ms"},
      {"qps", Ratio(lines, pass_s), "req/s"},
      {"update_p50_ms", P50(u_lat), "ms"},
      {"update_p95_ms", P95(u_lat), "ms"},
      {"host_slowdown", Ratio(slowdown_sum, plain.pass_s.size()), "ratio"},
  };
  const std::vector<Metric> extra = {
      {"query_samples", static_cast<double>(q_lat.size()), "count"},
      {"passes", static_cast<double>(plain.pass_s.size()), "count"},
      {"setups", static_cast<double>(setups.size()), "count"},
      {"timed_s", plain.wall_s, "s"},
  };
  // End-to-end metrics that mean something on one or two workloads only
  // (0 elsewhere). BENCHMARK.json's end-to-end metrics are the ones every
  // workload reports and never as 0, so these ride with the per-layer
  // metrics of the traced run; all come from the untraced phase.
  const std::vector<Metric> workload_only = {
      {"query_p99_cal_ms", Percentile(q_cal, 99), "ms"},
      {"update_p50_cal_ms", P50(u_cal), "ms"},
      {"update_p95_cal_ms", P95(u_cal), "ms"},
      {"error_rate", static_cast<double>(failed) / attempted, "ratio"},
      {"rank_spearman", Ratio(spearman_sum, ranked), "rho"},
      {"eps_miss_rate", Ratio(eps_misses, eps_queries), "ratio"},
  };

  std::vector<Metric> layer;
  if (opt_.trace) {
    std::vector<double> wait, memo_us, run_ms, bytes, apply, dirty, first;
    std::map<EstimatorKind, std::vector<double>> compute;
    std::vector<double> compute_all;
    uint64_t queries = 0, memo = 0, dedup = 0, fallbacks = 0;
    for (const Record& r : traced.records) {
      bytes.push_back(r.bytes);
      if (r.update) {
        apply.push_back(r.run_ms);
        dirty.push_back(static_cast<double>(r.dirty_arcs));
        fallbacks += r.fell_back ? 1 : 0;
        continue;
      }
      ++queries;
      run_ms.push_back(r.run_ms);
      if (r.mode == ServeMode::kMemoized) {
        ++memo;
        memo_us.push_back(r.run_ms * 1e3);
      } else if (r.mode == ServeMode::kDeduped) {
        ++dedup;
      } else if (!r.failed) {
        wait.push_back(std::max(0.0, r.run_ms - r.compute_s * 1e3));
        compute[r.estimator].push_back(r.compute_s * 1e3);
        compute_all.push_back(r.compute_s * 1e3);
        // Stream lines cycle [update, q_a, q_b, q_a]: q_a is the first
        // query of a new epoch.
        if (spec_.mutating && r.line % 4 == 1) first.push_back(r.run_ms);
      }
    }
    std::vector<double> static_ms;
    if (spec_.mutating) {
      // The same catalogue queries on the unmutated graph.
      std::unique_ptr<QuerySession> fresh;
      if (QuerySession::Open(GraphSgrPath(opt_.inputs, spec_.graphs[0]),
                             SessionOptions(), &fresh)
              .ok()) {
        fresh->isp();
        std::set<std::string> seen;
        for (size_t li = warm_; li < lines_.size() && seen.size() < 20;
             ++li) {
          QueryRequest q;
          if (!ParseQueryRequest(lines_[li], &q).ok() ||
              q.op == RequestOp::kUpdate ||
              !seen.insert(MaskLine(lines_[li])).second) {
            continue;
          }
          static_ms.push_back(fresh->Run(q).seconds * 1e3);
        }
      }
    }
    uint64_t retries = 0;
    if (supervisor_ != nullptr) {
      for (const ShardWorkerStats& w : supervisor_->stats()) {
        retries += w.retries;
      }
    }
    double wave_sum = 0.0, sharded_sum = 0.0, sampling_sum = 0.0,
           drawn_main = 0.0;
    for (double v : rs.wave_rpc_ms) wave_sum += v;
    for (double v : rs.sharded_ms) sharded_sum += v;
    for (double v : rs.sampling_ms) sampling_sum += v;
    for (size_t i = 0; i < rs.samples.size(); ++i) {
      drawn_main += rs.samples[i] + rs.pilot[i];
    }
    // Calibrated on both sides, so host drift between the two phases
    // does not read as tracing cost.
    const double plain_p50 = P50(q_cal);
    const bool sharded = supervisor_ != nullptr;
    layer = {
        {"graph.io.parse_s", setup_median(&SetupSample::parse), "s"},
        {"bicomp.decompose_s", setup_median(&SetupSample::decompose), "s"},
        {"graph.binary_io.write_s", setup_median(&SetupSample::write), "s"},
        {"service.session.open_s", setup_median(&SetupSample::open), "s"},
        {"bicomp.isp.adopt_s", setup_median(&SetupSample::adopt), "s"},
        {"service.shard.start_s", setup_median(&SetupSample::start), "s"},
        {"service.query.parse_us_p50",
         P50(SpanDurationsUs(traced.logs, "service.query.parse")), "us"},
        {"service.query.serialize_us_p50",
         P50(SpanDurationsUs(traced.logs, "service.query.serialize")), "us"},
        {"service.query.serialize_us_p99",
         Percentile(SpanDurationsUs(traced.logs, "service.query.serialize"),
                    99),
         "us"},
        {"service.query.result_bytes_mean", Mean(bytes), "bytes"},
        {"service.scheduler.run_ms_p50", P50(run_ms), "ms"},
        {"service.scheduler.admission_wait_ms_p50", P50(wait), "ms"},
        {"service.scheduler.admission_wait_ms_p95", P95(wait), "ms"},
        {"service.scheduler.memo_hit_ratio", Ratio(memo, queries), "ratio"},
        {"service.scheduler.dedup_ratio", Ratio(dedup, queries), "ratio"},
        {"service.scheduler.evictions",
         Ratio(static_cast<double>(traced.evictions), traced.pass_s.size()),
         "count/pass"},
        {"service.scheduler.memo_serve_us_p50", P50(memo_us), "us"},
        {"service.session.compute_ms_p50.bc",
         P50(compute[EstimatorKind::kBc]), "ms"},
        {"service.session.compute_ms_p50.bc-full",
         P50(compute[EstimatorKind::kBcFull]), "ms"},
        {"service.session.compute_ms_p50.kpath",
         P50(compute[EstimatorKind::kKPath]), "ms"},
        {"service.session.compute_ms_p50.closeness",
         P50(compute[EstimatorKind::kCloseness]), "ms"},
        {"service.session.compute_ms_p95", P95(compute_all), "ms"},
        {"bc.exact_ms_p50", P50(rs.exact_ms), "ms"},
        {"bc.sampling_ms_p50", P50(rs.sampling_ms), "ms"},
        {"bc.us_per_sample", Ratio(sampling_sum * 1e3, drawn_main), "us"},
        {"bc.samples_mean", Mean(rs.samples), "count"},
        {"bc.pilot_samples_mean", Mean(rs.pilot), "count"},
        {"bc.rejected_ratio", Ratio(rs.rejected, rs.drawn), "ratio"},
        {"bc.gen_us_per_sample.social", GenUsPerSample(false), "us"},
        {"bc.gen_us_per_sample.road", GenUsPerSample(true), "us"},
        {"bc.replay_identical", Ratio(rs.identical, rs.bc), "ratio"},
        {"core.rounds_mean", Mean(rs.rounds), "count"},
        {"service.shard.wave_rpc_ms_p50", P50(rs.wave_rpc_ms), "ms"},
        {"service.shard.wave_rpc_ms_p95", P95(rs.wave_rpc_ms), "ms"},
        {"service.shard.waves_per_query",
         Ratio(rs.waves, rs.sharded_ms.size()), "count"},
        {"service.shard.rpc_share", Ratio(wave_sum, sharded_sum), "ratio"},
        {"service.shard.local_ms_p50", sharded ? P50(rs.local_ms) : 0.0,
         "ms"},
        {"service.shard.retries", static_cast<double>(retries), "count"},
        {"mutation.apply_ms_p50", P50(apply), "ms"},
        {"mutation.apply_ms_p95", P95(apply), "ms"},
        {"mutation.repair_dirty_arcs_mean", Mean(dirty), "count"},
        {"mutation.repair_fallback_ratio", Ratio(fallbacks, apply.size()),
         "ratio"},
        {"mutation.epoch_index_ms_p50",
         P50(SpanDurationsUs(traced.logs, "bicomp.isp.adopt")) / 1e3, "ms"},
        {"mutation.first_query_ms_p50", P50(first), "ms"},
        {"mutation.static_query_ms_p50", P50(static_ms), "ms"},
        {"trace.overhead_pct",
         100.0 *
             Ratio(P50(latencies(traced, false, true)) - plain_p50, plain_p50),
         "%"},
        {"trace.request_coverage", RootCoverage(traced.logs), "ratio"},
    };
    std::vector<SpanLog> replay_logs;
    replay_logs.push_back(std::move(rs.log));
    const int64_t origin =
        !traced.logs.empty() && !traced.logs[0].spans().empty()
            ? traced.logs[0].spans()[0].start_ns
            : 0;
    st = WriteSpans(opt_.spans,
                    {{"traced", &traced.logs}, {"replay", &replay_logs}},
                    origin);
    if (!st.ok()) std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
  }

  // --- verdict ----------------------------------------------------------
  const bool rebuild_ok =
      rebuild_mismatches_ == 0 &&
      (!spec_.mutating || last_line < 4 * 50 + warm_ || rebuild_checks_ > 0);
  const bool replay_ok = !opt_.trace || rs.identical == rs.bc;
  const bool quality_ok = !rank || eps_misses < eps_critical;
  const bool correct = failed == 0 && mismatches == 0 && negative_check &&
                       rebuild_ok && replay_ok && quality_ok;

  JsonWriter checks;
  checks.Int("oracle_lines", attempted);
  checks.Int("oracle_mismatches", mismatches);
  checks.Bool("negative_check", negative_check);
  checks.Int("rebuild_checks", rebuild_checks_);
  checks.Int("rebuild_mismatches", rebuild_mismatches_);
  checks.Int("replayed_bc", rs.bc);
  checks.Int("replay_identical", rs.identical);
  checks.Int("eps_queries", eps_queries);
  checks.Int("eps_misses", eps_misses);
  checks.Int("eps_critical", eps_critical);
  checks.Bool("stream_exhausted", plain.exhausted);

  std::vector<Metric> all = end_to_end;
  all.insert(all.end(), wall.begin(), wall.end());
  all.insert(all.end(), extra.begin(), extra.end());
  all.insert(all.end(), workload_only.begin(), workload_only.end());
  all.insert(all.end(), layer.begin(), layer.end());
  PrintSection(("end-to-end, host-calibrated (" + spec_.name + ", seed " +
                std::to_string(opt_.seed) + ")").c_str(),
               end_to_end);
  PrintSection("end-to-end, wall clock", wall);
  PrintSection("run", extra);
  PrintSection("end-to-end, workload-specific", workload_only);
  if (opt_.trace) PrintSection("per-layer (traced run)", layer);
  std::printf("checks %s\noutput_digest %s\ncorrect %s\n",
              checks.str().c_str(), Hex(digest.Digest()).c_str(),
              correct ? "true" : "false");

  JsonWriter record;
  record.String("schema", "saphyra-e2e/1");
  record.String("workload", spec_.name);
  record.Int("seed", opt_.seed);
  record.Number("seconds", opt_.seconds);
  record.Bool("trace", opt_.trace);
  record.Bool("smoke", opt_.smoke);
  record.Raw("host", HostJson(host));
  record.Bool("correct", correct);
  record.Int("attempted", attempted);
  record.Int("failed", failed);
  record.String("output_digest", Hex(digest.Digest()));
  record.Raw("checks", checks.str());
  record.Raw("metrics", MetricsJson(all));
  {
    std::ofstream out(opt_.results);
    out << record.str() << '\n';
    if (!out) {
      std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                   opt_.results.c_str());
    }
  }

  JsonWriter last;
  last.Bool("correct", correct);
  last.Int("attempted", attempted);
  last.Int("failed", failed);
  std::vector<Metric> traced_json = layer;
  traced_json.insert(traced_json.end(), workload_only.begin(),
                     workload_only.end());
  traced_json.insert(traced_json.end(), wall.begin(), wall.end());
  last.Raw("metrics", MetricsJson(opt_.trace ? traced_json : end_to_end));
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
  TearDown();
  return correct ? 0 : 1;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2e_bench gen --workload W --seed S --out DIR "
               "[--smoke]\n"
               "       e2e_bench run --workload W --seed S --inputs DIR "
               "--seconds T --trace 0|1\n"
               "                     --cache DIR --results FILE --spans FILE "
               "--worker-binary PATH\n"
               "                     [--commit C] [--dirty D] [--smoke]\n");
  return 2;
}

}  // namespace

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  RunOptions opt;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string val = argv[++i];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--out") {
      out = val;
    } else if (key == "--inputs") {
      opt.inputs = val;
    } else if (key == "--seconds") {
      opt.seconds = std::max(0.1, std::strtod(val.c_str(), nullptr));
    } else if (key == "--trace") {
      opt.trace = val != "0";
    } else if (key == "--cache") {
      opt.cache = val;
    } else if (key == "--results") {
      opt.results = val;
    } else if (key == "--spans") {
      opt.spans = val;
    } else if (key == "--worker-binary") {
      opt.worker_binary = val;
    } else if (key == "--commit") {
      opt.commit = val;
    } else if (key == "--dirty") {
      opt.dirty = val;
    } else {
      return Usage();
    }
  }
  WorkloadSpec spec;
  Status st = FindWorkload(opt.workload, opt.smoke, &spec);
  if (!st.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
    return 2;
  }
  if (mode == "gen") {
    if (out.empty()) return Usage();
    st = GenerateInputs(spec, opt.seed, out);
    if (!st.ok()) {
      std::fprintf(stderr, "e2e_bench: %s\n", st.ToString().c_str());
      return 2;
    }
    return 0;
  }
  if (mode != "run" || opt.inputs.empty() || opt.results.empty()) {
    return Usage();
  }
  Runner runner(std::move(spec), std::move(opt));
  return runner.Run();
}

}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
