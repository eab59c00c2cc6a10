// Set-up and the timed serving phases of a benchmark run.

#include <unistd.h>

#include <fstream>
#include <thread>
#include <utility>

#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "runner.h"

namespace e2e {

using namespace saphyra;

namespace {

SessionOptions LiveSessionOptions() {
  SessionOptions o;
  o.default_threads = 1;  // one sampling thread per query
  return o;
}

Status ReadLines(const std::string& path, std::vector<std::string>* out) {
  std::ifstream f(path);
  if (!f) return Status::IOError("cannot open " + path);
  std::string line;
  while (std::getline(f, line)) {
    if (!line.empty()) out->push_back(std::move(line));
  }
  return Status::OK();
}

}  // namespace

Runner::Runner(WorkloadSpec spec, RunOptions opt)
    : spec_(std::move(spec)), opt_(std::move(opt)) {}

Runner::~Runner() { TearDown(); }

Status Runner::LoadLines() {
  SAPHYRA_RETURN_NOT_OK(ReadLines(opt_.inputs + "/warmup.jsonl", &lines_));
  warm_ = lines_.size();
  SAPHYRA_RETURN_NOT_OK(ReadLines(opt_.inputs + "/stream.jsonl", &lines_));
  if (lines_.size() < warm_ + spec_.pass_lines) {
    return Status::InvalidArgument("stream shorter than one pass");
  }
  ref_.assign(lines_.size(), RefLine());
  return Status::OK();
}

void Runner::TearDown() {
  // Shutdown quits the workers; the launcher's destructor kills and reaps
  // any that did not exit, so no process outlives the run.
  if (supervisor_ != nullptr) supervisor_->Shutdown();
  supervisor_.reset();
  launcher_.reset();
  shard_listen_.Reset();
  if (!shard_ep_.path.empty()) unlink(shard_ep_.path.c_str());
  pool_.reset();
  session_.reset();
}

Status Runner::StartWorkers() {
  SAPHYRA_RETURN_NOT_OK(
      net::ParseEndpoint("unix:" + opt_.inputs + "/shard.sock", &shard_ep_));
  SAPHYRA_RETURN_NOT_OK(net::Listen(shard_ep_, &shard_listen_));
  ProcessWorkerLauncher::Options lo;
  lo.worker_binary = opt_.worker_binary;
  lo.endpoint = shard_ep_;
  lo.listen_fd = shard_listen_.get();
  for (const GraphSpec& g : spec_.graphs) {
    lo.graph_args.push_back(g.name + "=" + GraphSgrPath(opt_.inputs, g));
  }
  launcher_ = std::make_unique<ProcessWorkerLauncher>(std::move(lo));
  ShardOptions so;
  so.num_workers = 2;
  supervisor_ = std::make_unique<WorkerSupervisor>(launcher_.get(), so);
  return supervisor_->Start();
}

Status Runner::SetupOnce(SetupSample* s) {
  TearDown();
  const int64_t t0 = NowNs();
  for (const GraphSpec& g : spec_.graphs) {
    const int64_t a = NowNs();
    Graph graph;
    SAPHYRA_RETURN_NOT_OK(LoadSnapEdgeList(GraphTextPath(opt_.inputs, g),
                                           &graph, /*compact_ids=*/false));
    const int64_t b = NowNs();
    IspIndex isp(graph);
    const int64_t c = NowNs();
    SgrWriteOptions wo;
    wo.compact_ids = false;
    SAPHYRA_RETURN_NOT_OK(WriteSgr(GraphSgrPath(opt_.inputs, g), graph,
                                   &isp.bcc(), &isp.conn(), &isp.views(),
                                   &isp.tree(), wo));
    const int64_t d = NowNs();
    s->parse += (b - a) / 1e9;
    s->decompose += (c - b) / 1e9;
    s->write += (d - c) / 1e9;
  }
  const int64_t a = NowNs();
  if (spec_.pooled) {
    SessionPoolOptions po;
    po.session = LiveSessionOptions();
    pool_ = std::make_unique<SessionPool>(po);
    for (const GraphSpec& g : spec_.graphs) {
      SAPHYRA_RETURN_NOT_OK(
          pool_->Register(g.name, GraphSgrPath(opt_.inputs, g)));
    }
    SAPHYRA_RETURN_NOT_OK(pool_->Preload());
  } else {
    SAPHYRA_RETURN_NOT_OK(
        QuerySession::Open(GraphSgrPath(opt_.inputs, spec_.graphs[0]),
                           LiveSessionOptions(), &session_));
  }
  const int64_t b = NowNs();
  for (const GraphSpec& g : spec_.graphs) {
    auto snap = Snapshot(g.name);
    if (snap == nullptr) return Status::Internal("cannot pin " + g.name);
    snap->isp();
  }
  const int64_t c = NowNs();
  if (spec_.sharded) SAPHYRA_RETURN_NOT_OK(StartWorkers());
  const int64_t d = NowNs();
  s->open = (b - a) / 1e9;
  s->adopt = (c - b) / 1e9;
  s->start = (d - c) / 1e9;
  s->total = (d - t0) / 1e9;
  return Status::OK();
}

Status Runner::ReopenSession() {
  session_.reset();
  SAPHYRA_RETURN_NOT_OK(
      QuerySession::Open(GraphSgrPath(opt_.inputs, spec_.graphs[0]),
                         LiveSessionOptions(), &session_));
  session_->isp();
  return Status::OK();
}

std::shared_ptr<const GraphSnapshot> Runner::Snapshot(
    const std::string& graph) {
  if (pool_ == nullptr) return session_->snapshot();
  std::shared_ptr<QuerySession> s;
  if (!pool_->Acquire(graph, &s).ok()) return nullptr;
  return s->snapshot();
}

std::unique_ptr<BatchScheduler> Runner::MakeScheduler() {
  SchedulerOptions o;
  o.max_concurrent = spec_.max_concurrent;
  o.supervisor = supervisor_.get();
  o.allow_updates = spec_.mutating;
  if (pool_ != nullptr) return std::make_unique<BatchScheduler>(pool_.get(), o);
  return std::make_unique<BatchScheduler>(session_.get(), o);
}

Status Runner::Warmup() {
  Phase ph;
  auto sched = MakeScheduler();
  ServePass(sched.get(), 0, warm_, 0, &ph, false);
  for (const Record& r : ph.records) {
    if (r.failed) {
      return Status::Internal("warm-up line " + std::to_string(r.line) +
                              " failed: " + lines_[r.line]);
    }
  }
  return Status::OK();
}

Phase Runner::Serve(bool traced) {
  Phase ph;
  if (traced) {
    ph.logs.resize(spec_.clients);
    for (SpanLog& log : ph.logs) log.Reserve(1 << 16);
  }
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(opt_.seconds * 1e9);
  std::unique_ptr<BatchScheduler> sched;
  // The host's speed is sampled between passes, while no request runs.
  ph.slowdown.push_back(host_speed_.Sample());
  for (uint32_t pass = 0;; ++pass) {
    const size_t begin = warm_ + pass * spec_.pass_lines;
    const size_t end = begin + spec_.pass_lines;
    if (end > lines_.size()) {
      ph.exhausted = true;
      break;
    }
    // The timed stream starts on a fresh scheduler (empty memo).
    if (sched == nullptr) sched = MakeScheduler();
    const int64_t pass_start = NowNs();
    ServePass(sched.get(), begin, end, pass, &ph, !traced && pass == 0);
    const int64_t pass_end = NowNs();
    ph.pass_s.push_back(static_cast<double>(pass_end - pass_start) / 1e9);
    ph.slowdown.push_back(host_speed_.Sample());
    if (pass_end >= deadline) break;
  }
  ph.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (sched != nullptr) ph.evictions = sched->stats().evictions;
  return ph;
}

void Runner::ServePass(BatchScheduler* sched, size_t begin, size_t end,
                       uint32_t pass, Phase* ph, bool keep_sample) {
  const uint32_t clients = spec_.clients;
  std::vector<std::vector<Record>> out(clients);
  // Closed loop with a static round-robin split: client c sends lines
  // begin+c, begin+c+clients, ... each after its previous one returned.
  auto client = [&](uint32_t c) {
    SpanLog* log = ph->logs.empty() ? nullptr : &ph->logs[c];
    for (size_t li = begin + c; li < end; li += clients) {
      out[c].push_back(
          ServeLine(sched, li, pass, log, c == 0 && keep_sample ? ph : nullptr));
    }
  };
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  for (const auto& v : out) {
    ph->records.insert(ph->records.end(), v.begin(), v.end());
  }
}

Record Runner::ServeLine(BatchScheduler* sched, size_t line, uint32_t pass,
                         SpanLog* log, Phase* sample) {
  Record rec;
  rec.line = static_cast<uint32_t>(line);
  rec.pass = pass;
  const int64_t t0 = NowNs();
  const int32_t root = log != nullptr ? log->Begin(rec.line, "request", -1)
                                      : -1;
  QueryRequest req;
  int32_t span = log != nullptr
                     ? log->Begin(rec.line, "service.query.parse", root)
                     : -1;
  const Status st = ParseQueryRequest(lines_[line], &req);
  if (log != nullptr) log->End(span);
  QueryResult res;
  if (!st.ok()) {
    res.status = st;
  } else if (log == nullptr) {
    res = sched->Run(req);
  } else {
    res = TracedCall(sched, req, log, root, &rec);
  }
  span = log != nullptr
             ? log->Begin(rec.line, "service.query.serialize", root)
             : -1;
  const std::string out = SerializeQueryResult(res);
  if (log != nullptr) {
    log->End(span);
    log->End(root);
  }
  rec.latency_ms = static_cast<double>(NowNs() - t0) / 1e6;
  rec.digest = Fnv(MaskLine(out));
  rec.bytes = static_cast<uint32_t>(out.size());
  rec.update = req.op == RequestOp::kUpdate;
  rec.failed = !res.status.ok() || res.degraded;
  rec.mode = res.mode;
  rec.estimator = res.estimator;
  rec.compute_s = res.seconds;
  if (sample != nullptr && sample->sample_line.empty() && !rec.update &&
      !rec.failed && !res.estimates.empty()) {
    sample->sample_line = out;
    sample->sample_index = rec.line;
  }
  return rec;
}

QueryResult Runner::TracedCall(BatchScheduler* sched, const QueryRequest& req,
                               SpanLog* log, int32_t root, Record* rec) {
  const uint32_t li = rec->line;
  // Updates are applied directly, not through the scheduler, so the repair
  // routing in UpdateOutcome is visible; the first isp() of the new epoch
  // gets its own span instead of hiding inside the next query's Run.
  // Mutating workloads serve one session, never a pool.
  QueryRequest canonical = req;
  if (req.op == RequestOp::kUpdate && session_ != nullptr &&
      CanonicalizeQuery(session_->graph().num_nodes(), &canonical).ok()) {
    UpdateOutcome outcome;
    int32_t s = log->Begin(li, "service.session.apply_update", root);
    const Status st = session_->ApplyUpdate(
        {canonical.action, canonical.edge_u, canonical.edge_v}, &outcome);
    log->End(s);
    rec->run_ms = log->Ms(s);
    rec->dirty_arcs = outcome.repair_dirty_arcs;
    rec->fell_back = outcome.repair_fell_back;
    QueryResult res = UpdateResult(req, st, outcome);
    res.seconds = rec->run_ms / 1e3;
    s = log->Begin(li, "bicomp.isp.adopt", root);
    session_->snapshot()->isp();
    log->End(s);
    return res;
  }
  const int32_t s = log->Begin(li, "service.scheduler.run", root);
  QueryResult res = sched->Run(req);
  log->End(s);
  rec->run_ms = log->Ms(s);
  return res;
}

}  // namespace e2e
