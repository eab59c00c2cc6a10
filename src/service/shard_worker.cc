#include "service/shard_worker.h"

#include <unistd.h>

#include <list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/abra.h"
#include "baselines/kadabra.h"
#include "bc/saphyra_bc.h"
#include "closeness/closeness.h"
#include "core/progressive_sampler.h"
#include "core/sample_engine.h"
#include "kpath/kpath.h"
#include "net/frame.h"
#include "service/json_util.h"
#include "service/query.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace saphyra {

namespace {

/// Replies never block the loop forever behind a wedged coordinator.
constexpr uint64_t kReplyTimeoutMs = 30000;

/// Largest stripe count a wave may name. Far above the engine's default
/// (kDefaultSampleStripes = 16); it only bounds what a hostile frame can
/// make BuildEngine allocate (one RNG stream and count vector per stripe).
constexpr uint64_t kMaxWaveStripes = 4096;

std::vector<NodeId> AllNodes(NodeId n) {
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  return all;
}

/// Cached per-(graph, fingerprint, canonical query) sampling state.
struct QueryState {
  std::shared_ptr<QuerySession> session;  ///< pins the pool entry
  /// Pins the exact epoch the state was built against: a concurrent
  /// update swaps the session's current snapshot, but this state's
  /// problem keeps reading the graph/index it was built from.
  std::shared_ptr<const GraphSnapshot> snapshot;
  QueryRequest req;  ///< canonical
  std::unique_ptr<HypothesisRankingProblem> problem;
  /// One engine per progressive run (ordinal), built on first use; each
  /// tracks how far its stripes' streams have been drawn.
  std::unique_ptr<SampleEngine> engines[2];
};

/// Build (or rebuild) `ordinal`'s engine from the query seed, on the
/// stream plan the frontends use. The engine consumes the base stream
/// only at construction, so a local suffices.
Status BuildEngine(QueryState* state, uint64_t ordinal, size_t num_stripes) {
  std::unique_ptr<SampleEngine>& engine = state->engines[ordinal];
  Rng base = ProgressiveRunStream(state->req.seed,
                                  static_cast<uint32_t>(ordinal),
                                  ProgressiveRuns(state->req.estimator));
  engine = std::make_unique<SampleEngine>(
      state->problem.get(), static_cast<uint32_t>(num_stripes), &base,
      /*pool=*/nullptr);
  if (engine->num_workers() != num_stripes) {
    const size_t got = engine->num_workers();
    engine.reset();
    return Status::Internal("engine materialized " + std::to_string(got) +
                            " stripes, coordinator expects " +
                            std::to_string(num_stripes));
  }
  return Status::OK();
}

Status BuildQueryState(SessionPool* pool, const std::string& graph,
                       uint64_t fingerprint, const std::string& query_json,
                       std::unique_ptr<QueryState>* out) {
  auto state = std::make_unique<QueryState>();
  SAPHYRA_RETURN_NOT_OK(pool->Acquire(graph, &state->session));
  state->snapshot = state->session->snapshot();
  if (state->snapshot->fingerprint() != fingerprint) {
    return Status::FailedPrecondition(
        "graph fingerprint mismatch: worker serves " +
        std::to_string(state->snapshot->fingerprint()) +
        ", coordinator expects " + std::to_string(fingerprint));
  }
  SAPHYRA_RETURN_NOT_OK(ParseQueryRequest(query_json, &state->req));
  SAPHYRA_RETURN_NOT_OK(CanonicalizeQuery(
      state->snapshot->graph().num_nodes(), &state->req));

  const Graph& g = state->snapshot->graph();
  const QueryRequest& req = state->req;
  switch (req.estimator) {
    case EstimatorKind::kBc:
    case EstimatorKind::kBcFull: {
      SaphyraBcOptions opts;
      opts.seed = req.seed;
      opts.strategy = req.strategy;
      const std::vector<NodeId> targets =
          req.estimator == EstimatorKind::kBcFull ? AllNodes(g.num_nodes())
                                                  : req.targets;
      state->problem = MakeSaphyraBcSamplingProblem(state->snapshot->isp(),
                                                    targets, opts);
      break;
    }
    case EstimatorKind::kKPath: {
      std::vector<NodeId> targets =
          req.targets.empty() ? AllNodes(g.num_nodes()) : req.targets;
      state->problem = std::make_unique<KPathProblem>(g, std::move(targets),
                                                      req.k);
      break;
    }
    case EstimatorKind::kCloseness: {
      std::vector<NodeId> targets =
          req.targets.empty() ? AllNodes(g.num_nodes()) : req.targets;
      state->problem = std::make_unique<HarmonicClosenessProblem>(
          g, std::move(targets));
      break;
    }
    case EstimatorKind::kAbra:
      state->problem = MakeAbraSamplingProblem(g);
      break;
    case EstimatorKind::kKadabra:
      state->problem = MakeKadabraSamplingProblem(g, req.strategy,
                                                  req.traversal);
      break;
  }
  *out = std::move(state);
  return Status::OK();
}

/// The worker's engine-state cache: list in LRU order (front = hottest)
/// with an index by (graph, query) key.
class StateCache {
 public:
  explicit StateCache(size_t capacity) : capacity_(capacity) {}

  Status GetOrCreate(SessionPool* pool, const std::string& graph,
                     uint64_t fingerprint, const std::string& query_json,
                     QueryState** out) {
    // The fingerprint is part of the key, not just an assertion: after an
    // update bumps a graph's epoch, waves arrive with the chained
    // fingerprint and MUST miss the pre-update state (whose engines hold
    // the old snapshot). Stale entries age out of the LRU.
    const std::string key =
        graph + '\0' + std::to_string(fingerprint) + '\0' + query_json;
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      *out = it->second->second.get();
      return Status::OK();
    }
    std::unique_ptr<QueryState> state;
    SAPHYRA_RETURN_NOT_OK(
        BuildQueryState(pool, graph, fingerprint, query_json, &state));
    lru_.emplace_front(key, std::move(state));
    index_[key] = lru_.begin();
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    *out = lru_.front().second.get();
    return Status::OK();
  }

 private:
  size_t capacity_;
  std::list<std::pair<std::string, std::unique_ptr<QueryState>>> lru_;
  std::map<std::string,
           std::list<std::pair<std::string,
                               std::unique_ptr<QueryState>>>::iterator>
      index_;
};

Status GetUintField(const JsonValue& doc, const char* key, uint64_t* out) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber || !v->is_uint) {
    return Status::InvalidArgument(std::string("wave message: ") + key +
                                   " must be a non-negative integer");
  }
  *out = v->uint_value;
  return Status::OK();
}

/// Execute one wave request; on success *reply is the ok frame, on error
/// the caller turns the status into an error frame.
Status HandleWave(const JsonValue& doc, SessionPool* pool, StateCache* cache,
                  std::string* reply) {
  const JsonValue* graph_v = doc.Find("graph");
  const JsonValue* query_v = doc.Find("query");
  const JsonValue* stripes_v = doc.Find("stripes");
  if (graph_v == nullptr || graph_v->type != JsonValue::Type::kString ||
      query_v == nullptr || query_v->type != JsonValue::Type::kString ||
      stripes_v == nullptr || stripes_v->type != JsonValue::Type::kArray) {
    return Status::InvalidArgument("wave message is malformed");
  }
  uint64_t fingerprint = 0, ordinal = 0, num_stripes = 0, from = 0, to = 0,
           budget_ms = 0;
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "fingerprint", &fingerprint));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "ordinal", &ordinal));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "num_stripes", &num_stripes));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "from", &from));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "to", &to));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "budget_ms", &budget_ms));
  if (num_stripes == 0 || num_stripes > kMaxWaveStripes || to <= from) {
    return Status::InvalidArgument("wave message parameters out of range");
  }
  std::vector<uint32_t> stripes;
  stripes.reserve(stripes_v->array.size());
  for (const JsonValue& e : stripes_v->array) {
    if (e.type != JsonValue::Type::kNumber || !e.is_uint ||
        e.uint_value >= num_stripes) {
      return Status::InvalidArgument("wave stripe index out of range");
    }
    stripes.push_back(static_cast<uint32_t>(e.uint_value));
  }

  QueryState* state = nullptr;
  SAPHYRA_RETURN_NOT_OK(cache->GetOrCreate(pool, graph_v->string_value,
                                           fingerprint, query_v->string_value,
                                           &state));
  const uint32_t runs = ProgressiveRuns(state->req.estimator);
  if (ordinal >= runs) {
    return Status::InvalidArgument(
        "wave ordinal " + std::to_string(ordinal) + " out of range: " +
        EstimatorKindName(state->req.estimator) + " has " +
        std::to_string(runs) + " progressive run(s)");
  }
  std::unique_ptr<SampleEngine>& engine = state->engines[ordinal];
  if (engine == nullptr || engine->num_workers() != num_stripes) {
    SAPHYRA_RETURN_NOT_OK(BuildEngine(state, ordinal, num_stripes));
  }
  CancelToken budget(budget_ms == 0 ? Deadline::Never()
                                    : Deadline::AfterMillis(budget_ms));
  RawSampleDelta delta;
  Status st = engine->DrawStripes(stripes, from, to, &budget, &delta);
  if (st.code() == StatusCode::kFailedPrecondition) {
    // The coordinator retried a range this incarnation half-drew (or a
    // memo-missed re-run restarted the query): streams only run forward,
    // so start this ordinal over from the seed.
    SAPHYRA_RETURN_NOT_OK(BuildEngine(state, ordinal, num_stripes));
    st = engine->DrawStripes(stripes, from, to, &budget, &delta);
  }
  SAPHYRA_RETURN_NOT_OK(st);
  *reply = EncodeDeltaReply(delta);
  return Status::OK();
}

/// Apply one coordinator-pushed mutation (or its idempotent replay) to
/// the named graph. The coordinator tells us the fingerprint its own
/// apply chained to; landing anywhere else means the tiers diverged and
/// the reply error gets this incarnation restarted.
Status HandleUpdate(const JsonValue& doc, SessionPool* pool,
                    std::string* reply) {
  const JsonValue* graph_v = doc.Find("graph");
  const JsonValue* action_v = doc.Find("action");
  if (graph_v == nullptr || graph_v->type != JsonValue::Type::kString ||
      action_v == nullptr || action_v->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("update message is malformed");
  }
  EdgeMutation mut;
  if (action_v->string_value == "insert") {
    mut.kind = EdgeMutationKind::kInsert;
  } else if (action_v->string_value == "delete") {
    mut.kind = EdgeMutationKind::kDelete;
  } else {
    return Status::InvalidArgument("update action must be insert or delete");
  }
  uint64_t u = 0, v = 0, expect_fp = 0;
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "u", &u));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "v", &v));
  SAPHYRA_RETURN_NOT_OK(GetUintField(doc, "fingerprint", &expect_fp));
  if (u >= kInvalidNode || v >= kInvalidNode) {
    return Status::InvalidArgument(
        "update message: edge endpoint exceeds node range");
  }
  mut.u = static_cast<NodeId>(u);
  mut.v = static_cast<NodeId>(v);

  std::shared_ptr<QuerySession> session;
  SAPHYRA_RETURN_NOT_OK(pool->Acquire(graph_v->string_value, &session));
  const std::shared_ptr<const GraphSnapshot> cur = session->snapshot();
  if (cur->fingerprint() == expect_fp) {
    // Already there: the supervisor's log replay overlapped a direct
    // push. Applying again would double-mutate, so this is the no-op the
    // idempotency contract promises.
    *reply = "{\"ok\":true,\"type\":\"updated\",\"epoch\":" +
             std::to_string(cur->epoch()) +
             ",\"fingerprint\":" + std::to_string(expect_fp) + "}";
    return Status::OK();
  }
  // The chained fingerprint is a pure function of the current epoch and
  // the mutation, so a divergent frame is refused before it changes
  // anything.
  const uint64_t chained = ChainMutationFingerprint(
      cur->fingerprint(), cur->epoch() + 1, mut.kind, mut.u, mut.v);
  if (chained != expect_fp) {
    return Status::Internal(
        "update fingerprint divergence: worker would chain to " +
        std::to_string(chained) + ", coordinator expects " +
        std::to_string(expect_fp));
  }
  UpdateOutcome outcome;
  SAPHYRA_RETURN_NOT_OK(session->ApplyUpdate(mut, &outcome));
  *reply = "{\"ok\":true,\"type\":\"updated\",\"epoch\":" +
           std::to_string(outcome.epoch) +
           ",\"fingerprint\":" + std::to_string(outcome.fingerprint) + "}";
  return Status::OK();
}

}  // namespace

void AppendUintArray(const std::vector<uint64_t>& values, std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out->push_back(',');
    *out += std::to_string(values[i]);
  }
  out->push_back(']');
}

std::string EncodeDeltaReply(const RawSampleDelta& delta) {
  std::string reply = "{\"ok\":true,\"counts\":";
  AppendUintArray(delta.counts, &reply);
  if (!delta.fp_sums.empty()) {
    reply += ",\"fp_sums\":";
    AppendUintArray(delta.fp_sums, &reply);
  }
  if (!delta.fp_sum_squares.empty()) {
    reply += ",\"fp_sum_squares\":";
    AppendUintArray(delta.fp_sum_squares, &reply);
  }
  reply.push_back('}');
  return reply;
}

Status DecodeDeltaReply(const JsonValue& reply, RawSampleDelta* out) {
  *out = RawSampleDelta();
  const std::pair<const char*, std::vector<uint64_t>*> fields[] = {
      {"counts", &out->counts},
      {"fp_sums", &out->fp_sums},
      {"fp_sum_squares", &out->fp_sum_squares}};
  for (const auto& [key, values] : fields) {
    const JsonValue* v = reply.Find(key);
    if (v == nullptr) {
      if (values == &out->counts) {
        return Status::Internal("worker delta is missing counts");
      }
      continue;
    }
    if (v->type != JsonValue::Type::kArray) {
      return Status::Internal(std::string("worker delta: ") + key +
                              " is not an array");
    }
    values->reserve(v->array.size());
    for (const JsonValue& e : v->array) {
      if (e.type != JsonValue::Type::kNumber || !e.is_uint) {
        return Status::Internal(std::string("worker delta: ") + key +
                                " entry is not a non-negative integer");
      }
      values->push_back(e.uint_value);
    }
  }
  return Status::OK();
}

Status RunWorkerLoop(int fd, SessionPool* pool,
                     const WorkerLoopOptions& options) {
  StateCache cache(options.max_states);
  const std::string hello =
      "{\"type\":\"hello\",\"index\":" + std::to_string(options.index) +
      ",\"pid\":" + std::to_string(::getpid()) + "}";
  SAPHYRA_RETURN_NOT_OK(
      net::SendFrame(fd, hello, Deadline::AfterMillis(kReplyTimeoutMs)));

  for (;;) {
    std::string msg;
    Status st = net::RecvFrame(fd, &msg, Deadline::Never());
    if (!st.ok()) {
      // The coordinator vanished (or restarted us); that is this
      // process's normal end of life, not an error.
      return Status::OK();
    }
    JsonValue doc;
    st = ParseJson(msg, &doc);
    const JsonValue* type = st.ok() ? doc.Find("type") : nullptr;
    const std::string kind =
        type != nullptr && type->type == JsonValue::Type::kString
            ? type->string_value
            : "";
    std::string reply;
    if (kind == "ping") {
      reply = "{\"ok\":true,\"type\":\"pong\"}";
    } else if (kind == "quit") {
      net::SendFrame(fd, "{\"ok\":true,\"type\":\"bye\"}",
                     Deadline::AfterMillis(kReplyTimeoutMs));
      return Status::OK();
    } else if (kind == "wave") {
      // An injected `throw` here simulates a mid-wave crash: no reply,
      // the loop exits, the connection drops, and the supervisor's
      // recovery machinery takes over.
      try {
        fail::MaybeFault("worker.wave");
      } catch (const fail::InjectedFault& fault) {
        return Status::Internal(fault.what());
      }
      Status wave = Status::OK();
      try {
        wave = HandleWave(doc, pool, &cache, &reply);
      } catch (const std::exception& e) {
        wave = Status::Internal(std::string("wave execution threw: ") +
                                e.what());
      }
      if (!wave.ok()) {
        reply = "{\"ok\":false,\"code\":\"";
        reply += StatusCodeWireName(wave.code());
        reply += "\",\"error\":" + JsonQuote(wave.ToString()) + "}";
      }
    } else if (kind == "update") {
      // Same crash-simulation hook as waves: an injected throw drops the
      // connection mid-update, and the supervisor's mutation-log replay
      // brings the restarted incarnation back to the right epoch.
      try {
        fail::MaybeFault("worker.update");
      } catch (const fail::InjectedFault& fault) {
        return Status::Internal(fault.what());
      }
      Status up = Status::OK();
      try {
        up = HandleUpdate(doc, pool, &reply);
      } catch (const std::exception& e) {
        up = Status::Internal(std::string("update execution threw: ") +
                              e.what());
      }
      if (!up.ok()) {
        reply = "{\"ok\":false,\"code\":\"";
        reply += StatusCodeWireName(up.code());
        reply += "\",\"error\":" + JsonQuote(up.ToString()) + "}";
      }
    } else {
      reply =
          "{\"ok\":false,\"code\":\"INVALID_ARGUMENT\",\"error\":\"unknown "
          "message type\"}";
    }
    SAPHYRA_RETURN_NOT_OK(
        net::SendFrame(fd, reply, Deadline::AfterMillis(kReplyTimeoutMs)));
  }
}

}  // namespace saphyra
