#include "service/query.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "service/json_util.h"
#include "util/hash.h"

namespace saphyra {

const char* EstimatorKindName(EstimatorKind kind) {
  switch (kind) {
    case EstimatorKind::kBc: return "bc";
    case EstimatorKind::kBcFull: return "bc-full";
    case EstimatorKind::kKPath: return "kpath";
    case EstimatorKind::kCloseness: return "closeness";
    case EstimatorKind::kAbra: return "abra";
    case EstimatorKind::kKadabra: return "kadabra";
  }
  return "bc";
}

uint32_t ProgressiveRuns(EstimatorKind kind) {
  return kind == EstimatorKind::kAbra || kind == EstimatorKind::kKadabra ? 1
                                                                         : 2;
}

bool ParseEstimatorKind(const std::string& s, EstimatorKind* out) {
  if (s == "bc") *out = EstimatorKind::kBc;
  else if (s == "bc-full") *out = EstimatorKind::kBcFull;
  else if (s == "kpath") *out = EstimatorKind::kKPath;
  else if (s == "closeness") *out = EstimatorKind::kCloseness;
  else if (s == "abra") *out = EstimatorKind::kAbra;
  else if (s == "kadabra") *out = EstimatorKind::kKadabra;
  else return false;
  return true;
}

const char* ServeModeName(ServeMode mode) {
  switch (mode) {
    case ServeMode::kComputed: return "computed";
    case ServeMode::kMemoized: return "memo";
    case ServeMode::kDeduped: return "dedup";
  }
  return "computed";
}

namespace {

/// Wire spelling of QueryResult::degrade_reason. Falls back to "deadline"
/// for any code outside the documented four so a future reason can never
/// render an unparseable line.
const char* DegradeReasonName(StatusCode code) {
  switch (code) {
    case StatusCode::kCancelled: return "cancelled";
    case StatusCode::kUnavailable: return "shard_lost";
    case StatusCode::kInternal: return "internal";
    default: return "deadline";
  }
}

}  // namespace

Status CanonicalizeQuery(NodeId num_nodes, QueryRequest* req) {
  if (req->op == RequestOp::kUpdate) {
    // Structural validation only: existence/duplication of the edge is
    // checked against the current epoch's CSR at apply time, where the
    // answer cannot go stale between validation and application.
    if (req->edge_u >= num_nodes || req->edge_v >= num_nodes) {
      return Status::InvalidArgument(
          "update edge endpoint " +
          std::to_string(std::max(req->edge_u, req->edge_v)) +
          " out of range (n=" + std::to_string(num_nodes) + ")");
    }
    if (req->edge_u == req->edge_v) {
      return Status::InvalidArgument("update edge must not be a self loop");
    }
    if (req->edge_u > req->edge_v) std::swap(req->edge_u, req->edge_v);
    return Status::OK();
  }
  if (!(req->epsilon > 0.0) || req->epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (!(req->delta > 0.0) || req->delta >= 1.0) {
    return Status::InvalidArgument("delta must be in (0, 1)");
  }
  std::sort(req->targets.begin(), req->targets.end());
  req->targets.erase(std::unique(req->targets.begin(), req->targets.end()),
                     req->targets.end());
  if (!req->targets.empty() && req->targets.back() >= num_nodes) {
    return Status::InvalidArgument(
        "target id " + std::to_string(req->targets.back()) +
        " out of range (n=" + std::to_string(num_nodes) + ")");
  }
  // Empty targets mean "the whole graph"; for bc that is exactly bc-full,
  // so the two spellings must share one cache entry.
  if (req->estimator == EstimatorKind::kBc && req->targets.empty()) {
    req->estimator = EstimatorKind::kBcFull;
  }
  // Fields an estimator ignores are reset to fixed values so they cannot
  // split cache entries between requests with identical answers.
  const bool uses_strategy = req->estimator == EstimatorKind::kBc ||
                             req->estimator == EstimatorKind::kBcFull ||
                             req->estimator == EstimatorKind::kKadabra;
  if (!uses_strategy) req->strategy = SamplingStrategy::kBidirectional;
  if (req->estimator == EstimatorKind::kKPath) {
    if (req->k < 1 || req->k > 10000) {
      return Status::InvalidArgument("k must be in [1, 10000]");
    }
  } else {
    req->k = 0;
  }
  return Status::OK();
}

QueryCacheKey MakeQueryCacheKey(uint64_t graph_fingerprint,
                                const QueryRequest& req) {
  // Byte-exact encoding of the statistical parameters only; traversal and
  // num_threads are execution-only and deliberately absent (the
  // determinism contract makes them inert — see the file comment).
  std::string enc;
  enc.reserve(64 + req.targets.size() * sizeof(NodeId));
  auto append = [&enc](const void* data, size_t bytes) {
    enc.append(static_cast<const char*>(data), bytes);
  };
  append(&graph_fingerprint, sizeof(graph_fingerprint));
  const uint8_t kind = static_cast<uint8_t>(req.estimator);
  append(&kind, sizeof(kind));
  // Doubles are keyed by their bit patterns: 0.05 and 0.05000000000000001
  // are different estimator runs, and NaN cannot reach here
  // (CanonicalizeQuery range-checks both).
  append(&req.epsilon, sizeof(req.epsilon));
  append(&req.delta, sizeof(req.delta));
  append(&req.seed, sizeof(req.seed));
  append(&req.top_k, sizeof(req.top_k));
  append(&req.k, sizeof(req.k));
  const uint8_t strat = static_cast<uint8_t>(req.strategy);
  append(&strat, sizeof(strat));
  append(&req.deadline_ms, sizeof(req.deadline_ms));
  const uint64_t count = req.targets.size();
  append(&count, sizeof(count));
  append(req.targets.data(), req.targets.size() * sizeof(NodeId));

  Fnv1a64 h;
  h.Update(enc);
  return {h.Digest(), std::move(enc)};
}

Status ParseQueryRequest(const std::string& line, QueryRequest* out) {
  *out = QueryRequest();
  JsonValue doc;
  SAPHYRA_RETURN_NOT_OK(ParseJson(line, &doc));
  if (doc.type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  auto get_uint = [](const JsonValue& v, const char* what, uint64_t* dst) {
    if (v.type != JsonValue::Type::kNumber || !v.is_uint) {
      return Status::InvalidArgument(std::string(what) +
                                     " must be a non-negative integer");
    }
    *dst = v.uint_value;
    return Status::OK();
  };

  // Strictness across request kinds: a statistical field on an update
  // line (or a mutation field on a query line) is a malformed request,
  // not a silently-ignored one. Track the first offender of each kind
  // and judge once "op" is known, whatever the key order was.
  std::string query_only_key;   // first statistical/execution field seen
  std::string update_only_key;  // first mutation field seen
  bool edge_seen = false;
  bool action_seen = false;

  for (const auto& [key, value] : doc.object) {
    if (key != "id" && key != "graph" && key != "op") {
      if (key == "action" || key == "edge") {
        if (update_only_key.empty()) update_only_key = key;
      } else if (query_only_key.empty()) {
        query_only_key = key;
      }
    }
    if (key == "id") {
      if (value.type != JsonValue::Type::kString) {
        return Status::InvalidArgument("id must be a string");
      }
      out->id = value.string_value;
    } else if (key == "op") {
      if (value.type == JsonValue::Type::kString &&
          value.string_value == "query") {
        out->op = RequestOp::kQuery;
      } else if (value.type == JsonValue::Type::kString &&
                 value.string_value == "update") {
        out->op = RequestOp::kUpdate;
      } else {
        return Status::InvalidArgument("op must be query or update");
      }
    } else if (key == "action") {
      if (value.type == JsonValue::Type::kString &&
          value.string_value == "insert") {
        out->action = EdgeMutationKind::kInsert;
      } else if (value.type == JsonValue::Type::kString &&
                 value.string_value == "delete") {
        out->action = EdgeMutationKind::kDelete;
      } else {
        return Status::InvalidArgument("action must be insert or delete");
      }
      action_seen = true;
    } else if (key == "edge") {
      if (value.type != JsonValue::Type::kArray || value.array.size() != 2) {
        return Status::InvalidArgument(
            "edge must be an array of exactly two node ids");
      }
      NodeId ends[2];
      for (size_t i = 0; i < 2; ++i) {
        uint64_t id = 0;
        SAPHYRA_RETURN_NOT_OK(get_uint(value.array[i], "edge endpoint", &id));
        if (id >= kInvalidNode) {
          return Status::InvalidArgument("edge endpoint exceeds node range");
        }
        ends[i] = static_cast<NodeId>(id);
      }
      out->edge_u = ends[0];
      out->edge_v = ends[1];
      edge_seen = true;
    } else if (key == "graph") {
      if (value.type != JsonValue::Type::kString) {
        return Status::InvalidArgument("graph must be a string");
      }
      out->graph = value.string_value;
    } else if (key == "estimator") {
      if (value.type != JsonValue::Type::kString ||
          !ParseEstimatorKind(value.string_value, &out->estimator)) {
        return Status::InvalidArgument(
            "estimator must be one of bc, bc-full, kpath, closeness, abra, "
            "kadabra");
      }
    } else if (key == "epsilon") {
      if (value.type != JsonValue::Type::kNumber) {
        return Status::InvalidArgument("epsilon must be a number");
      }
      out->epsilon = value.number_value;
    } else if (key == "delta") {
      if (value.type != JsonValue::Type::kNumber) {
        return Status::InvalidArgument("delta must be a number");
      }
      out->delta = value.number_value;
    } else if (key == "seed") {
      SAPHYRA_RETURN_NOT_OK(get_uint(value, "seed", &out->seed));
    } else if (key == "topk") {
      SAPHYRA_RETURN_NOT_OK(get_uint(value, "topk", &out->top_k));
    } else if (key == "deadline_ms") {
      SAPHYRA_RETURN_NOT_OK(get_uint(value, "deadline_ms", &out->deadline_ms));
    } else if (key == "k") {
      uint64_t k = 0;
      SAPHYRA_RETURN_NOT_OK(get_uint(value, "k", &k));
      if (k > 10000) return Status::InvalidArgument("k must be <= 10000");
      out->k = static_cast<uint32_t>(k);
    } else if (key == "strategy") {
      if (value.type != JsonValue::Type::kString) {
        return Status::InvalidArgument("strategy must be a string");
      }
      if (value.string_value == "bidirectional") {
        out->strategy = SamplingStrategy::kBidirectional;
      } else if (value.string_value == "unidirectional") {
        out->strategy = SamplingStrategy::kUnidirectional;
      } else {
        return Status::InvalidArgument(
            "strategy must be bidirectional or unidirectional");
      }
    } else if (key == "traversal") {
      if (value.type != JsonValue::Type::kString ||
          !ParseTraversalPolicy(value.string_value, &out->traversal)) {
        return Status::InvalidArgument(
            "traversal must be auto, topdown or hybrid");
      }
    } else if (key == "threads") {
      uint64_t t = 0;
      SAPHYRA_RETURN_NOT_OK(get_uint(value, "threads", &t));
      if (t > 1024) return Status::InvalidArgument("threads must be <= 1024");
      out->num_threads = static_cast<uint32_t>(t);
    } else if (key == "targets") {
      if (value.type != JsonValue::Type::kArray) {
        return Status::InvalidArgument("targets must be an array");
      }
      out->targets.reserve(value.array.size());
      for (const JsonValue& elem : value.array) {
        uint64_t id = 0;
        SAPHYRA_RETURN_NOT_OK(get_uint(elem, "targets entry", &id));
        if (id >= kInvalidNode) {
          return Status::InvalidArgument("targets entry exceeds node range");
        }
        out->targets.push_back(static_cast<NodeId>(id));
      }
    } else {
      return Status::InvalidArgument("unknown request field: " + key);
    }
  }
  if (out->op == RequestOp::kUpdate) {
    if (!query_only_key.empty()) {
      return Status::InvalidArgument("field \"" + query_only_key +
                                     "\" is not allowed in update requests");
    }
    if (!action_seen || !edge_seen) {
      return Status::InvalidArgument(
          "update requests need both \"action\" and \"edge\"");
    }
  } else if (!update_only_key.empty()) {
    return Status::InvalidArgument("field \"" + update_only_key +
                                   "\" requires \"op\":\"update\"");
  }
  return Status::OK();
}

std::string SerializeQueryRequest(const QueryRequest& req) {
  // Statistical parameters are emitted unconditionally so two canonical
  // requests serialize to equal strings exactly when their cache keys are
  // equal; id/graph are routing-only and appear only when set. Execution
  // parameters (threads, traversal) are deliberately absent: a worker
  // replaying stripes picks its own, and the determinism contract makes
  // them inert anyway.
  std::string out = "{";
  if (!req.id.empty()) out += "\"id\":" + JsonQuote(req.id) + ",";
  if (!req.graph.empty()) out += "\"graph\":" + JsonQuote(req.graph) + ",";
  if (req.op == RequestOp::kUpdate) {
    out += "\"op\":\"update\",\"action\":\"";
    out += req.action == EdgeMutationKind::kInsert ? "insert" : "delete";
    out += "\",\"edge\":[" + std::to_string(req.edge_u) + "," +
           std::to_string(req.edge_v) + "]}";
    return out;
  }
  out += "\"estimator\":\"";
  out += EstimatorKindName(req.estimator);
  out += "\",\"epsilon\":" + JsonNumber(req.epsilon);
  out += ",\"delta\":" + JsonNumber(req.delta);
  out += ",\"seed\":" + std::to_string(req.seed);
  out += ",\"topk\":" + std::to_string(req.top_k);
  out += ",\"k\":" + std::to_string(req.k);
  out += ",\"strategy\":\"";
  out += req.strategy == SamplingStrategy::kUnidirectional ? "unidirectional"
                                                           : "bidirectional";
  out += "\",\"deadline_ms\":" + std::to_string(req.deadline_ms);
  out += ",\"targets\":[";
  for (size_t i = 0; i < req.targets.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(req.targets[i]);
  }
  out += "]}";
  return out;
}

std::string SerializeQueryResult(const QueryResult& res) {
  std::string out = "{\"id\":" + JsonQuote(res.id);
  // Emitted only when routed by name, so single-graph servers (and their
  // clients' parsers) see exactly the lines they always did.
  if (!res.graph.empty()) out += ",\"graph\":" + JsonQuote(res.graph);
  if (!res.status.ok()) {
    out += ",\"ok\":false,\"code\":\"";
    out += StatusCodeWireName(res.status.code());
    out += "\",\"error\":" + JsonQuote(res.status.ToString()) + "}";
    return out;
  }
  if (res.op == RequestOp::kUpdate) {
    // Update acknowledgements carry the new epoch and its chained
    // fingerprint (hex, zero-padded, so clients can compare digests as
    // strings) instead of estimator fields.
    char fp[17];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(res.fingerprint));
    out += ",\"ok\":true,\"op\":\"update\",\"epoch\":" +
           std::to_string(res.epoch) + ",\"fingerprint\":\"" + fp + "\"";
    out += ",\"seconds\":" + JsonNumber(res.seconds) + "}";
    return out;
  }
  out += ",\"ok\":true,\"estimator\":\"";
  out += EstimatorKindName(res.estimator);
  out += "\",\"served\":\"";
  out += ServeModeName(res.mode);
  out += "\",\"samples\":" + std::to_string(res.samples_used);
  out += ",\"seconds\":" + JsonNumber(res.seconds);
  if (res.degraded) {
    // epsilon_achieved is infinite when the deadline hit before a variance
    // estimate existed; JSON has no Infinity, so that spells null.
    out += ",\"degraded\":true,\"degrade_reason\":\"";
    out += DegradeReasonName(res.degrade_reason);
    out += "\",\"epsilon_achieved\":";
    out += std::isfinite(res.epsilon_achieved)
               ? JsonNumber(res.epsilon_achieved)
               : "null";
  }
  out += ",\"nodes\":[";
  for (size_t i = 0; i < res.nodes.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(res.nodes[i]);
  }
  out += "],\"estimates\":[";
  for (size_t i = 0; i < res.estimates.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += JsonNumber(res.estimates[i]);
  }
  out += "]}";
  return out;
}

}  // namespace saphyra
