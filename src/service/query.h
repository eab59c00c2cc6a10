#ifndef SAPHYRA_SERVICE_QUERY_H_
#define SAPHYRA_SERVICE_QUERY_H_

/// \file
/// The serving layer's query model: one heterogeneous request type
/// covering every estimator in the library (SaPHyRa_bc, k-path,
/// closeness, ABRA, KADABRA, each with its own ε/δ/seed/strategy and
/// optional top-k mode), its canonicalization, and the derived cache key
/// the scheduler memoizes on.
///
/// The split that makes memoization sound is the determinism contract
/// (DESIGN.md, "Adaptive stopping contract"): a query's *statistical*
/// parameters (estimator, ε, δ, seed, top-k, sampling strategy, k-path
/// hop budget, target set) fully determine its estimates bit for bit,
/// while *execution* parameters (thread count, wave size, traversal
/// policy) never affect any result bit. Canonicalization therefore zeroes
/// the inapplicable fields, sorts/dedups the target set, and encodes only
/// the statistical side; two requests share a cache entry exactly when the
/// contract says they must produce identical bytes. See docs/serving.md
/// for the JSON schema and worked examples.
///
/// Ownership/threading: plain value types and pure functions; safe to use
/// from concurrent scheduler threads.

#include <cstdint>
#include <string>
#include <vector>

#include "bc/path_sampler.h"
#include "bicomp/incremental.h"
#include "graph/frontier.h"
#include "graph/graph.h"
#include "util/status.h"

namespace saphyra {

class JsonValue;

/// \brief What a request line asks the server to do: answer a statistical
/// query (the default) or mutate the graph ({"op":"update"}). Updates
/// carry an action + edge instead of statistical parameters, are never
/// memoized, and bump the graph's mutation epoch — see docs/serving.md,
/// "Dynamic graphs".
enum class RequestOp : uint8_t {
  kQuery = 0,
  kUpdate = 1,
};

/// \brief Which estimator answers the query.
enum class EstimatorKind : uint8_t {
  kBc = 0,         ///< SaPHyRa_bc on a target subset
  kBcFull = 1,     ///< SaPHyRa_bc-full (whole network)
  kKPath = 2,      ///< k-path centrality via the generic framework
  kCloseness = 3,  ///< harmonic closeness via the generic framework
  kAbra = 4,       ///< ABRA baseline (whole network, subset reported)
  kKadabra = 5,    ///< KADABRA baseline (whole network, subset reported)
};

const char* EstimatorKindName(EstimatorKind kind);
/// \brief Progressive runs the estimator draws, each on its own base
/// stream (core/progressive_sampler.h, ProgressiveRunStream): 2 for the
/// RunSaphyra frontends (bc, bc-full, kpath, closeness: pilot and main
/// loop), 1 for ABRA and KADABRA.
uint32_t ProgressiveRuns(EstimatorKind kind);
bool ParseEstimatorKind(const std::string& s, EstimatorKind* out);

/// \brief One serving request. Defaults mirror the library option structs.
struct QueryRequest {
  /// Client-chosen identifier, echoed back verbatim in the result line.
  std::string id;
  /// Which pooled graph answers the query, by registered name ("" = the
  /// server's default graph). Routing-only, NOT part of the cache key:
  /// the key already embeds the resolved graph's content fingerprint, so
  /// two names serving identical bytes share memo entries and two names
  /// serving different graphs can never collide. Single-session servers
  /// reject a non-empty name they were not started with (NOT_FOUND).
  std::string graph;
  EstimatorKind estimator = EstimatorKind::kBc;

  /// Query or update. For updates, only id/graph/action/edge may appear
  /// on the wire — a statistical field on an update line is rejected, so
  /// a mistyped request can never half-apply as the wrong kind.
  RequestOp op = RequestOp::kQuery;
  /// Update-only: insert or delete the undirected edge {edge_u, edge_v}.
  EdgeMutationKind action = EdgeMutationKind::kInsert;
  NodeId edge_u = 0;
  NodeId edge_v = 0;

  // --- statistical parameters (part of the cache key) ------------------
  double epsilon = 0.05;
  double delta = 0.01;
  uint64_t seed = 1;
  /// 0 = guaranteed-ε mode; >0 = top-k separation mode.
  uint64_t top_k = 0;
  /// Hop budget of k-path centrality (ignored by every other estimator).
  uint32_t k = 4;
  /// Shortest-path sampling strategy (bc and KADABRA only).
  SamplingStrategy strategy = SamplingStrategy::kBidirectional;
  /// Target node set. Empty = the whole graph (bc becomes bc-full).
  std::vector<NodeId> targets;
  /// 0 = no deadline. Otherwise the query is cancelled after this many
  /// milliseconds and answers with whatever completed waves it has,
  /// tagged degraded. Part of the cache key: the deadline changes which
  /// result bytes a request can produce, so bounded and unbounded
  /// spellings of the same query must not share a memo entry (degraded
  /// results are never memoized, but an unbounded hit must also never be
  /// served where the client budgeted for less).
  uint64_t deadline_ms = 0;

  // --- execution parameters (never in the cache key) -------------------
  /// Worker threads for sample generation; 0 = the session default.
  uint32_t num_threads = 0;
  /// BFS level-expansion policy; results are bitwise identical either way.
  TraversalPolicy traversal = TraversalPolicy::kAuto;
};

/// \brief Validate `req` against a graph of `num_nodes` nodes and rewrite
/// it into canonical form: targets sorted and deduplicated (all nodes in
/// range), a targetless bc promoted to bc-full, and every field an
/// estimator ignores reset to its default so it cannot split cache
/// entries (strategy for closeness/k-path/ABRA, k for everything but
/// k-path, and — being execution-only — traversal and num_threads are
/// left alone but never encoded). Updates canonicalize differently: the
/// edge endpoints are range-checked (out of range or a self loop →
/// INVALID_ARGUMENT) and ordered edge_u < edge_v; whether the edge
/// exists is the overlay's business at apply time, not the parser's.
Status CanonicalizeQuery(NodeId num_nodes, QueryRequest* req);

/// \brief Memoization key of a canonicalized request on a specific graph.
///
/// `canonical` is a byte-exact encoding of (graph fingerprint, estimator,
/// ε bits, δ bits, seed, top-k, k, strategy, target list); `hash` is its
/// FNV-1a digest for bucket lookup. Equality compares the full encoding,
/// so a hash collision degrades to a miss-equality check, never a wrong
/// result.
struct QueryCacheKey {
  uint64_t hash = 0;
  std::string canonical;

  bool operator==(const QueryCacheKey& other) const {
    return hash == other.hash && canonical == other.canonical;
  }
};

/// \brief Build the cache key of a *canonicalized* request running against
/// the graph identified by `graph_fingerprint`
/// (GraphContentFingerprint / the `.sgr` header).
QueryCacheKey MakeQueryCacheKey(uint64_t graph_fingerprint,
                                const QueryRequest& req);

/// \brief How a result was produced, for the latency accounting.
enum class ServeMode : uint8_t {
  kComputed = 0,  ///< ran the estimator
  kMemoized = 1,  ///< copied from the completed-results memo
  kDeduped = 2,   ///< shared another in-flight execution of the same key
};

const char* ServeModeName(ServeMode mode);

/// \brief One answered query.
struct QueryResult {
  std::string id;
  /// The graph name the request routed to, echoed back so clients of a
  /// multi-graph server can demux; empty (and absent from the NDJSON
  /// line) on single-graph servers and unrouted errors.
  std::string graph;
  Status status;
  EstimatorKind estimator = EstimatorKind::kBc;
  /// Nodes and their estimates, aligned; ranking order is the caller's
  /// business (estimates are deterministic, sort order of ties is not a
  /// contract the serving layer wants to own).
  std::vector<NodeId> nodes;
  std::vector<double> estimates;
  uint64_t samples_used = 0;
  /// Wall-clock seconds of *this* serve (≈0 for memoized hits).
  double seconds = 0.0;
  ServeMode mode = ServeMode::kComputed;
  /// Deadline truncation: estimates cover completed waves only, the
  /// (ε, δ) guarantee does NOT hold, and the result is never memoized.
  bool degraded = false;
  /// Why the run degraded (kOk unless `degraded`): kDeadlineExceeded,
  /// kCancelled, kUnavailable when the sharded tier lost its workers
  /// past the retry budget, or kInternal when a wave's merged delta was
  /// malformed (a worker reply of the wrong shape). Serialized as
  /// "degrade_reason": "deadline" | "cancelled" | "shard_lost" |
  /// "internal".
  StatusCode degrade_reason = StatusCode::kOk;
  /// Only when degraded: the deviation bound actually achieved, in the
  /// estimator's own units; infinity when truncation preceded any
  /// variance estimate (serialized as null).
  double epsilon_achieved = 0.0;

  // --- update results (op == kUpdate only) -----------------------------
  /// Echoes the request kind; update results serialize as
  /// {"ok":true,"op":"update","epoch":E,"fingerprint":"<hex>",...} with
  /// none of the estimator fields above.
  RequestOp op = RequestOp::kQuery;
  /// The mutation epoch the update produced.
  uint64_t epoch = 0;
  /// The new chained graph fingerprint (ChainMutationFingerprint).
  uint64_t fingerprint = 0;
  /// Whether this update compacted the overlay onto a clean CSR.
  bool compacted = false;
};

/// \brief Parse one NDJSON request line. Unknown fields are rejected (a
/// typo'd "epsilon" silently running at the default would be worse).
Status ParseQueryRequest(const std::string& line, QueryRequest* out);

/// \brief Render `req` as one NDJSON request line (no trailing newline)
/// that ParseQueryRequest round-trips exactly — ε/δ print with shortest-
/// round-trip precision. This is how the sharded tier ships a
/// *canonicalized* query to worker processes: the worker re-parses and
/// re-canonicalizes, and bitwise-identical statistical parameters are what
/// make its stripe replay bit-for-bit.
std::string SerializeQueryRequest(const QueryRequest& req);

/// \brief Render `res` as one NDJSON line (no trailing newline).
/// Estimates print with shortest-round-trip precision, so piping results
/// through text preserves bitwise equality.
std::string SerializeQueryResult(const QueryResult& res);

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_QUERY_H_
