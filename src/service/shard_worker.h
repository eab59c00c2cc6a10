#ifndef SAPHYRA_SERVICE_SHARD_WORKER_H_
#define SAPHYRA_SERVICE_SHARD_WORKER_H_

/// \file
/// The sharded serving tier's worker half: a blocking RPC loop that
/// answers the coordinator's frame protocol (hello/ping/wave/quit) over
/// one connection, drawing its assigned RNG stripes on a local
/// SampleEngine and shipping back the raw integer delta — encoded and
/// decoded by the one wave-reply codec declared below, which the
/// coordinator (service/shard.cc) shares.
///
/// Replay contract. A stripe's samples are a pure function of
/// (canonical query, ordinal, stripe, sample range): the worker builds
/// the ordinal's engine on the stream the frontends use,
/// ProgressiveRunStream(seed, ordinal, ProgressiveRuns(estimator))
/// (core/progressive_sampler.h, service/query.h), and draws its stripes
/// with SampleEngine::DrawStripes, which advances a stripe past samples
/// other processes already drew by draw-and-discard (identical RNG
/// consumption). A freshly restarted worker can therefore serve any wave
/// of an in-flight query bit-identically — the property the supervisor's
/// stripe reassignment relies on.
///
/// State. Engines are cached per (graph, canonical query) in a small
/// LRU, one per ordinal; each tracks how far its stripes' streams have
/// been drawn. A request for samples *behind* a stripe's position (the
/// coordinator retried a wave this worker half-drew) rebuilds that
/// ordinal's engine from the seed — streams only run forward. A wave
/// frame naming a stripe twice, more than 4096 stripes, or an ordinal
/// beyond the estimator's progressive runs is rejected with
/// INVALID_ARGUMENT before any stream moves.
///
/// Failure injection: the wave handler honors the `worker.wave`
/// failpoint site; a `throw` there simulates a mid-wave crash (the loop
/// exits without replying, and the connection drops).

#include <cstdint>
#include <string>
#include <vector>

#include "core/sample_engine.h"
#include "service/json_util.h"
#include "service/session_pool.h"
#include "util/status.h"

namespace saphyra {

/// \brief A JSON array of unsigned integers (wave stripe lists, deltas).
void AppendUintArray(const std::vector<uint64_t>& values, std::string* out);

/// \brief The wave reply on the wire: `{"ok":true,"counts":[...]}`, plus
/// `"fp_sums"` and `"fp_sum_squares"` arrays when non-empty. The one
/// encoder, used by the worker.
std::string EncodeDeltaReply(const RawSampleDelta& delta);

/// \brief Decode the delta arrays of a parsed ok reply (the caller checks
/// `ok`). A missing `counts`, a non-array or a non-integer entry is
/// INTERNAL; absent fixed-point arrays decode empty. Shapes are checked
/// where deltas are added (AddDelta).
Status DecodeDeltaReply(const JsonValue& reply, RawSampleDelta* out);

struct WorkerLoopOptions {
  /// This worker's index, echoed in the hello frame so the coordinator
  /// can demux rendezvous connections.
  uint32_t index = 0;
  /// Cached (graph, query) engine states; least-recently-used beyond
  /// this many are dropped (their next wave rebuilds from the seed).
  size_t max_states = 32;
};

/// \brief Serve the shard RPC protocol on `fd` until the peer quits or
/// the connection drops (both return OK — a vanished coordinator is this
/// process's normal exit). `fd` is borrowed; `pool` resolves the graph
/// names the coordinator routes by and must outlive the call.
Status RunWorkerLoop(int fd, SessionPool* pool,
                     const WorkerLoopOptions& options);

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_SHARD_WORKER_H_
