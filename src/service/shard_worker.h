#ifndef SAPHYRA_SERVICE_SHARD_WORKER_H_
#define SAPHYRA_SERVICE_SHARD_WORKER_H_

/// \file
/// The sharded serving tier's worker half: a blocking RPC loop that
/// answers the coordinator's frame protocol (hello/ping/wave/quit) over
/// one connection, drawing its assigned RNG stripes on a local
/// SampleEngine and shipping back the raw integer delta.
///
/// Replay contract. A stripe's samples are a pure function of
/// (canonical query, ordinal, stripe, sample range): the worker derives
/// the run's RNG streams from the query seed exactly as the estimator
/// frontends do (core/saphyra.cc — ordinal 0 consumes the pilot split,
/// ordinal 1 the post-split base stream; ABRA/KADABRA use the base
/// stream directly as ordinal 0), advances a stripe past samples other
/// processes already drew with draw-and-discard (identical RNG
/// consumption), then draws its quota. A freshly restarted worker can
/// therefore serve any wave of an in-flight query bit-identically — the
/// property the supervisor's stripe reassignment relies on.
///
/// State. Engines are cached per (graph, canonical query) in a small
/// LRU; per-ordinal stripe positions track how far each stream has been
/// consumed. A request for samples *behind* a stripe's position (the
/// coordinator retried a wave this worker half-drew) rebuilds that
/// ordinal's engine from the seed — streams only run forward. A wave
/// frame naming a stripe twice, or more than 4096 stripes, is rejected
/// with INVALID_ARGUMENT before any state changes.
///
/// Failure injection: the wave handler honors the `worker.wave`
/// failpoint site; a `throw` there simulates a mid-wave crash (the loop
/// exits without replying, and the connection drops).

#include <cstdint>
#include <string>

#include "service/session_pool.h"
#include "util/status.h"

namespace saphyra {

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
