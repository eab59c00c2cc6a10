#ifndef SAPHYRA_NET_FRAME_H_
#define SAPHYRA_NET_FRAME_H_

/// \file
/// Length-prefixed message framing for the shard RPC protocol: every
/// message is a 4-byte little-endian payload length followed by the
/// payload bytes (JSON in practice; the framing layer does not care).
///
/// Both directions are deadline-aware — a stalled peer turns into
/// DEADLINE_EXCEEDED at the armed expiry instead of a wedged coordinator —
/// and handle short reads/writes and EINTR. SIGPIPE is suppressed per-call
/// (MSG_NOSIGNAL), so a dead peer is an IOError, never a process kill.
///
/// Failure injection: `SendFrame` honors the `net.send` failpoint site and
/// `RecvFrame` honors `net.recv` (util/failpoint.h).

#include <cstdint>
#include <string>

#include "util/cancel.h"
#include "util/status.h"

namespace saphyra {
namespace net {

/// Frames larger than this are rejected on both send and receive: a
/// corrupt length prefix must not turn into a multi-gigabyte allocation.
constexpr uint32_t kMaxFrameBytes = 256u << 20;

/// \brief Write one length-prefixed frame, waiting at most until
/// `deadline` for socket writability.
Status SendFrame(int fd, const std::string& payload, Deadline deadline);

/// \brief Read one length-prefixed frame into `*payload`, waiting at most
/// until `deadline`. A frame already buffered is read even past an expired
/// deadline. A clean EOF before any byte of a frame is reported as
/// IOError("connection closed...") — the caller decides whether that peer
/// death was expected.
Status RecvFrame(int fd, std::string* payload, Deadline deadline);

}  // namespace net
}  // namespace saphyra

#endif  // SAPHYRA_NET_FRAME_H_
