#include "net/frame.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>

#include <algorithm>

#include "util/failpoint.h"

namespace saphyra {
namespace net {
namespace {

std::string Errno(const std::string& what) {
  return what + ": " + strerror(errno);
}

int PollTimeoutMs(Deadline deadline) {
  if (deadline.unbounded()) return -1;
  const int64_t left_ns = deadline.steady_nanos() - Deadline::NowNanos();
  if (left_ns <= 0) return 0;
  const int64_t ms = left_ns / 1000000 + 1;
  return static_cast<int>(std::min<int64_t>(ms, INT32_MAX));
}

/// Block until `fd` is ready for `events` or the deadline expires. An
/// expired deadline still gets one non-blocking poll: bytes the peer has
/// already delivered are read, only waiting for more is refused — which
/// is what lets a caller drain a reply that arrived in time.
Status WaitReady(int fd, short events, Deadline deadline,
                 const char* what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    const int ready = poll(&pfd, 1, PollTimeoutMs(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno(std::string("poll(") + what + ")"));
    }
    if (ready == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      " hit the RPC deadline");
    }
    return Status::OK();
  }
}

Status SendAll(int fd, const char* data, size_t len, Deadline deadline) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      SAPHYRA_RETURN_NOT_OK(WaitReady(fd, POLLOUT, deadline, "send"));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError(Errno("send"));
  }
  return Status::OK();
}

Status RecvAll(int fd, char* data, size_t len, Deadline deadline,
               bool eof_ok_at_start, bool* clean_eof) {
  size_t got = 0;
  while (got < len) {
    SAPHYRA_RETURN_NOT_OK(WaitReady(fd, POLLIN, deadline, "recv"));
    const ssize_t n = recv(fd, data + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (eof_ok_at_start && got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
      }
      return Status::IOError(got == 0
                                 ? "connection closed by peer"
                                 : "connection closed mid-frame");
    }
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return Status::IOError(Errno("recv"));
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(int fd, const std::string& payload, Deadline deadline) {
  SAPHYRA_RETURN_NOT_OK(fail::FaultStatus("net.send"));
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload of " +
                                   std::to_string(payload.size()) +
                                   " bytes exceeds the frame limit");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4];
  header[0] = static_cast<char>(len & 0xff);
  header[1] = static_cast<char>((len >> 8) & 0xff);
  header[2] = static_cast<char>((len >> 16) & 0xff);
  header[3] = static_cast<char>((len >> 24) & 0xff);
  SAPHYRA_RETURN_NOT_OK(SendAll(fd, header, sizeof(header), deadline));
  return SendAll(fd, payload.data(), payload.size(), deadline);
}

Status RecvFrame(int fd, std::string* payload, Deadline deadline) {
  SAPHYRA_RETURN_NOT_OK(fail::FaultStatus("net.recv"));
  char header[4];
  bool clean_eof = false;
  SAPHYRA_RETURN_NOT_OK(
      RecvAll(fd, header, sizeof(header), deadline, true, &clean_eof));
  const uint32_t len = static_cast<uint32_t>(
      static_cast<unsigned char>(header[0]) |
      (static_cast<unsigned char>(header[1]) << 8) |
      (static_cast<unsigned char>(header[2]) << 16) |
      (static_cast<unsigned char>(header[3]) << 24));
  if (len > kMaxFrameBytes) {
    return Status::IOError("frame length " + std::to_string(len) +
                           " exceeds the frame limit (corrupt stream?)");
  }
  payload->assign(len, '\0');
  if (len == 0) return Status::OK();
  return RecvAll(fd, payload->data(), len, deadline, false, nullptr);
}

}  // namespace net
}  // namespace saphyra
