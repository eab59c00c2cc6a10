// The shard tier's socket plumbing: endpoint parsing, length-prefixed
// framing over real sockets (short reads, big frames, deadlines), and the
// unix-domain listen/connect/accept rendezvous the worker launcher uses.

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/frame.h"
#include "net/socket.h"
#include "util/failpoint.h"

namespace saphyra {
namespace {

TEST(EndpointTest, ParsesUnixAndTcpSpecs) {
  net::Endpoint ep;
  ASSERT_TRUE(net::ParseEndpoint("unix:/tmp/x.sock", &ep).ok());
  EXPECT_TRUE(ep.is_unix);
  EXPECT_EQ(ep.path, "/tmp/x.sock");
  EXPECT_EQ(net::EndpointToString(ep), "unix:/tmp/x.sock");

  ASSERT_TRUE(net::ParseEndpoint("tcp:127.0.0.1:9000", &ep).ok());
  EXPECT_FALSE(ep.is_unix);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 9000);
  EXPECT_EQ(net::EndpointToString(ep), "tcp:127.0.0.1:9000");

  EXPECT_FALSE(net::ParseEndpoint("", &ep).ok());
  EXPECT_FALSE(net::ParseEndpoint("bogus", &ep).ok());
  EXPECT_FALSE(net::ParseEndpoint("tcp:nohost", &ep).ok());
  EXPECT_FALSE(net::ParseEndpoint("tcp:host:notaport", &ep).ok());
  EXPECT_FALSE(net::ParseEndpoint("unix:", &ep).ok());
}

TEST(FrameTest, RoundTripsFramesInOrder) {
  net::UniqueFd a, b;
  ASSERT_TRUE(net::SocketPair(&a, &b).ok());
  const std::vector<std::string> messages = {
      "", "x", std::string("binary\0payload", 14), std::string(100000, 'q')};
  for (const std::string& msg : messages) {
    ASSERT_TRUE(net::SendFrame(a.get(), msg, Deadline::AfterMillis(5000)).ok());
  }
  for (const std::string& msg : messages) {
    std::string got;
    ASSERT_TRUE(
        net::RecvFrame(b.get(), &got, Deadline::AfterMillis(5000)).ok());
    EXPECT_EQ(got, msg);
  }
}

TEST(FrameTest, LargeFrameSurvivesShortReadsAndWrites) {
  // 8 MiB is far past any socket buffer, so both directions exercise the
  // partial-transfer loops; the reader runs concurrently to drain.
  net::UniqueFd a, b;
  ASSERT_TRUE(net::SocketPair(&a, &b).ok());
  std::string big(8u << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<char>(i * 31);

  std::string got;
  Status recv_st;
  std::thread reader([&] {
    recv_st = net::RecvFrame(b.get(), &got, Deadline::AfterMillis(30000));
  });
  Status send_st = net::SendFrame(a.get(), big, Deadline::AfterMillis(30000));
  reader.join();
  ASSERT_TRUE(send_st.ok()) << send_st.ToString();
  ASSERT_TRUE(recv_st.ok()) << recv_st.ToString();
  EXPECT_TRUE(got == big);
}

TEST(FrameTest, RecvHonorsDeadlineOnSilentPeer) {
  net::UniqueFd a, b;
  ASSERT_TRUE(net::SocketPair(&a, &b).ok());
  std::string got;
  Status st = net::RecvFrame(b.get(), &got, Deadline::AfterMillis(50));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
}

TEST(FrameTest, ExpiredDeadlineStillReadsABufferedFrame) {
  // The shard supervisor drains replies that arrived before a query's
  // deadline after that deadline has passed: an expired deadline refuses
  // to wait, not to read what is already there.
  net::UniqueFd a, b;
  ASSERT_TRUE(net::SocketPair(&a, &b).ok());
  ASSERT_TRUE(
      net::SendFrame(a.get(), "reply", Deadline::AfterMillis(5000)).ok());
  const Deadline expired = Deadline::AtSteadyNanos(Deadline::NowNanos() - 1);
  std::string got;
  Status st = net::RecvFrame(b.get(), &got, expired);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(got, "reply");
  st = net::RecvFrame(b.get(), &got, expired);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
}

TEST(FrameTest, PeerCloseIsIOErrorNotCrash) {
  net::UniqueFd a, b;
  ASSERT_TRUE(net::SocketPair(&a, &b).ok());
  a.Reset();
  std::string got;
  Status st = net::RecvFrame(b.get(), &got, Deadline::AfterMillis(1000));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st.ToString();

  // Writing into the closed peer must be an error too — never SIGPIPE
  // (MSG_NOSIGNAL), which would kill the coordinator.
  st = net::SendFrame(b.get(), std::string(1u << 20, 'z'),
                      Deadline::AfterMillis(1000));
  EXPECT_FALSE(st.ok());
}

TEST(SocketTest, UnixListenConnectAcceptRendezvous) {
  const std::string path =
      "/tmp/saphyra_net_test_" + std::to_string(::getpid()) + ".sock";
  net::Endpoint ep;
  ep.is_unix = true;
  ep.path = path;
  net::UniqueFd listener;
  ASSERT_TRUE(net::Listen(ep, &listener).ok());
  // Rebinding the same path must not fail on the stale socket file.
  net::UniqueFd listener2;
  listener.Reset();
  ASSERT_TRUE(net::Listen(ep, &listener2).ok());

  net::UniqueFd client;
  Status connect_st;
  std::thread connector([&] { connect_st = net::Connect(ep, &client); });
  net::UniqueFd server_side;
  Status accept_st =
      net::Accept(listener2.get(), Deadline::AfterMillis(5000), &server_side);
  connector.join();
  ASSERT_TRUE(connect_st.ok()) << connect_st.ToString();
  ASSERT_TRUE(accept_st.ok()) << accept_st.ToString();

  ASSERT_TRUE(net::SendFrame(client.get(), "ping", Deadline::AfterMillis(5000))
                  .ok());
  std::string got;
  ASSERT_TRUE(
      net::RecvFrame(server_side.get(), &got, Deadline::AfterMillis(5000))
          .ok());
  EXPECT_EQ(got, "ping");
  std::remove(path.c_str());
}

TEST(SocketTest, AcceptHonorsDeadlineWithNoClient) {
  const std::string path =
      "/tmp/saphyra_net_test_idle_" + std::to_string(::getpid()) + ".sock";
  net::Endpoint ep;
  ep.is_unix = true;
  ep.path = path;
  net::UniqueFd listener;
  ASSERT_TRUE(net::Listen(ep, &listener).ok());
  net::UniqueFd conn;
  Status st = net::Accept(listener.get(), Deadline::AfterMillis(50), &conn);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  std::remove(path.c_str());
}

#ifdef SAPHYRA_FAILPOINTS
TEST(FrameTest, TransportFailpointsInjectIOErrors) {
  ASSERT_TRUE(fail::Inject("net.send", "1*io-error(injected)"));
  net::UniqueFd a, b;
  ASSERT_TRUE(net::SocketPair(&a, &b).ok());
  Status st = net::SendFrame(a.get(), "x", Deadline::AfterMillis(1000));
  EXPECT_FALSE(st.ok());
  // One-shot action consumed: the next send goes through...
  ASSERT_TRUE(net::SendFrame(a.get(), "x", Deadline::AfterMillis(1000)).ok());

  // ...and the receive side has its own site.
  ASSERT_TRUE(fail::Inject("net.recv", "1*io-error(injected)"));
  std::string got;
  EXPECT_FALSE(net::RecvFrame(b.get(), &got, Deadline::AfterMillis(1000)).ok());
  ASSERT_TRUE(
      net::RecvFrame(b.get(), &got, Deadline::AfterMillis(1000)).ok());
  EXPECT_EQ(got, "x");
  fail::ClearAll();
}
#endif

}  // namespace
}  // namespace saphyra
