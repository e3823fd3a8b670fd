// Frame I/O over a real socket: writeFrame's gather write puts exactly
// encodeFrame's bytes on the wire, also when a large payload leaves in
// several partial writes, and readFrame reuses the caller's buffer.
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "server/socket.h"

namespace freqdedup::server {
namespace {

struct SocketPair {
  Fd a, b;
  SocketPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
      throw std::runtime_error("socketpair failed");
    a = Fd(fds[0]);
    b = Fd(fds[1]);
  }
};

ByteVec randomBytes(uint64_t seed, size_t n) {
  Rng rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.next());
  return out;
}

ByteVec readExactly(int fd, size_t n) {
  ByteVec out(n);
  EXPECT_TRUE(readFull(fd, out.data(), n));
  return out;
}

TEST(SocketFrame, GatherWriteSendsEncodeFrameBytes) {
  SocketPair sp;
  const ByteVec payload = toBytes("type|id|len|and the bulk data");
  const ByteView all(payload);
  for (const size_t split : {size_t{0}, size_t{5}, payload.size()}) {
    writeFrame(sp.a.get(), all.subspan(0, split), all.subspan(split));
    EXPECT_EQ(readExactly(sp.b.get(), payload.size() + kFrameHeaderBytes),
              encodeFrame(payload))
        << split;
  }
}

// A payload far larger than the socket buffer leaves in many partial
// sendmsg calls; the reader must still see one intact frame.
TEST(SocketFrame, LargeFrameSurvivesPartialWrites) {
  SocketPair sp;
  const ByteVec payload = randomBytes(1, (size_t{4} << 20) + 3);
  const ByteView all(payload);
  std::thread writer(
      [&] { writeFrame(sp.a.get(), all.subspan(0, 17), all.subspan(17)); });
  ByteVec got;
  ASSERT_TRUE(readFrame(sp.b.get(), got));
  writer.join();
  EXPECT_EQ(got, payload);
}

TEST(SocketFrame, ReadFrameReusesTheCallersBuffer) {
  SocketPair sp;
  const ByteVec big = randomBytes(2, 1 << 16);
  const ByteVec small = toBytes("small");
  ByteVec buf;
  writeFrame(sp.a.get(), big);
  ASSERT_TRUE(readFrame(sp.b.get(), buf));
  EXPECT_EQ(buf, big);
  const uint8_t* storage = buf.data();
  writeFrame(sp.a.get(), small);
  ASSERT_TRUE(readFrame(sp.b.get(), buf));
  EXPECT_EQ(buf, small);
  EXPECT_EQ(buf.data(), storage);  // no reallocation for a smaller frame
  writeFrame(sp.a.get(), {});
  ASSERT_TRUE(readFrame(sp.b.get(), buf));
  EXPECT_TRUE(buf.empty());
  sp.a.reset();
  EXPECT_FALSE(readFrame(sp.b.get(), buf));  // clean EOF at a boundary
}

TEST(SocketFrame, ReadFrameRejectsCorruptPayload) {
  SocketPair sp;
  ByteVec frame = encodeFrame(toBytes("payload"));
  frame.back() ^= 0x01;
  writeFull(sp.a.get(), frame.data(), frame.size());
  ByteVec buf;
  EXPECT_THROW(readFrame(sp.b.get(), buf), WireError);
}

}  // namespace
}  // namespace freqdedup::server
