// The coordinator<->worker framing layer (src/common/ipc.h): payloads packed
// with the shared codec (src/common/bytes.h) round-trip bit-exactly, frames
// survive arbitrary kernel chunking through the shared FrameReader, and
// hostile inputs (oversized or zero lengths, trailing garbage, a dead peer)
// surface as Status — never an abort, never a desync.
#include "src/common/ipc.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/frame_reader.h"
#include "src/common/sockio.h"

namespace pad {
namespace {

TEST(IpcPackingTest, RoundTripsEveryFieldType) {
  std::string payload;
  PutU32(&payload, 0xdeadbeefu);
  PutU64(&payload, 0x0123456789abcdefull);
  PutI64(&payload, -42);
  PutF64(&payload, 3.5);
  PutF64(&payload, -0.0);
  PutString(&payload, "diag\0nostic");  // Truncates at NUL via string_view ctor.
  PutString(&payload, "");

  ByteReader parser(payload);
  EXPECT_EQ(0xdeadbeefu, parser.GetU32());
  EXPECT_EQ(0x0123456789abcdefull, parser.GetU64());
  EXPECT_EQ(-42, parser.GetI64());
  EXPECT_EQ(3.5, parser.GetF64());
  const double negative_zero = parser.GetF64();
  EXPECT_EQ(0.0, negative_zero);
  EXPECT_TRUE(std::signbit(negative_zero)) << "doubles must round-trip bit-exactly";
  EXPECT_EQ("diag", parser.GetString());
  EXPECT_EQ("", parser.GetString());
  EXPECT_TRUE(parser.Finished());
}

TEST(IpcPackingTest, ShortPayloadFailsInsteadOfReadingGarbage) {
  std::string payload;
  PutU32(&payload, 7);
  ByteReader parser(payload);
  EXPECT_EQ(7u, parser.GetU32());
  EXPECT_EQ(0u, parser.GetU64());  // Out of bounds: zero, and ok() flips.
  EXPECT_FALSE(parser.ok());
  EXPECT_FALSE(parser.Finished());
}

TEST(IpcPackingTest, TrailingGarbageIsNotFinished) {
  std::string payload;
  PutU32(&payload, 7);
  payload.push_back('x');
  ByteReader parser(payload);
  EXPECT_EQ(7u, parser.GetU32());
  EXPECT_TRUE(parser.ok());
  EXPECT_FALSE(parser.Finished()) << "undrained bytes mean a layout mismatch";
}

TEST(IpcPackingTest, StringLengthBeyondPayloadFails) {
  std::string payload;
  PutU32(&payload, 1000);  // Claims 1000 bytes; none follow.
  ByteReader parser(payload);
  EXPECT_EQ("", parser.GetString());
  EXPECT_FALSE(parser.ok());
}

TEST(IpcFrameTest, SendRecvRoundTripsOverSocketpair) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  std::string payload;
  PutU32(&payload, 3);
  PutU64(&payload, 0xfeedfacecafef00dull);
  ASSERT_TRUE(SendIpcFrame(pair->coordinator_fd, 7, payload).ok());

  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_TRUE(message.ok()) << message.status().ToString();
  EXPECT_EQ(7, message->type);
  EXPECT_EQ(payload, message->payload);

  // Empty payload is legal (frame length 1: just the type byte).
  ASSERT_TRUE(SendIpcFrame(pair->worker_fd, 9, "").ok());
  message = RecvIpcFrame(pair->coordinator_fd);
  ASSERT_TRUE(message.ok());
  EXPECT_EQ(9, message->type);
  EXPECT_TRUE(message->payload.empty());

  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcFrameTest, PeerCloseIsUnavailableNotSignal) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  close(pair->coordinator_fd);

  // Read side: EOF at a frame boundary.
  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kUnavailable, message.status().code());

  // Write side: the peer is gone; MSG_NOSIGNAL means we get a Status, not
  // SIGPIPE terminating the test binary.
  const Status status = SendIpcFrame(pair->worker_fd, 1, "x");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(StatusCode::kUnavailable, status.code());
  close(pair->worker_fd);
}

TEST(IpcFrameTest, OversizedLengthIsDataLoss) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  // Hand-build a frame whose length word claims far more than max_payload.
  std::string hostile;
  PutU32(&hostile, std::numeric_limits<uint32_t>::max());
  ASSERT_EQ(4, write(pair->coordinator_fd, hostile.data(), hostile.size()));

  StatusOr<IpcMessage> message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kDataLoss, message.status().code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);

  // A declared length of zero (no type byte) is equally malformed.
  pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  std::string zero;
  PutU32(&zero, 0);
  ASSERT_EQ(4, write(pair->coordinator_fd, zero.data(), zero.size()));
  message = RecvIpcFrame(pair->worker_fd);
  ASSERT_FALSE(message.ok());
  EXPECT_EQ(StatusCode::kDataLoss, message.status().code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

// The coordinator's read path: whatever a nonblocking channel holds goes
// into a FrameReader (one ReadSome per call here), and every complete body
// is split into an IpcMessage.
ssize_t ReadInto(int fd, FrameReader& reader) {
  char chunk[4096];
  const ssize_t n = ReadSome(fd, chunk, sizeof(chunk));
  if (n > 0) {
    EXPECT_TRUE(reader
                    .Append(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(chunk),
                                                     static_cast<size_t>(n)))
                    .ok());
  }
  return n;
}

std::vector<IpcMessage> DrainMessages(FrameReader& reader) {
  std::vector<IpcMessage> messages;
  while (true) {
    std::string body;
    bool have = false;
    EXPECT_TRUE(reader.Next(&body, &have).ok());
    if (!have) {
      return messages;
    }
    StatusOr<IpcMessage> message = SplitIpcFrame(body);
    EXPECT_TRUE(message.ok()) << message.status().ToString();
    messages.push_back(*std::move(message));
  }
}

TEST(IpcStreamTest, ReassemblesFramesAcrossArbitraryChunking) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());

  // Three frames in one buffer, dribbled into the socket one byte at a time:
  // the reader must never yield a partial or merged message.
  std::string wire;
  for (uint8_t type = 1; type <= 3; ++type) {
    std::string payload;
    PutU32(&payload, type * 100u);
    std::string frame;
    PutU32(&frame, static_cast<uint32_t>(1 + payload.size()));
    frame.push_back(static_cast<char>(type));
    frame.append(payload);
    wire += frame;
  }

  FrameReader reader(kMaxIpcPayload);
  std::vector<IpcMessage> received;
  for (char byte : wire) {
    ASSERT_EQ(1, write(pair->worker_fd, &byte, 1));
    ASSERT_EQ(1, ReadInto(pair->coordinator_fd, reader));
    for (IpcMessage& message : DrainMessages(reader)) {
      received.push_back(std::move(message));
    }
  }
  ASSERT_EQ(3u, received.size());
  for (uint8_t type = 1; type <= 3; ++type) {
    EXPECT_EQ(type, received[type - 1].type);
    ByteReader parser(received[type - 1].payload);
    EXPECT_EQ(type * 100u, parser.GetU32());
    EXPECT_TRUE(parser.Finished());
  }
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcStreamTest, EofStillDrainsBufferedFrames) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
  // A completed market's DONE must survive its sender's death: write a
  // frame, close the peer, and expect EOF with the frame intact.
  ASSERT_TRUE(SendIpcFrame(pair->worker_fd, 3, "zz").ok());
  close(pair->worker_fd);

  // The first read takes the frame's bytes; EOF surfaces on the NEXT read,
  // and the buffered frame still drains after it — the coordinator's
  // drain-then-reap ordering.
  FrameReader reader(kMaxIpcPayload);
  ASSERT_EQ(7, ReadInto(pair->coordinator_fd, reader));
  EXPECT_EQ(0, ReadInto(pair->coordinator_fd, reader));
  const std::vector<IpcMessage> messages = DrainMessages(reader);
  ASSERT_EQ(1u, messages.size());
  EXPECT_EQ(3, messages[0].type);
  EXPECT_EQ("zz", messages[0].payload);
  close(pair->coordinator_fd);
}

TEST(IpcStreamTest, OversizedLengthPoisonsPermanently) {
  FrameReader reader(16);
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
  std::string hostile;
  PutU32(&hostile, 1u << 30);
  ASSERT_EQ(4, write(pair->worker_fd, hostile.data(), hostile.size()));
  ASSERT_EQ(4, ReadInto(pair->coordinator_fd, reader));

  std::string body;
  bool have = false;
  Status status = reader.Next(&body, &have);
  EXPECT_EQ(StatusCode::kDataLoss, status.code());
  // Sticky: there is no resynchronizing inside a length-prefixed stream.
  status = reader.Next(&body, &have);
  EXPECT_EQ(StatusCode::kDataLoss, status.code());
  std::string valid;
  PutU32(&valid, 1);
  valid.push_back('\x01');
  EXPECT_EQ(StatusCode::kDataLoss,
            reader
                .Append(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(valid.data()),
                                                 valid.size()))
                .code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

TEST(IpcStreamTest, ZeroLengthFrameIsDataLoss) {
  StatusOr<IpcSocketPair> pair = CreateIpcSocketPair();
  ASSERT_TRUE(pair.ok());
  ASSERT_TRUE(SetNonBlocking(pair->coordinator_fd).ok());
  // A zero length word frames an empty body, which has no type byte.
  std::string zero;
  PutU32(&zero, 0);
  ASSERT_EQ(4, write(pair->worker_fd, zero.data(), zero.size()));
  FrameReader reader(kMaxIpcPayload);
  ASSERT_EQ(4, ReadInto(pair->coordinator_fd, reader));

  std::string body = "stale";
  bool have = false;
  ASSERT_TRUE(reader.Next(&body, &have).ok());
  ASSERT_TRUE(have);
  EXPECT_TRUE(body.empty());
  EXPECT_EQ(StatusCode::kDataLoss, SplitIpcFrame(body).status().code());
  close(pair->coordinator_fd);
  close(pair->worker_fd);
}

}  // namespace
}  // namespace pad
