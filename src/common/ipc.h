// Length-prefixed message framing between coordinator and worker processes.
//
// The multi-process shard engine (src/core/multiproc_engine.h) hands market
// ids to forked workers and collects completion notices back over a
// socketpair. Every message on such a channel is one frame:
//
//   [u32 frame_length (LE)] [u8 type] [frame_length - 1 bytes of payload]
//
// The frame is the serving wire's frame (src/common/frame_reader.h) whose
// body starts with a type byte, and payloads are packed with the shared
// codec (src/common/bytes.h): integers little-endian, doubles as the LE
// bytes of their IEEE-754 bit pattern, strict decoding through ByteReader.
// These bytes cross a process boundary, so a short read, a torn frame, or a
// hostile length word is an expected input, never an abort: every decoder
// returns a pad::Status, a declared length above `max_payload` poisons the
// stream with kDataLoss (there is no way to resynchronize inside a
// length-prefixed stream), and an empty body is kDataLoss.
//
// Two read paths, matching the two sides of the pipe:
//   * RecvIpcFrame — blocking, for a worker whose only job is to wait for
//     the next assignment;
//   * FrameReader + SplitIpcFrame — incremental, for the coordinator's poll
//     loop over many nonblocking worker fds.
#ifndef ADPAD_SRC_COMMON_IPC_H_
#define ADPAD_SRC_COMMON_IPC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace pad {

// Frames longer than this are rejected at the length prefix, before any
// allocation. Far above any legal message (assignments and completion
// notices are tens of bytes). The coordinator's FrameReaders take it as
// their limit.
inline constexpr uint32_t kMaxIpcPayload = 1u << 20;

struct IpcMessage {
  uint8_t type = 0;
  std::string payload;
};

// A connected AF_UNIX stream pair. The coordinator keeps one end per worker;
// the worker inherits the other across fork.
struct IpcSocketPair {
  int coordinator_fd = -1;
  int worker_fd = -1;
};

// socketpair(AF_UNIX, SOCK_STREAM) with CLOEXEC on both ends.
StatusOr<IpcSocketPair> CreateIpcSocketPair();

// Puts the fd into nonblocking mode (the coordinator side of a channel).
Status SetNonBlocking(int fd);

// Writes one complete frame, retrying on EINTR and partial writes. Uses
// send(MSG_NOSIGNAL) so a peer that died mid-run surfaces as a Status
// (kUnavailable), never SIGPIPE.
Status SendIpcFrame(int fd, uint8_t type, std::string_view payload);

// Splits a frame body into its type byte and payload. An empty body (a
// zero length word) has no type byte: kDataLoss.
StatusOr<IpcMessage> SplitIpcFrame(std::string_view body);

// Blocking receive of one complete frame. kUnavailable with message
// "peer closed" marks clean EOF (the other end exited); any other
// kUnavailable is a transport error; kDataLoss is a hostile length word.
StatusOr<IpcMessage> RecvIpcFrame(int fd, uint32_t max_payload = kMaxIpcPayload);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_IPC_H_
