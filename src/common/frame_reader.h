// The one incremental reader of length-prefixed frames:
//
//   [u32 length (LE)] [length bytes of body]
//
// Both framed streams in the tree read through it: serving connections
// (src/serve/wire.h; the body is a wire payload) and the multi-process
// engine's coordinator<->worker channels (src/common/ipc.h; the body is a
// type byte plus payload). The body's meaning belongs to its decoder; this
// reader only cuts the stream into bodies.
#ifndef ADPAD_SRC_COMMON_FRAME_READER_H_
#define ADPAD_SRC_COMMON_FRAME_READER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/common/status.h"

namespace pad {

inline constexpr size_t kFrameHeaderBytes = 4;  // The u32 length prefix.

// Frames longer than this are rejected at the length prefix, before any
// allocation: a corrupt or hostile length word must not become a 4 GiB
// buffer. Far above any legal serving message (a maximal response is
// < 64 KiB); IPC channels pass their own limit.
inline constexpr size_t kMaxFramePayload = 64 * 1024;

// Incremental frame assembly for a nonblocking socket: feed whatever bytes
// arrived, pop complete bodies. A declared length above `max_payload`
// poisons the reader permanently with kDataLoss (the stream is garbage from
// that point on; resynchronizing inside a length-prefixed stream is
// guesswork) — every later call returns the same error.
class FrameReader {
 public:
  explicit FrameReader(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  // Buffers `data`. Only fails once the reader is poisoned.
  Status Append(std::span<const uint8_t> data);

  // Pops the next complete body into `*payload` and sets `*have = true`,
  // or sets `*have = false` when more bytes are needed. Fails (and poisons)
  // on an oversized length prefix.
  Status Next(std::string* payload, bool* have);

  // Bytes buffered but not yet returned (partial frame).
  size_t pending_bytes() const { return buffer_.size() - consumed_; }

  // Whether Next() would make progress right now — a complete frame is
  // buffered, or the reader is (or is about to be) poisoned. False means
  // only "more bytes needed". Lets a caller that paused decoding (read
  // backpressure) know to resume without popping anything.
  bool HasFrame() const;

 private:
  size_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already handed out.
  Status poison_;        // First fatal framing error, sticky.
};

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_FRAME_READER_H_
