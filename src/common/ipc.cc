#include "src/common/ipc.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/bytes.h"
#include "src/common/frame_reader.h"
#include "src/common/sockio.h"

namespace pad {
namespace {

Status ErrnoStatus(const char* what) {
  return Status::Unavailable(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

StatusOr<IpcSocketPair> CreateIpcSocketPair() {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return ErrnoStatus("socketpair");
  }
  return IpcSocketPair{fds[0], fds[1]};
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoStatus("fcntl(O_NONBLOCK)");
  }
  return Status::Ok();
}

Status SendIpcFrame(int fd, uint8_t type, std::string_view payload) {
  if (payload.size() + 1 > kMaxIpcPayload) {
    return Status::InvalidArgument("ipc frame payload exceeds kMaxIpcPayload");
  }
  std::string frame;
  frame.reserve(kFrameHeaderBytes + 1 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(1 + payload.size()));
  PutU8(&frame, type);
  frame.append(payload);

  // SendAll (src/common/sockio.h) retries EINTR and short writes and turns a
  // dead peer into a Status the coordinator's reap path can handle, never a
  // SIGPIPE.
  return SendAll(fd, frame.data(), frame.size());
}

StatusOr<IpcMessage> SplitIpcFrame(std::string_view body) {
  if (body.empty()) {
    return Status::DataLoss("empty ipc frame: no type byte");
  }
  IpcMessage message;
  message.type = static_cast<uint8_t>(body[0]);
  message.payload = body.substr(1);
  return message;
}

StatusOr<IpcMessage> RecvIpcFrame(int fd, uint32_t max_payload) {
  char header[kFrameHeaderBytes];
  size_t got = 0;
  PAD_RETURN_IF_ERROR(ReadFully(fd, header, sizeof(header), &got));
  const uint32_t length = ByteReader(std::string_view(header, sizeof(header))).GetU32();
  if (length > max_payload) {
    return Status::DataLoss("ipc frame length " + std::to_string(length) + " exceeds " +
                            std::to_string(max_payload));
  }
  std::string body(length, '\0');
  PAD_RETURN_IF_ERROR(ReadFully(fd, body.data(), body.size(), &got));
  return SplitIpcFrame(body);
}

}  // namespace pad
