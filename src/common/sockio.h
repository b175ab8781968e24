// Retrying socket I/O, shared by every socket path in the tree.
//
// Every place this repo touches a socket — the serving event loop
// (src/serve/ad_server.cc), the load generator (src/serve/load_gen.cc), and
// the multi-process IPC channels (src/common/ipc.cc and the coordinator's
// read loop in src/core/multiproc_engine.cc) — needs the same three facts
// handled correctly, every time:
//
//   * EINTR is not an error. Any signal (SIGCHLD from a reaped worker, a
//     profiler's SIGPROF) can interrupt a blocked or even a ready syscall;
//     the only correct response is to retry.
//   * send() may be short. A full socket buffer takes a prefix and returns;
//     the remainder must be resubmitted (blocking paths) or parked for
//     EPOLLOUT (nonblocking paths) — never dropped.
//   * a dead peer is a result, not a crash. MSG_NOSIGNAL everywhere, so
//     EPIPE/ECONNRESET surface as return values instead of a process-wide
//     SIGPIPE.
//
// Before this header each call site open-coded its own loop and they had
// drifted (the event loop's read path dropped EINTR on the floor). Now there
// is exactly one implementation of each discipline.
//
// Two layers:
//   * SendSome/ReadSome — one syscall's worth of progress, EINTR retried,
//     everything else (including EAGAIN) reported via errno exactly like the
//     raw syscall. For nonblocking fds inside an event loop.
//   * SendAll/ReadFully — blocking full-transfer loops built on the above,
//     returning pad::Status. For the load generator's and IPC's blocking
//     sockets.
#ifndef ADPAD_SRC_COMMON_SOCKIO_H_
#define ADPAD_SRC_COMMON_SOCKIO_H_

#include <sys/types.h>

#include <cstddef>

#include "src/common/status.h"

namespace pad {

// send(fd, data, len, MSG_NOSIGNAL) retrying EINTR. Returns the syscall's
// result: >= 0 bytes accepted (possibly short), or -1 with errno set
// (EAGAIN/EWOULDBLOCK when a nonblocking socket is full).
ssize_t SendSome(int fd, const void* data, size_t len);

// read(fd, data, len) retrying EINTR. Returns >= 0 (0 is EOF), or -1 with
// errno set.
ssize_t ReadSome(int fd, void* data, size_t len);

// Writes all `len` bytes to a blocking socket, retrying EINTR and short
// writes. kUnavailable("peer closed") on EPIPE/ECONNRESET, kUnavailable
// naming errno otherwise.
Status SendAll(int fd, const void* data, size_t len);

// Reads exactly `len` bytes from a blocking socket, retrying EINTR and short
// reads. kUnavailable("peer closed") on EOF; `*bytes_read` reports progress
// either way, so callers can distinguish EOF-at-a-boundary from a torn tail.
Status ReadFully(int fd, void* data, size_t len, size_t* bytes_read);

}  // namespace pad

#endif  // ADPAD_SRC_COMMON_SOCKIO_H_
