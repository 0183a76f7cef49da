// Thin POSIX socket layer for the net tier: an RAII fd, nonblocking TCP
// listen/connect, and EAGAIN-aware read/write helpers. Everything here is
// mechanism; policy (framing, backpressure, drain) lives in the connection
// server (WireServer, net/conn.h) and the blocking Client.
#pragma once

#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "common/types.h"

namespace sj::net {

/// Owning file descriptor. Move-only; close on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Sets O_NONBLOCK. Throws IoError.
void set_nonblocking(int fd);
/// Disables Nagle (TCP_NODELAY) — request/response frames must not wait for
/// a coalescing timer. Best-effort (non-TCP fds ignore it).
void set_nodelay(int fd);

/// Listens on 127.0.0.1:`port` (0 = ephemeral). Returns the listening fd
/// (nonblocking, SO_REUSEADDR) and the actually bound port.
std::pair<Fd, u16> listen_tcp(u16 port, int backlog = 128);

/// Blocking connect to host:port. Throws IoError on failure (callers that
/// want retry-on-connect-failure catch it). The returned fd is blocking;
/// event-loop users switch it with set_nonblocking.
Fd connect_tcp(const std::string& host, u16 port);

/// Nonblocking connect: returns the fd immediately; completion (or failure)
/// is reported by the event loop via EPOLLOUT + SO_ERROR. Used by the
/// router's backend reconnect path, which must never stall the loop.
Fd connect_tcp_nonblocking(const std::string& host, u16 port);
/// After EPOLLOUT on a connecting socket: 0 = established, else errno.
int connect_result(int fd);

/// One nonblocking read. Returns bytes read (>0), 0 on orderly EOF, -1 when
/// the socket would block. Throws IoError on hard errors (ECONNRESET is
/// reported as EOF: a vanished peer is a normal event for a server).
i64 read_some(int fd, void* buf, usize n);
/// One nonblocking write; bytes written, or -1 when the socket would block.
/// Throws IoError on hard errors (EPIPE included — callers treat it as a
/// dead connection via catch).
i64 write_some(int fd, const void* buf, usize n);

/// Blocking exact-count helpers for the simple Client.
void write_all(int fd, const void* buf, usize n);
/// Reads exactly n bytes; false on clean EOF at a frame boundary (0 bytes
/// read so far), throws IoError on mid-buffer EOF or errors.
bool read_exact(int fd, void* buf, usize n);

}  // namespace sj::net
