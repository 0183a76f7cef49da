// The wire tier's one connection server. Frontend (in front of a
// serve::Server) and Router (in front of backend servers) each hold a
// WireServer and keep only their policy; the connection code is written once,
// here:
//
//   - the listener (127.0.0.1, bound at construction) and its accept loop;
//   - the id -> WireConn table. Completions address a connection by id, so
//     the answers of a connection that closed while its requests ran are
//     dropped, never written to a reused socket;
//   - the read pump: read_some -> FrameReader::feed -> next() -> the owner's
//     frame handler, one frame at a time, stopping the moment the connection
//     pauses or closes. service() runs the same pump (and flush) on sockets
//     the server did not accept: the router's backend links;
//   - send / send_error, close, and the kBadFrame answer + close on bytes
//     that do not parse (a byte stream cannot be resynchronized);
//   - in-flight backpressure. The owner calls admitted() for each request it
//     takes and settled() once that request's answer is queued (or its
//     connection is gone). Reads pause at conn_pending_limit requests in
//     flight, and the kernel's socket buffers then push back on the peer.
//     Below the limit reads resume, and the frames already buffered in the
//     connection's FrameReader resume too: a level-triggered loop never
//     reports them again once the socket is empty, so settled() posts the
//     pump to the loop. Posted, not run inline: the caller may be inside
//     another connection's pump (a router forwarding a backend's answer);
//   - the drain: begin_drain() stops accepting; open connections keep being
//     read (pings see the drain, new requests get the owner's kDraining).
//     Once nothing is in flight and every write queue has flushed, every
//     connection is closed and the loop stops, so run() returns. No
//     admitted request is dropped;
//   - the counters, registered under the owner's prefix: <prefix>.accepted,
//     closed, frames_in, frames_out, bytes_in, bytes_out, protocol_errors,
//     backpressure_pauses, and the gauges <prefix>.connections, inflight.
//     Traffic on service()d sockets is not counted.
//
// Threading: everything runs on the loop thread except begin_drain() and
// loop().post(), which any thread may call.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/event_loop.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace sj::net {

struct WireConn {
  u64 id = 0;
  Fd fd;                             // invalid once closed
  FrameReader reader;
  std::deque<std::vector<u8>> outq;  // pending writes, front partially sent
  usize out_off = 0;                 // bytes of outq.front() already written
  usize inflight = 0;                // requests admitted, not yet settled
  bool reading = true;               // false = paused (backpressure)
  bool closing = false;              // close once outq flushes; set by close
  u32 armed = 0;                     // events currently registered with epoll
};

/// Queues an encoded frame on `c` and writes what the socket takes now.
/// Returns the bytes written; throws IoError on a dead socket.
usize queue_frame(EventLoop& loop, WireConn& c, std::vector<u8> frame);

/// Unregisters and closes `c`'s socket. `c.closing` stops a pump that is
/// still running on it.
void close_socket(EventLoop& loop, WireConn& c);

class WireServer {
 public:
  using FrameHandler = std::function<void(WireConn&, const Frame&)>;

  /// Binds and listens on 127.0.0.1:`port` (0 = ephemeral) immediately.
  WireServer(obs::Registry& registry, std::string prefix, u16 port,
             usize conn_pending_limit, FrameHandler on_frame);
  WireServer(const WireServer&) = delete;
  WireServer& operator=(const WireServer&) = delete;

  EventLoop& loop() { return loop_; }
  u16 port() const { return port_; }
  bool draining() const { return draining_; }

  /// Serves until a drain completes.
  void run() { loop_.run(); }
  /// Thread-safe: starts the drain on the loop thread.
  void begin_drain();

  /// The open connection `id`, or null once it closed.
  WireConn* find(u64 id);
  /// Queues a frame; a dead socket closes the connection. A closed
  /// connection drops it.
  void send(WireConn& c, MsgType type, u64 request_id, const std::vector<u8>& payload);
  void send_error(WireConn& c, u64 request_id, ErrCode code, const std::string& msg);

  /// One request taken on `c`: pauses reads at the in-flight limit.
  void admitted(WireConn& c);
  /// One request of connection `conn_id` settled (answer queued, or the
  /// connection is gone): resumes a paused connection below the limit.
  void settled(u64 conn_id);

  /// Services an epoll event on a socket this server did not accept: flush on
  /// EPOLLOUT, read pump on EPOLLIN. Returns false once the peer is gone;
  /// throws what the pump or `on_frame` throws.
  bool service(WireConn& c, u32 events, const FrameHandler& on_frame);

 private:
  void on_accept();
  void on_event(u64 id, u32 events);
  bool io(WireConn& c, u32 events, const FrameHandler& on_frame, bool counted);
  /// Dispatches buffered frames, then reads, until the connection pauses,
  /// closes or the socket would block. Returns false on orderly EOF.
  bool pump(WireConn& c, const FrameHandler& on_frame, bool counted);
  void close(WireConn& c);
  void start_drain();
  void maybe_finish_drain();

  EventLoop loop_;
  const std::string prefix_;
  const usize limit_;
  const FrameHandler on_frame_;
  Fd listener_;
  u16 port_ = 0;
  u64 next_id_ = 1;
  usize inflight_ = 0;  // admitted - settled, over every connection
  bool draining_ = false;
  // shared_ptr: a pump keeps its connection alive through a close that a
  // handler triggers.
  std::unordered_map<u64, std::shared_ptr<WireConn>> conns_;

  obs::Counter* accepted_ = nullptr;
  obs::Counter* closed_ = nullptr;
  obs::Counter* frames_in_ = nullptr;
  obs::Counter* frames_out_ = nullptr;
  obs::Counter* bytes_in_ = nullptr;
  obs::Counter* bytes_out_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  obs::Counter* backpressure_pauses_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
};

}  // namespace sj::net
