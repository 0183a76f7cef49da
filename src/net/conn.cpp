#include "net/conn.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <utility>

#include "common/log.h"

namespace sj::net {

namespace {

/// Writes as much of the queue as the socket accepts; returns the bytes
/// written. Throws IoError on a dead socket.
usize flush_writes(WireConn& c) {
  usize written = 0;
  while (!c.outq.empty()) {
    const std::vector<u8>& buf = c.outq.front();
    const i64 n = write_some(c.fd.get(), buf.data() + c.out_off, buf.size() - c.out_off);
    if (n < 0) break;  // would block; EPOLLOUT will resume
    written += static_cast<usize>(n);
    c.out_off += static_cast<usize>(n);
    if (c.out_off == buf.size()) {
      c.outq.pop_front();
      c.out_off = 0;
    }
  }
  return written;
}

/// Re-arms epoll to match the connection's intent. A paused connection
/// watches nothing but errors (and writes while its queue drains), so a
/// peer's half-close cannot spin the level-triggered loop.
void update_events(EventLoop& loop, WireConn& c) {
  const u32 want = (c.reading && !c.closing ? EPOLLIN | EPOLLRDHUP : 0u) |
                   (c.outq.empty() ? 0u : EPOLLOUT);
  if (want == c.armed || !loop.watching(c.fd.get())) return;
  loop.mod_fd(c.fd.get(), want);
  c.armed = want;
}

}  // namespace

usize queue_frame(EventLoop& loop, WireConn& c, std::vector<u8> frame) {
  c.outq.push_back(std::move(frame));
  const usize written = flush_writes(c);
  update_events(loop, c);
  return written;
}

void close_socket(EventLoop& loop, WireConn& c) {
  loop.del_fd(c.fd.get());
  c.fd.reset();
  c.closing = true;
}

WireServer::WireServer(obs::Registry& registry, std::string prefix, u16 port,
                       usize conn_pending_limit, FrameHandler on_frame)
    : prefix_(std::move(prefix)),
      limit_(conn_pending_limit),
      on_frame_(std::move(on_frame)) {
  accepted_ = &registry.counter(prefix_ + ".accepted");
  closed_ = &registry.counter(prefix_ + ".closed");
  frames_in_ = &registry.counter(prefix_ + ".frames_in");
  frames_out_ = &registry.counter(prefix_ + ".frames_out");
  bytes_in_ = &registry.counter(prefix_ + ".bytes_in");
  bytes_out_ = &registry.counter(prefix_ + ".bytes_out");
  protocol_errors_ = &registry.counter(prefix_ + ".protocol_errors");
  backpressure_pauses_ = &registry.counter(prefix_ + ".backpressure_pauses");
  connections_ = &registry.gauge(prefix_ + ".connections");
  inflight_gauge_ = &registry.gauge(prefix_ + ".inflight");

  auto [fd, bound] = listen_tcp(port);
  listener_ = std::move(fd);
  port_ = bound;
  loop_.add_fd(listener_.get(), EPOLLIN, [this](u32) { on_accept(); });
}

void WireServer::begin_drain() {
  loop_.post([this] { start_drain(); });
}

WireConn* WireServer::find(u64 id) {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void WireServer::send(WireConn& c, MsgType type, u64 request_id,
                      const std::vector<u8>& payload) {
  if (!c.fd.valid()) return;  // closed: the answer has nowhere to go
  frames_out_->inc();
  try {
    bytes_out_->inc(static_cast<i64>(
        queue_frame(loop_, c, encode_frame(type, request_id, payload))));
  } catch (const IoError&) {
    close(c);
  }
}

void WireServer::send_error(WireConn& c, u64 request_id, ErrCode code,
                            const std::string& msg) {
  send(c, MsgType::kError, request_id, encode_error(code, msg));
}

void WireServer::admitted(WireConn& c) {
  c.inflight += 1;
  inflight_ += 1;
  inflight_gauge_->add(1);
  if (c.reading && c.inflight >= limit_) {
    c.reading = false;
    backpressure_pauses_->inc();
    update_events(loop_, c);
  }
}

void WireServer::settled(u64 conn_id) {
  inflight_ -= 1;
  inflight_gauge_->add(-1);
  if (WireConn* c = find(conn_id)) {
    c->inflight -= 1;
    if (!c->reading && !c->closing && c->inflight < limit_) {
      c->reading = true;
      update_events(loop_, *c);
      loop_.post([this, conn_id] { on_event(conn_id, EPOLLIN); });
    }
  }
  maybe_finish_drain();
}

bool WireServer::service(WireConn& c, u32 events, const FrameHandler& on_frame) {
  return io(c, events, on_frame, /*counted=*/false);
}

void WireServer::on_accept() {
  for (;;) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a raced-away connection): done for now
    set_nodelay(fd);
    auto c = std::make_shared<WireConn>();
    c->id = next_id_++;
    c->fd = Fd(fd);
    c->armed = EPOLLIN | EPOLLRDHUP;
    const u64 id = c->id;
    loop_.add_fd(fd, c->armed, [this, id](u32 ev) { on_event(id, ev); });
    conns_.emplace(id, std::move(c));
    accepted_->inc();
    connections_->set(static_cast<i64>(conns_.size()));
  }
}

void WireServer::on_event(u64 id, u32 events) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const std::shared_ptr<WireConn> c = it->second;
  try {
    if (!io(*c, events, on_frame_, /*counted=*/true) ||
        (c->closing && c->outq.empty())) {
      close(*c);
    }
  } catch (const WireError& e) {
    // Unparseable bytes: answer with a final error frame and close once it
    // flushes.
    protocol_errors_->inc();
    send_error(*c, 0, ErrCode::kBadFrame, e.what());
    c->closing = true;
    if (c->outq.empty()) {
      close(*c);
    } else {
      update_events(loop_, *c);
    }
  } catch (const Error& e) {
    SJ_WARN(prefix_ << ": connection " << id << " dropped: " << e.what());
    close(*c);
  }
  maybe_finish_drain();
}

bool WireServer::io(WireConn& c, u32 events, const FrameHandler& on_frame,
                    bool counted) {
  if (events & (EPOLLERR | EPOLLHUP)) return false;
  if (events & EPOLLOUT) {
    const usize n = flush_writes(c);
    if (counted) bytes_out_->inc(static_cast<i64>(n));
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) && !pump(c, on_frame, counted)) return false;
  update_events(loop_, c);
  return true;
}

bool WireServer::pump(WireConn& c, const FrameHandler& on_frame, bool counted) {
  u8 buf[64 * 1024];
  for (;;) {
    while (c.reading && !c.closing) {
      const std::optional<Frame> f = c.reader.next();
      if (!f.has_value()) break;
      if (counted) frames_in_->inc();
      on_frame(c, *f);
    }
    if (!c.reading || c.closing) return true;
    const i64 n = read_some(c.fd.get(), buf, sizeof(buf));
    if (n < 0) return true;    // would block
    if (n == 0) return false;  // orderly EOF
    if (counted) bytes_in_->inc(n);
    c.reader.feed(buf, static_cast<usize>(n));
  }
}

void WireServer::close(WireConn& c) {
  if (!c.fd.valid()) return;
  close_socket(loop_, c);
  closed_->inc();
  const u64 id = c.id;
  conns_.erase(id);  // frees c unless a pump still holds it
  connections_->set(static_cast<i64>(conns_.size()));
  maybe_finish_drain();
}

void WireServer::start_drain() {
  if (draining_) return;
  draining_ = true;
  SJ_INFO(prefix_ << ": draining (" << conns_.size() << " connections, " << inflight_
                  << " in flight)");
  loop_.del_fd(listener_.get());
  listener_.reset();
  maybe_finish_drain();
}

void WireServer::maybe_finish_drain() {
  if (!draining_ || inflight_ != 0) return;
  for (const auto& [id, c] : conns_) {
    if (!c->outq.empty()) return;  // an answer is still flushing
  }
  // Close every connection before stopping: after run() returns no socket
  // remains, exactly as if the process had exited. That is what lets a
  // router detect an in-process backend drain the same way it detects a
  // process death (EOF on its persistent connection).
  for (const auto& [id, c] : conns_) close_socket(loop_, *c);
  closed_->inc(static_cast<i64>(conns_.size()));
  conns_.clear();
  connections_->set(0);
  loop_.stop();
}

}  // namespace sj::net
