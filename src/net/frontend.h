// TCP front-end for serve::Server (ISSUE 10 tentpole / ROADMAP "wire-level
// serving tier"): the piece that turns the in-process async server into a
// network service a real client can reach.
//
//   client sockets ──► epoll EventLoop (one thread) ──► Server::try_submit
//                                 ▲                            │
//                                 │ eventfd (EventLoop::post)  │ worker threads
//                                 └──── completion hook ◄──────┘
//
// Threading: ONE network thread runs the loop; engine workers never touch a
// socket. A worker that finishes a request fires the serve::Server
// completion hook, which posts the cookie to the loop through the eventfd;
// the loop then reads the (ready) future, serializes the kResult/kError
// frame and writes it out. Admission uses Server::try_submit — nonblocking,
// so a full serve queue answers kBusy instead of stalling the loop.
//
// Connections, backpressure and drain belong to the WireServer (net/conn.h)
// the frontend holds; its counters are the net.* family. The frontend keeps
// the policy: admission and completions. A connection with
// FrontendOptions::conn_pending_limit admitted requests stops being read
// until completions settle it below the bound; the kernel socket buffer then
// pushes back on the client, the wire-level analogue of the server's bounded
// queue. When it resumes, the frames it had already sent are dispatched
// first.
//
// Drain (SIGTERM in shenjing_serverd, begin_drain() here): stop accepting
// new connections, answer pings with accepting=false (the router's drain
// awareness), reject new submits with kDraining, finish every in-flight
// request and flush every response, then run() returns. No request that was
// admitted is ever dropped.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "json/json.h"
#include "net/conn.h"
#include "net/wire.h"
#include "serve/server.h"

namespace sj::net {

struct FrontendOptions {
  /// 127.0.0.1 listen port; 0 = ephemeral (read the bound port from port()).
  u16 port = 0;
  /// Per-connection in-flight bound: reads pause at this many admitted
  /// requests without a queued response (wire backpressure).
  usize conn_pending_limit = 64;
  /// Handler for kSwapWeights frames: rebuild the model's weights for
  /// (key, seed) and call Server::swap_weights. Runs on the loop thread (a
  /// control-plane op; the donor compile skips lowering). Unset = swap
  /// requests answered with an error status.
  std::function<void(serve::ModelKey key, u64 seed)> swap_fn;
};

class Frontend {
 public:
  /// The server must outlive the frontend. Binds and listens immediately
  /// (port() is valid after construction); serving starts with run().
  Frontend(serve::Server& server, FrontendOptions options = {});
  ~Frontend();
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Adds a model to the kInfo directory (name + input shape). The key must
  /// already be loaded into the server.
  void register_model(serve::ModelKey key, std::string name, Shape input_shape);

  u16 port() const { return wire_.port(); }

  /// Serves until a drain completes. Call from the thread that owns the
  /// network (shenjing_serverd's main; a std::thread in tests).
  void run() { wire_.run(); }

  /// Thread- and signal-context-safe: starts the graceful drain. run()
  /// returns once every admitted request has been answered and flushed.
  void begin_drain() { wire_.begin_drain(); }

 private:
  struct PendingBatch {
    u64 request_id = 0;
    usize remaining = 0;
    std::vector<std::vector<u8>> entries;  // per-slot encoded results/errors
  };

  /// One admitted request awaiting its completion hook. Heap-allocated so
  /// `trace` stays put while the worker writes it (the map may rehash).
  struct Pending {
    u64 conn_id = 0;
    u64 request_id = 0;
    std::future<sim::FrameResult> future;
    serve::RequestTrace trace;
    std::shared_ptr<PendingBatch> batch;  // null for single submits
    u32 slot = 0;
  };

  struct ModelDir {
    std::string name;
    Shape input;
  };

  void dispatch(WireConn& c, const Frame& f);
  void handle_submit(WireConn& c, const Frame& f);
  void handle_submit_batch(WireConn& c, const Frame& f);
  void handle_swap(WireConn& c, const Frame& f);
  /// Admits one frame; returns the error to answer with, or nullopt on
  /// success. On success the Pending is registered under a fresh cookie.
  std::optional<ErrCode> admit(WireConn& c, serve::ModelKey key, Tensor frame,
                               u64 request_id, std::shared_ptr<PendingBatch> batch,
                               u32 slot, u64 t_frame_done_ns);
  void finish(u64 cookie);
  json::Value info_json() const;

  serve::Server& server_;
  const FrontendOptions options_;
  // net.* telemetry lives in the server's registry, so one metrics_json()
  // document covers process + wire (the router's load poll reads
  // serve.queue_depth from the same place).
  WireServer wire_;
  u64 next_cookie_ = 1;
  std::unordered_map<u64, std::unique_ptr<Pending>> pending_;
  std::vector<std::pair<serve::ModelKey, ModelDir>> models_;  // kInfo directory

  obs::Counter* busy_rejects_ = nullptr;
  obs::Histogram* accept_to_admit_us_ = nullptr;
};

}  // namespace sj::net
