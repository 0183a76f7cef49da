// Multi-process request router (ISSUE 10 tentpole, part 3): one process that
// speaks the same wire protocol as shenjing_serverd on both sides. Clients
// connect to the router exactly as they would to a single server; the router
// spreads their submits across N backend servers by model key + observed
// load, and pipes responses back under the original request ids.
//
//   clients ──► Router (epoll loop) ──► backend 0 (shenjing_serverd)
//                  │      ▲        └──► backend 1 ...
//                  │      └── responses matched by rewritten request id
//                  └── health timer: kPing + kMetrics per backend
//
// Routing: a kSubmit/kSubmitBatch names a model key (first 8 payload bytes);
// the router picks the healthy, accepting backend that serves the key with
// the lowest observed load — serve.queue_depth + serve.in_flight pulled from
// the backend's metrics_json on the health timer, plus the router's own live
// count of in-flight routes (the between-polls correction). The payload is
// forwarded verbatim under a fresh router-global request id; the response
// comes back under the client's original id. No healthy backend serves the
// key → kNoBackend.
//
// Failover: backend connections are nonblocking and retried forever on a
// timer (retry-on-connect-failure); a backend that dies answers every route
// still on it with kBackendLost — clients retry, the router does not (the
// frame may have executed: replay is the client's idempotency call).
//
// Drain awareness, both directions: a backend whose pong says
// accepting=false stops receiving NEW submits but keeps its in-flight routes
// until they answer (exactly how shenjing_serverd drains). The router's own
// begin_drain() mirrors the server's: stop accepting connections, answer new
// submits with kDraining, finish every route, flush, exit.
//
// kSwapWeights fans out to EVERY backend serving the key (a fleet must not
// serve two weight versions); the client gets ok only when all succeeded.
//
// The client side is a WireServer (net/conn.h), the same connection server
// the frontend holds, with the router.* counters; the backend links reuse its
// read pump. A client request is in flight from routing until its answer is
// queued: a backend's answer, kBackendLost when the backend dies, or the
// aggregate of a swap fan-out, which counts as one request. A client at
// RouterOptions::conn_pending_limit stops being read; whichever of those
// answers brings it below the limit resumes it, frames it had already sent
// first.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "json/json.h"
#include "net/conn.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace sj::net {

struct RouterOptions {
  /// 127.0.0.1 listen port for clients; 0 = ephemeral (see port()).
  u16 port = 0;
  /// Backend shenjing_serverd ports on 127.0.0.1.
  std::vector<u16> backend_ports;
  /// Health/load poll period (kPing + kMetrics per connected backend) —
  /// also the reconnect retry period for dead backends.
  double health_period_s = 0.25;
  /// Per-client-connection in-flight bound (same backpressure rule as
  /// FrontendOptions::conn_pending_limit).
  usize conn_pending_limit = 128;
};

class Router {
 public:
  explicit Router(RouterOptions options);
  ~Router();
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  u16 port() const { return wire_.port(); }
  /// Serves until a drain completes.
  void run() { wire_.run(); }
  /// Thread-safe graceful drain (SIGTERM handler in shenjing_router).
  void begin_drain() { wire_.begin_drain(); }

 private:
  /// One backend server: its (re)connection state, the health picture from
  /// the last poll, and the model directory learned from kInfoResult.
  struct Backend {
    usize index = 0;
    u16 backend_port = 0;
    std::shared_ptr<WireConn> conn;  // null while disconnected
    Fd connecting;                   // nonblocking connect in flight
    bool accepting = false;          // last pong's flag (drain awareness)
    bool saw_pong = false;           // a pong arrived on this connection
    i64 load = 0;                    // queue_depth + in_flight at last poll
    usize inflight = 0;              // live routes on this backend
    std::unordered_set<u64> model_keys;  // from kInfoResult
    bool routable() const { return conn != nullptr && saw_pong && accepting; }
  };

  /// A swap fanned out to several backends: the client answer aggregates.
  struct SwapFanout {
    usize remaining = 0;
    u32 worst_code = 0;  // first non-ok status wins the aggregate
    std::string message = "ok";
  };

  /// One forwarded request: rewritten id → where the answer goes back.
  struct Route {
    u64 client_conn = 0;
    u64 orig_id = 0;
    usize backend = 0;
    std::shared_ptr<SwapFanout> fanout;  // null for submits
  };

  void dispatch_client(WireConn& c, const Frame& f);
  void route_submit(WireConn& c, const Frame& f);
  void route_swap(WireConn& c, const Frame& f);
  /// Healthy+accepting backend serving `key` with the lowest load, or -1.
  int pick_backend(u64 key) const;
  void forward(Backend& b, WireConn& client, const Frame& f,
               std::shared_ptr<SwapFanout> fanout);
  /// Delivers a finished route's answer (a submit's verbatim, a swap's once
  /// its fan-out completes) and settles the client's request.
  void settle_route(const Route& r, const Frame& answer);

  void start_connect(Backend& b);
  void on_connecting(usize index, u32 events);
  void on_backend_event(usize index, u32 events);
  void dispatch_backend(Backend& b, const Frame& f);
  void backend_lost(Backend& b, const std::string& why);
  void poll_health();
  /// Sends a router-originated control request to a backend; the id carries
  /// kControlBit so responses never collide with forwarded routes.
  void send_control(Backend& b, MsgType type);
  void update_gauges();

  void answer_ping(WireConn& c, u64 request_id);
  json::Value info_json() const;
  json::Value metrics_json() const;

  static constexpr u64 kControlBit = 1ull << 63;

  const RouterOptions options_;
  obs::Registry registry_;
  WireServer wire_;
  u64 next_rid_ = 1;        // forwarded-request ids (kControlBit clear)
  u64 next_control_id_ = 1; // control ids (kControlBit set)
  std::vector<Backend> backends_;
  std::unordered_map<u64, Route> routes_;  // rid -> origin
  std::unordered_map<u64, usize> control_; // control id -> backend index

  obs::Counter* routed_ = nullptr;
  obs::Counter* answered_ = nullptr;
  obs::Counter* no_backend_ = nullptr;
  obs::Counter* lost_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
  obs::Gauge* routes_gauge_ = nullptr;
  obs::Gauge* healthy_gauge_ = nullptr;
};

}  // namespace sj::net
