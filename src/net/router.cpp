#include "net/router.h"

#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>

#include "common/log.h"
#include "common/string_util.h"

namespace sj::net {

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      wire_(registry_, "router", options_.port, options_.conn_pending_limit,
            [this](WireConn& c, const Frame& f) { dispatch_client(c, f); }) {
  SJ_REQUIRE(!options_.backend_ports.empty(), "router needs at least one backend");
  routed_ = &registry_.counter("router.routed");
  answered_ = &registry_.counter("router.answered");
  no_backend_ = &registry_.counter("router.no_backend");
  lost_ = &registry_.counter("router.backend_lost");
  reconnects_ = &registry_.counter("router.reconnects");
  routes_gauge_ = &registry_.gauge("router.routes");
  healthy_gauge_ = &registry_.gauge("router.backends_healthy");

  backends_.resize(options_.backend_ports.size());
  for (usize i = 0; i < backends_.size(); ++i) {
    backends_[i].index = i;
    backends_[i].backend_port = options_.backend_ports[i];
  }

  // First connect attempts happen on the first timer tick; fire an initial
  // round immediately so a co-started fleet links up without waiting.
  wire_.loop().post([this] { poll_health(); });
  wire_.loop().add_timer(options_.health_period_s, [this] { poll_health(); });
}

Router::~Router() = default;

// ---------------------------------------------------------------------------
// Client side.

void Router::dispatch_client(WireConn& c, const Frame& f) {
  switch (f.type()) {
    case MsgType::kSubmit:
    case MsgType::kSubmitBatch:
      route_submit(c, f);
      return;
    case MsgType::kSwapWeights:
      route_swap(c, f);
      return;
    case MsgType::kPing:
      answer_ping(c, f.header.request_id);
      return;
    case MsgType::kMetrics:
      wire_.send(c, MsgType::kMetricsResult, f.header.request_id,
                 encode_string(metrics_json().dump()));
      return;
    case MsgType::kInfo:
      wire_.send(c, MsgType::kInfoResult, f.header.request_id,
                 encode_string(info_json().dump()));
      return;
    default:
      wire_.send_error(c, f.header.request_id, ErrCode::kUnknownType,
                       strprintf("router does not handle type %u", f.header.type));
      return;
  }
}

void Router::route_submit(WireConn& c, const Frame& f) {
  if (wire_.draining()) {
    wire_.send_error(c, f.header.request_id, ErrCode::kDraining, "router draining");
    return;
  }
  if (f.payload.size() < 8) {
    throw WireError("submit payload shorter than a model key", __FILE__, __LINE__);
  }
  WireReader r(f.payload.data(), 8);
  const u64 key = r.u64v();
  const int pick = pick_backend(key);
  if (pick < 0) {
    no_backend_->inc();
    wire_.send_error(c, f.header.request_id, ErrCode::kNoBackend,
                     strprintf("no healthy backend serves model %016llx",
                               static_cast<unsigned long long>(key)));
    return;
  }
  wire_.admitted(c);
  routed_->inc();
  forward(backends_[static_cast<usize>(pick)], c, f, nullptr);
}

void Router::route_swap(WireConn& c, const Frame& f) {
  if (wire_.draining()) {
    wire_.send_error(c, f.header.request_id, ErrCode::kDraining, "router draining");
    return;
  }
  if (f.payload.size() < 8) {
    throw WireError("swap payload shorter than a model key", __FILE__, __LINE__);
  }
  WireReader r(f.payload.data(), 8);
  const u64 key = r.u64v();
  std::vector<usize> targets;
  for (const Backend& b : backends_) {
    // Weight consistency beats drain politeness here: every backend with
    // the key gets the swap, draining or not (conn != null is the only gate).
    if (b.conn != nullptr && b.saw_pong && b.model_keys.count(key) != 0) {
      targets.push_back(b.index);
    }
  }
  if (targets.empty()) {
    no_backend_->inc();
    wire_.send_error(c, f.header.request_id, ErrCode::kNoBackend,
                     strprintf("no backend serves model %016llx",
                               static_cast<unsigned long long>(key)));
    return;
  }
  auto fanout = std::make_shared<SwapFanout>();
  fanout->remaining = targets.size();
  wire_.admitted(c);  // the whole fan-out is one request of the client's
  for (const usize t : targets) forward(backends_[t], c, f, fanout);
}

int Router::pick_backend(u64 key) const {
  int best = -1;
  i64 best_score = 0;
  for (const Backend& b : backends_) {
    if (!b.routable() || b.model_keys.count(key) == 0) continue;
    // Last-poll load plus the routes this router put there since: the poll
    // is a lagging view, the live inflight count is the correction term.
    const i64 score = b.load + static_cast<i64>(b.inflight);
    if (best < 0 || score < best_score) {
      best = static_cast<int>(b.index);
      best_score = score;
    }
  }
  return best;
}

void Router::forward(Backend& b, WireConn& client, const Frame& f,
                     std::shared_ptr<SwapFanout> fanout) {
  const u64 rid = next_rid_++;
  routes_.emplace(rid, Route{client.id, f.header.request_id, b.index, std::move(fanout)});
  b.inflight += 1;
  routes_gauge_->set(static_cast<i64>(routes_.size()));
  try {
    queue_frame(wire_.loop(), *b.conn, encode_frame(f.type(), rid, f.payload));
  } catch (const Error& e) {
    backend_lost(b, e.what());  // settles the just-registered route too
  }
}

void Router::settle_route(const Route& r, const Frame& answer) {
  WireConn* client = wire_.find(r.client_conn);
  if (r.fanout == nullptr) {
    // Forward the backend's payload verbatim under the original id.
    if (client != nullptr) wire_.send(*client, answer.type(), r.orig_id, answer.payload);
  } else {
    SwapFanout& fo = *r.fanout;
    u32 code = 0;
    std::string message = "ok";
    if (answer.type() == MsgType::kSwapResult) {
      const StatusMsg s = decode_status(answer);
      code = s.code;
      message = s.message;
    } else if (answer.type() == MsgType::kError) {
      const ErrorMsg e = decode_error(answer);
      code = static_cast<u32>(e.code);
      message = e.message;
    }
    if (code != 0 && fo.worst_code == 0) {
      fo.worst_code = code;
      fo.message = message;
    }
    fo.remaining -= 1;
    if (fo.remaining != 0) return;
    if (client != nullptr) {
      wire_.send(*client, MsgType::kSwapResult, r.orig_id,
                 encode_status(fo.worst_code, fo.message));
    }
  }
  wire_.settled(r.client_conn);
}

// ---------------------------------------------------------------------------
// Backend side.

void Router::start_connect(Backend& b) {
  try {
    b.connecting = connect_tcp_nonblocking("127.0.0.1", b.backend_port);
  } catch (const IoError&) {
    return;  // next health tick retries
  }
  const usize index = b.index;
  wire_.loop().add_fd(b.connecting.get(), EPOLLOUT,
                      [this, index](u32 ev) { on_connecting(index, ev); });
}

void Router::on_connecting(usize index, u32 events) {
  Backend& b = backends_[index];
  if (!b.connecting.valid()) return;
  wire_.loop().del_fd(b.connecting.get());
  if ((events & (EPOLLERR | EPOLLHUP)) || connect_result(b.connecting.get()) != 0) {
    b.connecting.reset();  // refused (backend not up yet); retry on the timer
    return;
  }
  set_nodelay(b.connecting.get());
  b.conn = std::make_shared<WireConn>();
  b.conn->id = b.index;
  b.conn->fd = std::move(b.connecting);
  b.conn->armed = EPOLLIN | EPOLLRDHUP;
  wire_.loop().add_fd(b.conn->fd.get(), b.conn->armed,
                      [this, index](u32 ev) { on_backend_event(index, ev); });
  reconnects_->inc();
  SJ_INFO("router: backend " << index << " connected (port " << b.backend_port << ")");
  // Learn the model directory and health before routing anything there.
  send_control(b, MsgType::kInfo);
  send_control(b, MsgType::kPing);
  send_control(b, MsgType::kMetrics);
}

void Router::on_backend_event(usize index, u32 events) {
  Backend& b = backends_[index];
  const std::shared_ptr<WireConn> c = b.conn;  // outlives a loss mid-pump
  if (c == nullptr) return;
  try {
    if (!wire_.service(*c, events,
                       [this, &b](WireConn&, const Frame& f) { dispatch_backend(b, f); })) {
      backend_lost(b, "closed the connection");
    }
  } catch (const Error& e) {
    backend_lost(b, e.what());
  }
}

void Router::dispatch_backend(Backend& b, const Frame& f) {
  const u64 id = f.header.request_id;
  if ((id & kControlBit) != 0) {
    const auto cit = control_.find(id);
    if (cit == control_.end()) return;  // stale (pre-reconnect) control answer
    control_.erase(cit);
    switch (f.type()) {
      case MsgType::kPong: {
        const PongInfo p = decode_pong(f);
        b.saw_pong = true;
        b.accepting = p.accepting;
        break;
      }
      case MsgType::kInfoResult: {
        const json::Value info = json::parse(decode_string(f));
        b.model_keys.clear();
        for (const json::Value& m : info.at("models").as_array()) {
          b.model_keys.insert(
              std::strtoull(m.at("key").as_string().c_str(), nullptr, 16));
        }
        break;
      }
      case MsgType::kMetricsResult: {
        const json::Value doc = json::parse(decode_string(f));
        const json::Value& gauges = doc.at("metrics").at("gauges");
        i64 load = 0;
        if (gauges.contains("serve.queue_depth")) {
          load += gauges.at("serve.queue_depth").as_int();
        }
        if (gauges.contains("serve.in_flight")) {
          load += gauges.at("serve.in_flight").as_int();
        }
        b.load = load;
        break;
      }
      default:
        break;
    }
    update_gauges();
    return;
  }

  const auto rit = routes_.find(id);
  if (rit == routes_.end()) return;  // an id this router is not waiting on
  const Route route = rit->second;
  routes_.erase(rit);
  b.inflight -= 1;
  answered_->inc();
  update_gauges();
  settle_route(route, f);
}

void Router::backend_lost(Backend& b, const std::string& why) {
  if (b.conn == nullptr) return;
  SJ_WARN("router: backend " << b.index << " lost: " << why);
  close_socket(wire_.loop(), *b.conn);
  b.conn.reset();
  b.saw_pong = false;
  b.accepting = false;
  b.load = 0;
  b.inflight = 0;
  // Drop this backend's outstanding control requests.
  for (auto it = control_.begin(); it != control_.end();) {
    it = it->second == b.index ? control_.erase(it) : std::next(it);
  }
  // Every route on this backend fails back to its client: the frame may or
  // may not have executed, so the only honest answer is kBackendLost.
  std::vector<Route> dead;
  for (auto it = routes_.begin(); it != routes_.end();) {
    if (it->second.backend == b.index) {
      dead.push_back(std::move(it->second));
      it = routes_.erase(it);
    } else {
      ++it;
    }
  }
  lost_->inc(static_cast<i64>(dead.size()));
  update_gauges();
  Frame lost;
  lost.header.type = static_cast<u16>(MsgType::kError);
  lost.payload = encode_error(ErrCode::kBackendLost, "backend lost with request in flight: " + why);
  for (const Route& r : dead) settle_route(r, lost);
}

void Router::poll_health() {
  for (Backend& b : backends_) {
    if (b.conn == nullptr) {
      if (!b.connecting.valid() && !wire_.draining()) start_connect(b);
      continue;
    }
    try {
      send_control(b, MsgType::kPing);
      send_control(b, MsgType::kMetrics);
      // Models can appear (load_model) or swap at runtime; refresh the
      // directory at health cadence too — it is a tiny JSON document.
      send_control(b, MsgType::kInfo);
    } catch (const Error& e) {
      backend_lost(b, e.what());  // the health write IS the liveness probe
    }
  }
}

void Router::send_control(Backend& b, MsgType type) {
  const u64 id = kControlBit | next_control_id_++;
  control_.emplace(id, b.index);
  queue_frame(wire_.loop(), *b.conn, encode_frame(type, id, {}));
}

void Router::update_gauges() {
  routes_gauge_->set(static_cast<i64>(routes_.size()));
  i64 healthy = 0;
  for (const Backend& be : backends_) healthy += be.routable() ? 1 : 0;
  healthy_gauge_->set(healthy);
}

// ---------------------------------------------------------------------------
// Local answers + shared plumbing.

void Router::answer_ping(WireConn& c, u64 request_id) {
  PongInfo p;
  p.accepting = !wire_.draining();
  p.pending = static_cast<u32>(routes_.size());
  std::unordered_set<u64> keys;
  for (const Backend& b : backends_) {
    for (const u64 k : b.model_keys) keys.insert(k);
  }
  p.models = static_cast<u32>(keys.size());
  wire_.send(c, MsgType::kPong, request_id, encode_pong(p));
}

json::Value Router::info_json() const {
  // Union of the backends' directories, deduped by key.
  json::Value root;
  root.set("version", static_cast<i64>(kWireVersion));
  root.set("accepting", !wire_.draining());
  root.set("router", true);
  json::Array models;
  std::unordered_set<u64> seen;
  for (const Backend& b : backends_) {
    for (const u64 k : b.model_keys) {
      if (!seen.insert(k).second) continue;
      json::Value m;
      m.set("key", strprintf("%016llx", static_cast<unsigned long long>(k)));
      models.push_back(std::move(m));
    }
  }
  root.set("models", std::move(models));
  return root;
}

json::Value Router::metrics_json() const {
  json::Value root;
  root.set("metrics", registry_.to_json());
  json::Array bs;
  for (const Backend& b : backends_) {
    json::Value v;
    v.set("port", static_cast<i64>(b.backend_port));
    v.set("connected", b.conn != nullptr);
    v.set("accepting", b.accepting);
    v.set("load", b.load);
    v.set("inflight", static_cast<i64>(b.inflight));
    v.set("models", static_cast<i64>(b.model_keys.size()));
    bs.push_back(std::move(v));
  }
  root.set("backends", std::move(bs));
  return root;
}

}  // namespace sj::net
