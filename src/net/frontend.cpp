#include "net/frontend.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "obs/profile.h"

namespace sj::net {

namespace {

/// Microsecond delta between two trace stamps, saturating at u32.
u32 us_between(u64 a_ns, u64 b_ns) {
  if (b_ns <= a_ns) return 0;
  const u64 us = (b_ns - a_ns) / 1000;
  return us > 0xffffffffull ? 0xffffffffu : static_cast<u32>(us);
}

/// A failed batch slot: ok flag 0, the error code, its message.
std::vector<u8> error_entry(ErrCode code, const std::string& msg) {
  WireWriter w;
  w.u8v(0);
  w.u32v(static_cast<u32>(code));
  w.str(msg);
  return w.take();
}

/// The kBatchResult payload: the slot count, then every slot's entry.
std::vector<u8> batch_payload(const std::vector<std::vector<u8>>& entries) {
  WireWriter w;
  w.u32v(static_cast<u32>(entries.size()));
  for (const auto& e : entries) w.bytes(e.data(), e.size());
  return w.take();
}

}  // namespace

Frontend::Frontend(serve::Server& server, FrontendOptions options)
    : server_(server),
      options_(std::move(options)),
      wire_(server_.registry(), "net", options_.port, options_.conn_pending_limit,
            [this](WireConn& c, const Frame& f) { dispatch(c, f); }) {
  obs::Registry& reg = server_.registry();
  busy_rejects_ = &reg.counter("net.busy_rejects");
  accept_to_admit_us_ =
      &reg.histogram("net.accept_to_admit_us", obs::Registry::wire_bounds_us());
}

Frontend::~Frontend() = default;

void Frontend::register_model(serve::ModelKey key, std::string name, Shape input_shape) {
  models_.emplace_back(key, ModelDir{std::move(name), std::move(input_shape)});
}

void Frontend::dispatch(WireConn& c, const Frame& f) {
  switch (f.type()) {
    case MsgType::kSubmit:
      handle_submit(c, f);
      return;
    case MsgType::kSubmitBatch:
      handle_submit_batch(c, f);
      return;
    case MsgType::kPing: {
      PongInfo p;
      p.accepting = !wire_.draining() && server_.accepting();
      p.pending = static_cast<u32>(server_.pending());
      p.models = static_cast<u32>(models_.size());
      wire_.send(c, MsgType::kPong, f.header.request_id, encode_pong(p));
      return;
    }
    case MsgType::kMetrics:
      wire_.send(c, MsgType::kMetricsResult, f.header.request_id,
                 encode_string(server_.metrics_json().dump()));
      return;
    case MsgType::kInfo:
      wire_.send(c, MsgType::kInfoResult, f.header.request_id,
                 encode_string(info_json().dump()));
      return;
    case MsgType::kSwapWeights:
      handle_swap(c, f);
      return;
    default:
      wire_.send_error(c, f.header.request_id, ErrCode::kUnknownType,
                       strprintf("unhandled message type %u", f.header.type));
      return;
  }
}

std::optional<ErrCode> Frontend::admit(WireConn& c, serve::ModelKey key, Tensor frame,
                                       u64 request_id,
                                       std::shared_ptr<PendingBatch> batch, u32 slot,
                                       u64 t_frame_done_ns) {
  if (wire_.draining()) return ErrCode::kDraining;
  const bool known = std::any_of(models_.begin(), models_.end(),
                                 [key](const auto& m) { return m.first == key; });
  if (!known) return ErrCode::kUnknownModel;
  const u64 cookie = next_cookie_++;
  auto p = std::make_unique<Pending>();
  p->conn_id = c.id;
  p->request_id = request_id;
  p->batch = std::move(batch);
  p->slot = slot;
  std::optional<std::future<sim::FrameResult>> fut;
  try {
    // The hook runs on an engine worker thread: one post through the
    // eventfd, nothing else — the worker is back to serving immediately.
    fut = server_.try_submit(key, std::move(frame), &p->trace, [this, cookie] {
      wire_.loop().post([this, cookie] { finish(cookie); });
    });
  } catch (const Error&) {
    // Raced a shutdown (accepting flipped) — the wire answer is "draining".
    return ErrCode::kDraining;
  }
  if (!fut.has_value()) {
    busy_rejects_->inc();
    return ErrCode::kBusy;
  }
  accept_to_admit_us_->record(
      static_cast<i64>(us_between(t_frame_done_ns, obs::now_ns())));
  p->future = std::move(*fut);
  pending_.emplace(cookie, std::move(p));
  wire_.admitted(c);
  return std::nullopt;
}

void Frontend::handle_submit(WireConn& c, const Frame& f) {
  const u64 t0 = obs::now_ns();  // frame fully received & about to decode
  SubmitMsg m = decode_submit(f);  // WireError propagates: connection-fatal
  if (const auto err = admit(c, m.model_key, std::move(m.frame), f.header.request_id,
                             nullptr, 0, t0)) {
    wire_.send_error(c, f.header.request_id, *err, err_code_name(*err));
  }
}

void Frontend::handle_submit_batch(WireConn& c, const Frame& f) {
  const u64 t0 = obs::now_ns();
  SubmitBatchMsg m = decode_submit_batch(f);
  auto batch = std::make_shared<PendingBatch>();
  batch->request_id = f.header.request_id;
  batch->remaining = m.frames.size();
  batch->entries.resize(m.frames.size());
  // Per-frame admission (wire batches are not transactional: the admitted
  // prefix runs even if a later frame hits the bound — each slot reports
  // its own ok/error). Rejected slots settle immediately.
  for (u32 i = 0; i < m.frames.size(); ++i) {
    const auto err = admit(c, m.model_key, std::move(m.frames[i]),
                           f.header.request_id, batch, i, t0);
    if (err.has_value()) {
      batch->entries[i] = error_entry(*err, err_code_name(*err));
      batch->remaining -= 1;
    }
  }
  if (batch->remaining == 0) {
    // Empty, or everything rejected synchronously: answer now.
    wire_.send(c, MsgType::kBatchResult, f.header.request_id,
               batch_payload(batch->entries));
  }
}

void Frontend::handle_swap(WireConn& c, const Frame& f) {
  const SwapMsg m = decode_swap(f);
  if (!options_.swap_fn) {
    wire_.send(c, MsgType::kSwapResult, f.header.request_id,
               encode_status(static_cast<u32>(ErrCode::kUnknownType),
                             "weight swap not configured on this server"));
    return;
  }
  try {
    options_.swap_fn(m.model_key, m.seed);
    wire_.send(c, MsgType::kSwapResult, f.header.request_id, encode_status(0, "ok"));
  } catch (const Error& e) {
    wire_.send(c, MsgType::kSwapResult, f.header.request_id,
               encode_status(static_cast<u32>(ErrCode::kInternal), e.what()));
  }
}

void Frontend::finish(u64 cookie) {
  const auto it = pending_.find(cookie);
  if (it == pending_.end()) return;
  std::unique_ptr<Pending> p = std::move(it->second);
  pending_.erase(it);

  // The hook fired after the worker fulfilled the promise, so get() cannot
  // block; the trace is fully stamped on both the value and error paths.
  std::vector<u8> entry;  // batch-slot encoding (ok flag first)
  std::vector<u8> single;
  bool ok = true;
  ErrCode code = ErrCode::kInternal;
  std::string error_msg;
  try {
    const sim::FrameResult res = p->future.get();
    WireTiming t;
    t.queue_wait_us = us_between(p->trace.submit_ns, p->trace.claim_ns);
    t.exec_us = us_between(p->trace.exec_begin_ns, p->trace.exec_end_ns);
    if (p->batch == nullptr) {
      single = encode_result(t, res);
    } else {
      WireWriter w;
      w.u8v(1);
      encode_result_payload(w, t, res);
      entry = w.take();
    }
  } catch (const serve::Cancelled& e) {
    ok = false;
    code = ErrCode::kDraining;
    error_msg = e.what();
  } catch (const std::exception& e) {
    ok = false;
    code = ErrCode::kInternal;
    error_msg = e.what();
  }

  WireConn* c = wire_.find(p->conn_id);
  if (p->batch != nullptr) {
    PendingBatch& b = *p->batch;
    b.entries[p->slot] = ok ? std::move(entry) : error_entry(code, error_msg);
    b.remaining -= 1;
    if (b.remaining == 0 && c != nullptr) {
      wire_.send(*c, MsgType::kBatchResult, b.request_id, batch_payload(b.entries));
    }
  } else if (c != nullptr) {
    if (ok) {
      wire_.send(*c, MsgType::kResult, p->request_id, single);
    } else {
      wire_.send_error(*c, p->request_id, code, error_msg);
    }
  }
  // Settle after the answer is queued: a drain waits for it to flush.
  wire_.settled(p->conn_id);
}

json::Value Frontend::info_json() const {
  json::Value root;
  root.set("version", static_cast<i64>(kWireVersion));
  root.set("accepting", !wire_.draining() && server_.accepting());
  root.set("workers", static_cast<i64>(server_.num_workers()));
  json::Array models;
  for (const auto& [key, dir] : models_) {
    json::Value m;
    m.set("key", strprintf("%016llx", static_cast<unsigned long long>(key)));
    m.set("name", dir.name);
    json::Array shape;
    for (const i32 d : dir.input) shape.push_back(static_cast<i64>(d));
    m.set("input", std::move(shape));
    models.push_back(std::move(m));
  }
  root.set("models", std::move(models));
  return root;
}

}  // namespace sj::net
