// Wire-level serving tier tests (ISSUE 10):
//
//  1. Protocol: header round-trip; garbage/truncated/oversized frames are
//     rejected with WireError, never silently decoded; FrameReader
//     reassembles frames fed one byte at a time; tensors round-trip
//     bit-exactly (f32 through u32 bit_cast).
//  2. Loopback equivalence: results through the full network path — socket,
//     codec, epoll loop, eventfd completion handoff — are bit-identical to
//     in-process serve::Server::submit of the same model. Same for batches.
//  3. Behaviour under pressure: a full admission queue answers kBusy (the
//     loop thread never blocks); drain answers everything in flight before
//     run() returns and then refuses new connections.
//  4. Router: spreads pipelined load over both backends, survives losing
//     one (failover), answers kNoBackend when nobody serves the key, and
//     hot-swaps weights over the wire consistently (swap back restores
//     bit-exact original results).
//  5. Backpressure: a connection paused at its in-flight limit gets every
//     frame it already sent answered once it resumes — on the frontend,
//     through the router, and when the router's backend dies with the
//     client's requests in flight. Unparseable bytes sent to the router are
//     answered with kBadFrame, close the connection and are counted.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <cstring>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "harness/serve_fixture.h"
#include "net/client.h"
#include "net/frontend.h"
#include "net/router.h"
#include "serve/server.h"

namespace sj::net {
namespace {

// Small and fast: tier-1 ctest runs this on one core.
harness::ServeFixture test_fixture(u64 seed = 55) {
  return harness::make_serve_fixture(seed, /*in=*/40, /*hidden=*/16,
                                     /*timesteps=*/4, /*frames=*/6);
}

void expect_result_eq(const sim::FrameResult& a, const sim::FrameResult& b,
                      const char* what) {
  EXPECT_EQ(a.predicted, b.predicted) << what;
  EXPECT_EQ(a.spike_counts, b.spike_counts) << what;
  EXPECT_EQ(a.final_potentials, b.final_potentials) << what;
}

// ---------------------------------------------------------------------------
// Protocol layer.

TEST(WireProtocol, HeaderRoundTrip) {
  u8 buf[kHeaderSize];
  encode_header(MsgType::kSubmit, 0x1122334455667788ull, 4096, buf);
  const FrameHeader h = decode_header(buf);
  EXPECT_EQ(h.magic, kWireMagic);
  EXPECT_EQ(h.version, kWireVersion);
  EXPECT_EQ(h.type, static_cast<u16>(MsgType::kSubmit));
  EXPECT_EQ(h.request_id, 0x1122334455667788ull);
  EXPECT_EQ(h.payload_len, 4096u);
  EXPECT_EQ(h.reserved, 0u);
}

TEST(WireProtocol, HeaderRejectsGarbage) {
  u8 good[kHeaderSize];
  encode_header(MsgType::kPing, 1, 0, good);

  u8 bad_magic[kHeaderSize];
  std::memcpy(bad_magic, good, kHeaderSize);
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode_header(bad_magic), WireError);

  u8 bad_version[kHeaderSize];
  std::memcpy(bad_version, good, kHeaderSize);
  bad_version[4] = 0x7f;
  EXPECT_THROW(decode_header(bad_version), WireError);

  u8 oversized[kHeaderSize];
  std::memcpy(oversized, good, kHeaderSize);
  const u32 huge = kMaxPayload + 1;
  std::memcpy(oversized + 16, &huge, 4);
  EXPECT_THROW(decode_header(oversized), WireError);

  u8 reserved_set[kHeaderSize];
  std::memcpy(reserved_set, good, kHeaderSize);
  reserved_set[20] = 1;
  EXPECT_THROW(decode_header(reserved_set), WireError);

  // All-garbage bytes through the incremental reader fail fast too.
  FrameReader r;
  std::vector<u8> junk(kHeaderSize, 0xee);
  r.feed(junk.data(), junk.size());
  EXPECT_THROW(r.next(), WireError);
}

TEST(WireProtocol, FrameReaderReassemblesByteAtATime) {
  // Three frames of different sizes, delivered one byte at a time — the
  // worst case for reassembly bookkeeping.
  std::vector<std::vector<u8>> payloads = {
      {}, {1, 2, 3}, std::vector<u8>(3000, 0xab)};
  std::vector<u8> stream;
  for (usize i = 0; i < payloads.size(); ++i) {
    const std::vector<u8> f = encode_frame(MsgType::kError, 100 + i, payloads[i]);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameReader r;
  std::vector<Frame> got;
  for (const u8 b : stream) {
    r.feed(&b, 1);
    while (auto f = r.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), payloads.size());
  for (usize i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].header.request_id, 100 + i);
    EXPECT_EQ(got[i].payload, payloads[i]);
  }
  EXPECT_EQ(r.buffered(), 0u);
}

TEST(WireProtocol, TruncatedPayloadNeverDecodesSilently) {
  const harness::ServeFixture fix = test_fixture();
  Frame f;
  f.header.type = static_cast<u16>(MsgType::kSubmit);
  f.payload = encode_submit(7, fix.data.images[0]);
  ASSERT_NO_THROW(decode_submit(f));
  for (const usize cut : {usize{0}, usize{4}, usize{11}, f.payload.size() - 1}) {
    Frame t = f;
    t.payload.resize(cut);
    t.header.payload_len = static_cast<u32>(cut);
    EXPECT_THROW(decode_submit(t), WireError) << "cut at " << cut;
  }
  // Trailing junk is as fatal as missing bytes.
  Frame long_frame = f;
  long_frame.payload.push_back(0);
  EXPECT_THROW(decode_submit(long_frame), WireError);
}

TEST(WireProtocol, TensorRoundTripsBitExactly) {
  Tensor t({3, 5});
  Rng rng(17);
  t.fill_uniform(rng, -2.0f, 2.0f);
  t.data()[0] = 0.0f;
  t.data()[1] = -0.0f;
  t.data()[2] = 1e-39f;  // denormal: survives only via bit_cast, not printf
  WireWriter w;
  encode_tensor(w, t);
  WireReader r(w.data().data(), w.data().size());
  const Tensor back = decode_tensor(r);
  ASSERT_EQ(back.shape(), t.shape());
  ASSERT_EQ(back.numel(), t.numel());
  EXPECT_EQ(std::memcmp(back.data(), t.data(), t.numel() * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Loopback: the full network path vs in-process submit.

struct Loopback {
  harness::ServeFixture fix;
  serve::Server server;
  serve::ModelKey key;
  std::unique_ptr<Frontend> frontend;
  std::thread net_thread;

  explicit Loopback(serve::ServerOptions so = {.workers = 2},
                    FrontendOptions fo = {})
      : fix(test_fixture()), server(so) {
    key = server.load_model(fix.mapped, fix.net);
    if (!fo.swap_fn) {
      fo.swap_fn = [this](serve::ModelKey k, u64 seed) {
        const harness::ServeFixture next = test_fixture(seed);
        server.swap_weights(k, next.mapped, next.net);
      };
    }
    frontend = std::make_unique<Frontend>(server, fo);
    frontend->register_model(key, "wire-fc", fix.data.sample_shape);
    net_thread = std::thread([this] { frontend->run(); });
  }
  ~Loopback() {
    if (net_thread.joinable()) {
      frontend->begin_drain();
      net_thread.join();
    }
    server.shutdown(serve::DrainMode::kDrain);
  }
};

/// A receive timeout on the client socket: a stalled server makes
/// recv_frame() throw instead of hanging the test.
void set_recv_timeout(const Client& c, int seconds) {
  const timeval tv{seconds, 0};
  ASSERT_EQ(::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)), 0);
}

/// Writes `frames` (type, request id 1..n, payload) in ONE write(), so the
/// server reads them all before it can pause the connection.
void write_pipelined(const Client& c,
                     const std::vector<std::pair<MsgType, std::vector<u8>>>& frames) {
  std::vector<u8> bytes;
  for (usize i = 0; i < frames.size(); ++i) {
    const std::vector<u8> f = encode_frame(frames[i].first, i + 1, frames[i].second);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  write_all(c.fd(), bytes.data(), bytes.size());
}

TEST(NetLoopback, WireResultsMatchInProcessSubmitBitExactly) {
  Loopback lb;
  Client client(lb.frontend->port());
  for (usize i = 0; i < lb.fix.data.images.size(); ++i) {
    const ResultMsg wire = client.submit(lb.key, lb.fix.data.images[i]);
    const sim::FrameResult local =
        lb.server.submit(lb.key, lb.fix.data.images[i]).get();
    expect_result_eq(wire.result, local, "wire vs in-process");
    // The server's timing split rides along on every result.
    EXPECT_GT(wire.timing.exec_us, 0u);
  }
}

TEST(NetLoopback, BatchSubmitMatchesAndAggregates) {
  Loopback lb;
  Client client(lb.frontend->port());
  const std::span<const Tensor> frames(lb.fix.data.images.data(),
                                       lb.fix.data.images.size());
  const u64 id = client.send_frame(MsgType::kSubmitBatch,
                                   encode_submit_batch(lb.key, frames));
  Frame f = client.recv_frame();
  ASSERT_EQ(f.type(), MsgType::kBatchResult);
  ASSERT_EQ(f.header.request_id, id);
  WireReader r(f.payload.data(), f.payload.size());
  const u32 count = r.u32v();
  ASSERT_EQ(count, frames.size());
  for (u32 i = 0; i < count; ++i) {
    ASSERT_EQ(r.u8v(), 1u) << "slot " << i << " not ok";
    WireTiming t;
    t.queue_wait_us = r.u32v();
    t.exec_us = r.u32v();
    const sim::FrameResult wire = decode_result_entry(r);
    const sim::FrameResult local =
        lb.server.submit(lb.key, lb.fix.data.images[i]).get();
    expect_result_eq(wire, local, "batch slot");
  }
  r.expect_done();
}

TEST(NetLoopback, UnknownModelAndUnknownTypeAnswerErrors) {
  Loopback lb;
  Client client(lb.frontend->port());
  try {
    client.submit(lb.key ^ 1, lb.fix.data.images[0]);
    FAIL() << "unknown model accepted";
  } catch (const ServerRejected& e) {
    EXPECT_EQ(e.code, ErrCode::kUnknownModel);
  }
  // An unhandled type gets kUnknownType, and the connection survives.
  const u64 id = client.send_frame(static_cast<MsgType>(999), {});
  const Frame f = client.recv_frame();
  EXPECT_EQ(f.type(), MsgType::kError);
  EXPECT_EQ(f.header.request_id, id);
  EXPECT_EQ(decode_error(f).code, ErrCode::kUnknownType);
  EXPECT_EQ(client.ping().accepting, true);
}

TEST(NetLoopback, FullQueueAnswersBusyWithoutBlockingTheLoop) {
  // One worker, a queue bound of 1, and a conn limit far above it: flooding
  // pipelined submits must produce kBusy errors (try_submit returning
  // nullopt on the loop thread) while every request still gets exactly one
  // answer.
  Loopback lb({.workers = 1, .max_pending = 1},
              FrontendOptions{.conn_pending_limit = 1024, .swap_fn = {}});
  // Hold the one worker in a request the test controls, so the queue can
  // only fill: the flood's first submit takes the one slot and the second
  // is refused, however the threads are scheduled. The release also runs
  // on every early exit, so a failed assertion cannot leave the worker
  // blocked in the server's drain.
  std::promise<void> entered, release;
  struct ReleaseOnExit {
    std::promise<void>& p;
    bool done = false;
    void now() {
      if (!done) p.set_value();
      done = true;
    }
    ~ReleaseOnExit() { now(); }
  } release_guard{release};
  std::shared_future<void> released = release.get_future().share();
  std::optional<std::future<sim::FrameResult>> blocker =
      lb.server.try_submit(lb.key, lb.fix.data.images[0], nullptr, [&entered, released] {
        entered.set_value();
        released.wait();
      });
  ASSERT_TRUE(blocker.has_value());
  entered.get_future().wait();

  Client client(lb.frontend->port());
  set_recv_timeout(client, 10);
  constexpr usize kFlood = 24;
  const std::vector<std::pair<MsgType, std::vector<u8>>> flood(
      kFlood, {MsgType::kSubmit, encode_submit(lb.key, lb.fix.data.images[0])});
  write_pipelined(client, flood);
  usize ok = 0, busy = 0;
  for (usize i = 0; i < kFlood; ++i) {
    const Frame f = client.recv_frame();
    if (f.type() == MsgType::kResult) {
      ++ok;
    } else {
      ASSERT_EQ(f.type(), MsgType::kError);
      EXPECT_EQ(decode_error(f).code, ErrCode::kBusy);
      ++busy;
    }
    // The first answer can only be a refusal while the worker is held;
    // let the worker go once the loop has shown it does not block.
    release_guard.now();
  }
  EXPECT_EQ(ok + busy, kFlood);
  EXPECT_GT(ok, 0u);    // some ran
  EXPECT_GT(busy, 0u);  // and the bound actually rejected some
  blocker->get();
}

TEST(NetLoopback, DrainAnswersEverythingThenRefusesConnections) {
  Loopback lb;
  const u16 port = lb.frontend->port();
  Client client(port);
  constexpr usize kInflight = 8;
  for (usize i = 0; i < kInflight; ++i) {
    client.send_frame(MsgType::kSubmit,
                      encode_submit(lb.key, lb.fix.data.images[i % 6]));
  }
  // Frames on one connection dispatch in order, so the pong proves all 8
  // submits were ADMITTED (in flight or already answered) — the drain that
  // starts after it must answer every one of them with a real result.
  const u64 ping_id = client.send_frame(MsgType::kPing, {});
  usize results = 0;
  for (;;) {
    const Frame f = client.recv_frame();
    if (f.header.request_id == ping_id) break;
    ASSERT_EQ(f.type(), MsgType::kResult);
    ++results;
  }
  lb.frontend->begin_drain();
  for (; results < kInflight; ++results) {
    ASSERT_EQ(client.recv_frame().type(), MsgType::kResult);
  }
  lb.net_thread.join();  // run() returns once the drain completes
  EXPECT_THROW(Client{port}, IoError);  // listener is gone
}

/// 8 submits in one write to a server whose connection limit is 2: every
/// one must be answered bit-exactly, including the 6 that were already
/// buffered when the connection paused.
void expect_buffered_submits_answered(u16 port, Loopback& lb) {
  Client client(port);
  set_recv_timeout(client, 3);
  constexpr usize kN = 8;
  const std::vector<Tensor>& images = lb.fix.data.images;
  std::vector<std::pair<MsgType, std::vector<u8>>> frames;
  for (usize i = 0; i < kN; ++i) {
    frames.emplace_back(MsgType::kSubmit, encode_submit(lb.key, images[i % images.size()]));
  }
  write_pipelined(client, frames);
  std::vector<bool> seen(kN, false);
  for (usize i = 0; i < kN; ++i) {
    const Frame f = client.recv_frame();
    ASSERT_EQ(f.type(), MsgType::kResult) << "answer " << i;
    const u64 slot = f.header.request_id - 1;
    ASSERT_LT(slot, kN);
    EXPECT_FALSE(seen[slot]) << "request " << slot << " answered twice";
    seen[slot] = true;
    const sim::FrameResult local = lb.server.submit(lb.key, images[slot % images.size()]).get();
    expect_result_eq(decode_result(f).result, local, "resumed submit");
  }
}

TEST(NetLoopback, PausedConnectionAnswersFramesItHadBuffered) {
  Loopback lb({.workers = 2}, FrontendOptions{.conn_pending_limit = 2, .swap_fn = {}});
  expect_buffered_submits_answered(lb.frontend->port(), lb);
  const obs::RegistrySnapshot snap = lb.server.registry().snapshot();
  EXPECT_GT(snap.counter_or("net.backpressure_pauses", 0), 0);
}

TEST(NetLoopback, WeightSwapOverWireChangesAndRestoresResults) {
  Loopback lb;
  Client client(lb.frontend->port());
  std::vector<sim::FrameResult> before;
  for (const Tensor& t : lb.fix.data.images) {
    before.push_back(client.submit(lb.key, t).result);
  }
  client.swap_weights(lb.key, 1234);
  bool any_diff = false;
  for (usize i = 0; i < lb.fix.data.images.size(); ++i) {
    const ResultMsg r = client.submit(lb.key, lb.fix.data.images[i]);
    any_diff = any_diff || r.result.spike_counts != before[i].spike_counts ||
               r.result.final_potentials != before[i].final_potentials;
  }
  EXPECT_TRUE(any_diff) << "swap to new weights changed nothing";
  // Swapping back to the original seed restores bit-exact original results.
  client.swap_weights(lb.key, 55);
  for (usize i = 0; i < lb.fix.data.images.size(); ++i) {
    const ResultMsg r = client.submit(lb.key, lb.fix.data.images[i]);
    expect_result_eq(r.result, before[i], "after swap-back");
  }
}

// ---------------------------------------------------------------------------
// Router.

struct RouterRig {
  std::vector<std::unique_ptr<Loopback>> backends;
  std::unique_ptr<Router> router;
  std::thread router_thread;

  /// `n` in-process backends, plus any ports already in `ro.backend_ports`.
  explicit RouterRig(usize n, RouterOptions ro = {}) {
    ro.health_period_s = 0.05;
    for (usize i = 0; i < n; ++i) {
      backends.push_back(std::make_unique<Loopback>());
      ro.backend_ports.push_back(backends[i]->frontend->port());
    }
    router = std::make_unique<Router>(ro);
    router_thread = std::thread([this] { router->run(); });
  }
  ~RouterRig() {
    if (router_thread.joinable()) {
      router->begin_drain();
      router_thread.join();
    }
  }
  /// Waits until the router's health poll has discovered `n` backends'
  /// model directories (pong models reflects the union).
  void wait_discovered(Client& c, u32 min_models = 1) {
    for (int tries = 0; tries < 200; ++tries) {
      if (c.ping().models >= min_models) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    FAIL() << "router never discovered its backends";
  }
};

TEST(NetRouter, SpreadsPipelinedLoadAcrossBackendsBitExactly) {
  RouterRig rig(2);
  Client client(rig.router->port());
  rig.wait_discovered(client);

  // Pipelined (no read between sends): the router's live in-flight counts
  // drive the spread, since sequential submits would always pick the idlest
  // — identical — first backend.
  constexpr usize kN = 32;
  const auto& fix = rig.backends[0]->fix;
  const serve::ModelKey key = rig.backends[0]->key;
  std::unordered_map<u64, usize> slot_of;  // responses arrive out of order
  for (usize i = 0; i < kN; ++i) {
    const u64 id = client.send_frame(
        MsgType::kSubmit,
        encode_submit(key, fix.data.images[i % fix.data.images.size()]));
    slot_of[id] = i;
  }
  std::vector<sim::FrameResult> results(kN);
  for (usize i = 0; i < kN; ++i) {
    const Frame f = client.recv_frame();
    ASSERT_EQ(f.type(), MsgType::kResult) << decode_error(f).message;
    ASSERT_TRUE(slot_of.count(f.header.request_id));
    results[slot_of[f.header.request_id]] = decode_result(f).result;
  }
  // Determinism makes the routing invisible: whichever backend served a
  // frame, the result matches the in-process reference.
  for (usize i = 0; i < kN; ++i) {
    const sim::FrameResult local =
        rig.backends[0]
            ->server.submit(key, fix.data.images[i % fix.data.images.size()])
            .get();
    expect_result_eq(results[i], local, "routed result");
  }
  const i64 in0 = rig.backends[0]->server.registry().snapshot().counter_or(
      "net.frames_in", 0);
  const i64 in1 = rig.backends[1]->server.registry().snapshot().counter_or(
      "net.frames_in", 0);
  EXPECT_GT(in0, 0) << "backend 0 got no traffic";
  EXPECT_GT(in1, 0) << "backend 1 got no traffic";
}

TEST(NetRouter, FailsOverWhenABackendDiesAndReportsNoBackendWhenAllDo) {
  RouterRig rig(2);
  Client client(rig.router->port());
  rig.wait_discovered(client);
  const serve::ModelKey key = rig.backends[0]->key;
  const Tensor& frame = rig.backends[0]->fix.data.images[0];
  const sim::FrameResult local = rig.backends[0]->server.submit(key, frame).get();

  expect_result_eq(client.submit(key, frame).result, local, "before failover");

  // Kill backend 0 outright (drain its frontend; its router-side socket
  // closes). The router must keep serving through backend 1.
  rig.backends[0]->frontend->begin_drain();
  rig.backends[0]->net_thread.join();
  bool served = false;
  for (int tries = 0; tries < 200 && !served; ++tries) {
    try {
      expect_result_eq(client.submit(key, frame).result, local, "after failover");
      served = true;
    } catch (const ServerRejected&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(served) << "router never failed over to the surviving backend";

  // Lose the last backend too: kNoBackend, not a hang.
  rig.backends[1]->frontend->begin_drain();
  rig.backends[1]->net_thread.join();
  bool refused = false;
  for (int tries = 0; tries < 200 && !refused; ++tries) {
    try {
      client.submit(key, frame);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    } catch (const ServerRejected& e) {
      EXPECT_TRUE(e.code == ErrCode::kNoBackend || e.code == ErrCode::kDraining ||
                  e.code == ErrCode::kBackendLost)
          << "code " << static_cast<u32>(e.code);
      refused = true;
    }
  }
  EXPECT_TRUE(refused);
}

TEST(NetRouter, PausedClientAnswersFramesItHadBuffered) {
  RouterOptions ro;
  ro.conn_pending_limit = 2;
  RouterRig rig(1, ro);
  Client probe(rig.router->port());
  rig.wait_discovered(probe);
  expect_buffered_submits_answered(rig.router->port(), *rig.backends[0]);
}

/// Reads one counter or gauge from a router's metrics_json document.
i64 router_metric(Client& c, const char* kind, const char* name) {
  const json::Value doc = json::parse(c.metrics_json());
  const json::Value& table = doc.at("metrics").at(kind);
  return table.contains(name) ? table.at(name).as_int() : -1;
}

TEST(NetRouter, GarbageHeaderAnswersBadFrameClosesAndCounts) {
  RouterRig rig(1);
  Client client(rig.router->port());
  set_recv_timeout(client, 3);
  std::vector<u8> junk(kHeaderSize, 0xab);
  write_all(client.fd(), junk.data(), junk.size());
  const Frame f = client.recv_frame();
  ASSERT_EQ(f.type(), MsgType::kError);
  EXPECT_EQ(decode_error(f).code, ErrCode::kBadFrame);
  EXPECT_THROW(client.recv_frame(), IoError);  // the router closed it
  Client observer(rig.router->port());
  EXPECT_EQ(router_metric(observer, "counters", "router.protocol_errors"), 1);
  EXPECT_GE(router_metric(observer, "counters", "router.closed"), 1);
  EXPECT_EQ(router_metric(observer, "counters", "router.accepted"), 2);
}

/// A scripted backend for the router: answers the kInfo/kPing/kMetrics
/// handshake for one model key and records every forwarded request without
/// ever answering it. kill() closes its listener and its connection, so the
/// router loses it with those requests in flight.
struct StubBackend {
  u64 key;
  Fd listener;
  u16 port = 0;
  std::mutex mu;  // guards conn_fd and requests
  int conn_fd = -1;
  std::vector<MsgType> requests;
  std::thread thread;

  explicit StubBackend(u64 model_key) : key(model_key) {
    auto [fd, p] = listen_tcp(0);
    listener = std::move(fd);
    port = p;
    thread = std::thread([this, lfd = listener.get()] { serve(lfd); });
  }
  ~StubBackend() {
    kill();
    thread.join();
  }

  usize num_requests() {
    const std::lock_guard<std::mutex> lock(mu);
    return requests.size();
  }
  void kill() {
    listener.reset();  // no reconnect: the router's retries are refused
    const std::lock_guard<std::mutex> lock(mu);
    if (conn_fd >= 0) ::shutdown(conn_fd, SHUT_RDWR);
  }

  void serve(int lfd) {
    pollfd pfd{lfd, POLLIN, 0};
    if (::poll(&pfd, 1, 5000) != 1) return;
    Fd conn(::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC));
    if (!conn.valid()) return;
    {
      const std::lock_guard<std::mutex> lock(mu);
      conn_fd = conn.get();
    }
    answer_until_closed(conn.get());
    const std::lock_guard<std::mutex> lock(mu);
    conn_fd = -1;
    conn.reset();
  }

  void answer_until_closed(int fd) {
    const std::string info =
        strprintf(R"({"models": [{"key": "%016llx"}]})", static_cast<unsigned long long>(key));
    FrameReader reader;
    u8 buf[4096];
    try {
      for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) return;
        reader.feed(buf, static_cast<usize>(n));
        while (const std::optional<Frame> f = reader.next()) {
          std::vector<u8> answer;
          switch (f->type()) {
            case MsgType::kInfo:
              answer = encode_frame(MsgType::kInfoResult, f->header.request_id,
                                    encode_string(info));
              break;
            case MsgType::kPing:
              answer = encode_frame(MsgType::kPong, f->header.request_id,
                                    encode_pong(PongInfo{}));
              break;
            case MsgType::kMetrics:
              answer = encode_frame(MsgType::kMetricsResult, f->header.request_id,
                                    encode_string(R"({"metrics": {"gauges": {}}})"));
              break;
            default: {
              const std::lock_guard<std::mutex> lock(mu);
              requests.push_back(f->type());
              continue;
            }
          }
          write_all(fd, answer.data(), answer.size());
        }
      }
    } catch (const Error&) {
      // kill() raced a handshake answer: the connection is gone either way.
    }
  }
};

TEST(NetRouter, BackendLossAnswersAndResumesAPausedClient) {
  // Two stub backends serve the key; the client's limit is 2. One write
  // carries a swap and five submits. The swap fans out to both stubs but is
  // ONE request of the client's, so exactly one submit is routed too before
  // the client pauses: the stubs see 3 requests, then nothing more.
  constexpr u64 kKey = 0x5eedull;
  StubBackend stub0(kKey), stub1(kKey);
  RouterOptions ro;
  ro.conn_pending_limit = 2;
  ro.backend_ports = {stub0.port, stub1.port};
  RouterRig rig(0, ro);
  // The stubs die before the rig drains, also when an assertion returns
  // early: a drain waits for the requests they never answer.
  struct KillFirst {
    StubBackend& a;
    StubBackend& b;
    ~KillFirst() {
      a.kill();
      b.kill();
    }
  } kill_first{stub0, stub1};
  Client client(rig.router->port());
  set_recv_timeout(client, 3);
  for (int tries = 0; router_metric(client, "gauges", "router.backends_healthy") < 2; ++tries) {
    ASSERT_LT(tries, 200) << "router never linked both stubs";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  constexpr usize kSubmits = 5;
  std::vector<std::pair<MsgType, std::vector<u8>>> frames;
  frames.emplace_back(MsgType::kSwapWeights, encode_swap(kKey, 7));
  Tensor x({4});
  for (usize i = 0; i < kSubmits; ++i) frames.emplace_back(MsgType::kSubmit, encode_submit(kKey, x));
  write_pipelined(client, frames);

  const auto requests = [&] { return stub0.num_requests() + stub1.num_requests(); };
  for (int tries = 0; requests() < 3; ++tries) {
    ASSERT_LT(tries, 200) << "only " << requests() << " requests reached the stubs";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_EQ(requests(), 3u) << "the client was not paused at its limit";

  // Both backends die with the swap and one submit in flight. Every frame
  // the client sent must still be answered: the lost ones with
  // kBackendLost, the buffered ones (after the resume) with kNoBackend or,
  // if routed before the second stub's loss was seen, kBackendLost.
  stub0.kill();
  stub1.kill();
  std::vector<bool> seen(frames.size(), false);
  for (usize i = 0; i < frames.size(); ++i) {
    const Frame f = client.recv_frame();
    const u64 slot = f.header.request_id - 1;
    ASSERT_LT(slot, frames.size());
    EXPECT_FALSE(seen[slot]);
    seen[slot] = true;
    if (slot == 0) {
      ASSERT_EQ(f.type(), MsgType::kSwapResult);
      EXPECT_EQ(decode_status(f).code, static_cast<u32>(ErrCode::kBackendLost));
      continue;
    }
    ASSERT_EQ(f.type(), MsgType::kError);
    const ErrCode code = decode_error(f).code;
    EXPECT_TRUE(code == ErrCode::kBackendLost || code == ErrCode::kNoBackend)
        << "submit " << slot << " code " << static_cast<u32>(code);
  }
  EXPECT_EQ(router_metric(client, "gauges", "router.inflight"), 0);
  EXPECT_GE(router_metric(client, "counters", "router.backpressure_pauses"), 1);
}

}  // namespace
}  // namespace sj::net
