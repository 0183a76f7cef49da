// The serving-tier probe: the harness serving fixture (a dense 300-80-10
// net, T=8, ~0.16 ms of engine time per request) in an in-process
// serve::Server behind a net::Frontend, driven over loopback TCP by one
// net::Client connection OPEN loop: Poisson arrivals at a fixed ladder of
// absolute rates, release times precomputed from the seed, every request
// timed from when it was due (not when it was sent), so a stall that delays
// later sends is charged to them. A single generator thread busy-polls: it
// sends on schedule and reads responses between sends, which keeps the
// process at four busy threads (generator, event loop, two serve workers).
//
// Its figures are per-layer diagnostics of the traced mlp-batch run, not
// end-to-end metrics: on a shared host the round trip is made of thread
// wake-ups whose latency swings several-fold from one minute to the next
// (see perfbench/README.md).
#include <sys/socket.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "common.h"
#include "common/rng.h"
#include "harness/serve_fixture.h"
#include "net/client.h"
#include "net/frontend.h"
#include "net/wire.h"
#include "serve/server.h"
#include "sim/engine.h"
#include "workloads.h"

namespace pb {
namespace {

using namespace sj;

// The fixed ladder of offered rates (requests/s). Absolute, never a
// fraction of a measured capacity, so a faster program faces the same load.
constexpr double kLadder[] = {500.0, 1000.0, 2000.0, 4000.0};
constexpr double kReferenceRate = 1000.0;  // the serve/net figures are read here
constexpr double kP99LimitMs = 5.0;        // a rung passes when its p99 meets this
constexpr double kLateLimitMs = 1.0;       // generator p99 lateness that voids a rung
constexpr double kDrainMs = 2000.0;        // a response later than this is a timeout
constexpr usize kDistinct = 64;            // distinct seeded input frames
constexpr usize kWorkers = 2;
constexpr double kRungSeconds = 2.0;       // per ladder rung
constexpr double kReferenceSeconds = 4.0;  // the traced reference rung

/// The serving stack. The frontend's loop thread is joined and the server
/// drained in the destructor.
struct Stack {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<net::Frontend> front;
  std::thread loop;
  serve::ModelKey key = 0;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    if (front != nullptr) front->begin_drain();
    if (loop.joinable()) loop.join();
    if (server != nullptr) server->shutdown(serve::DrainMode::kDrain);
  }
};

bool same(const sim::FrameResult& a, const sim::FrameResult& b) {
  return a.predicted == b.predicted && a.spike_counts == b.spike_counts &&
         a.final_potentials == b.final_potentials;
}

/// One request of a rung, all times steady-clock ns.
struct Req {
  u64 due = 0, sent = 0, sent_end = 0, recv = 0;
  u32 queue_us = 0, exec_us = 0;
  bool ok = false;
};

struct Rung {
  double rate = 0.0;
  std::vector<Req> reqs;
  usize completed = 0;
  usize failed = 0;   // wire errors, kBusy/kError replies, timeouts
  usize wrong = 0;    // results that differ from the in-process reference
  usize backlog_end = 0;  // requests in flight when the last one was released
  double window_s = 0.0;  // first to last release

  /// Due-to-receipt latency; failed requests count as kDrainMs (a miss).
  std::vector<double> latency_ms() const {
    std::vector<double> v;
    v.reserve(reqs.size());
    for (const Req& q : reqs) v.push_back(q.ok ? ms_between(q.due, q.recv) : kDrainMs);
    return v;
  }
  std::vector<double> late_ms() const {
    std::vector<double> v;
    v.reserve(reqs.size());
    for (const Req& q : reqs) v.push_back(ms_between(q.due, q.sent));
    return v;
  }
  bool generator_behind() const { return quantile(late_ms(), 0.99) > kLateLimitMs; }
  bool backlog_grew() const {
    return static_cast<double>(backlog_end) > std::max(16.0, rate * kP99LimitMs / 1e3);
  }
  bool meets_limit() const {
    return failed == 0 && wrong == 0 && !generator_behind() && !backlog_grew() &&
           quantile(latency_ms(), 0.99) <= kP99LimitMs;
  }
};

/// Drives one rung: Poisson releases at `rate` for `seconds`, then waits
/// for the stragglers (up to kDrainMs past the last release).
Rung run_rung(net::Client& client, const std::vector<std::vector<u8>>& payloads,
              const std::vector<sim::FrameResult>& ref, double rate, double seconds, u64 seed,
              Tracer& tr, u64& next_op) {
  Rung g;
  g.rate = rate;
  Rng arrivals(seed * 0x9e3779b97f4a7c15ull + static_cast<u64>(rate));
  std::vector<double> offsets;
  for (double at = 0.0;;) {
    at += -std::log(1.0 - arrivals.uniform()) / rate;
    if (at > seconds) break;
    offsets.push_back(at);
  }
  const usize n = std::max<usize>(1, offsets.size());
  offsets.resize(n);
  g.reqs.resize(n);
  std::vector<usize> frame(n);
  for (usize i = 0; i < n; ++i) frame[i] = arrivals.uniform_index(kDistinct);

  const u64 base_id = next_op;
  next_op += n;
  const u64 t0 = now_ns() + 1'000'000;  // first release 1 ms out
  for (usize i = 0; i < n; ++i) g.reqs[i].due = t0 + static_cast<u64>(offsets[i] * 1e9);
  g.window_s = offsets.back() - offsets.front();

  net::FrameReader reader;
  usize next = 0, outstanding = 0, answered = 0;
  const auto handle = [&](const net::Frame& f) {
    const u64 rid = f.header.request_id;
    if (rid < base_id || rid >= base_id + n) return;  // not this rung's
    Req& q = g.reqs[rid - base_id];
    if (q.recv != 0) return;
    q.recv = now_ns();
    --outstanding;
    ++answered;
    if (f.type() != net::MsgType::kResult) {
      ++g.failed;
      return;
    }
    const net::ResultMsg m = net::decode_result(f);
    q.queue_us = m.timing.queue_wait_us;
    q.exec_us = m.timing.exec_us;
    if (!same(m.result, ref[frame[rid - base_id]])) {
      ++g.wrong;
      return;
    }
    q.ok = true;
    ++g.completed;
  };

  u64 deadline = 0;
  u8 buf[64 * 1024];
  while (answered < n) {
    u64 now = now_ns();
    while (next < n && g.reqs[next].due <= now) {
      Req& q = g.reqs[next];
      q.sent = now;
      client.send_frame_as(net::MsgType::kSubmit, base_id + next, payloads[frame[next]]);
      q.sent_end = now_ns();
      ++outstanding;
      if (++next == n) {
        g.backlog_end = outstanding;
        deadline = q.sent_end + static_cast<u64>(kDrainMs * 1e6);
      }
      now = now_ns();
    }
    if (next == n && now >= deadline) break;
    // Busy-poll instead of sleeping: a sleeping generator pays a wake-up
    // per release, which on a shared host is itself milliseconds of noise.
    for (;;) {
      const ssize_t got = ::recv(client.fd(), buf, sizeof(buf), MSG_DONTWAIT);
      if (got <= 0) break;
      reader.feed(buf, static_cast<usize>(got));
    }
    while (auto f = reader.next()) handle(*f);
  }
  g.failed += n - answered;  // timeouts

  // Spans: the request from due to receipt; its children are the
  // generator's lateness, the send call and the server-reported queue wait
  // and execution (placed after the send: the server reports durations).
  if (tr.enabled()) {
    for (usize i = 0; i < n; ++i) {
      const Req& q = g.reqs[i];
      if (!q.ok) continue;
      const u64 op = base_id + i;
      const u64 root = tr.record("wire.request", op, 0, q.due, q.recv);
      tr.record("loadgen.late", op, root, q.due, q.sent);
      tr.record("net.client_send", op, root, q.sent, q.sent_end);
      const u64 qe = q.sent_end + static_cast<u64>(q.queue_us) * 1000;
      tr.record("serve.queue_wait", op, root, q.sent_end, qe);
      tr.record("serve.exec", op, root, qe, qe + static_cast<u64>(q.exec_us) * 1000);
    }
  }
  return g;
}

}  // namespace

void probe_wire(const Options& opt, Tracer& tr, Result& r) {
  const harness::ServeFixture fix = harness::make_serve_fixture(55);
  Stack stack;
  stack.server = std::make_unique<serve::Server>(
      serve::ServerOptions{.workers = kWorkers, .max_pending = 4096});
  stack.key = stack.server->load_model(fix.mapped, fix.net);
  stack.front = std::make_unique<net::Frontend>(*stack.server);
  stack.front->register_model(stack.key, "wire-fc", fix.data.sample_shape);
  net::Frontend* front = stack.front.get();
  stack.loop = std::thread([front] { front->run(); });
  auto client = std::make_unique<net::Client>(stack.front->port());
  serve::Server& server = *stack.server;
  const serve::ModelKey key = stack.key;

  // ---- Inputs from the seed; in-process reference answers. ---------------
  Rng frame_rng(opt.seed);
  std::vector<std::vector<u8>> payloads;
  std::vector<sim::FrameResult> ref;
  for (usize i = 0; i < kDistinct; ++i) {
    Tensor x({300});
    x.fill_uniform(frame_rng, 0.0f, 1.0f);
    payloads.push_back(net::encode_submit(key, x));
    ref.push_back(server.submit(key, x).get());
  }
  const sim::SimStats ref_stats = server.take_stats(key);
  const u64 eff_per_frame = ref_stats.effective_cycles / static_cast<u64>(ref_stats.frames);

  const auto tally = [&](const Rung& g) {
    r.attempted += static_cast<i64>(g.reqs.size());
    r.failed += static_cast<i64>(g.failed + g.wrong);
    if (g.wrong != 0) r.fail(std::to_string(g.wrong) + " wire results differ from Server::submit");
    if (g.failed != 0) {
      std::fprintf(stderr, "perfbench: %zu requests failed at %.0f req/s\n", g.failed, g.rate);
    }
  };

  // ---- Warm-up, then the ladder, untraced. --------------------------------
  const bool was_tracing = tr.enabled();
  tr.disable();
  u64 next_op = 1ull << 40;  // request ids apart from the engine ops
  (void)run_rung(*client, payloads, ref, kReferenceRate, 0.5, opt.seed, tr, next_op);
  std::vector<Rung> rungs;
  for (const double rate : kLadder) {
    rungs.push_back(run_rung(*client, payloads, ref, rate, kRungSeconds, opt.seed, tr, next_op));
    tally(rungs.back());
  }
  const Rung* best = nullptr;
  std::string ladder = "[";
  for (const Rung& g : rungs) {
    if (g.meets_limit()) best = &g;
    ladder += std::string(ladder.size() > 1 ? ", " : "") + "{\"rate\": " + num(g.rate) +
              ", \"requests\": " + std::to_string(g.reqs.size()) +
              ", \"p50_ms\": " + num(median(g.latency_ms())) +
              ", \"p99_ms\": " + num(quantile(g.latency_ms(), 0.99)) +
              ", \"late_p99_ms\": " + num(quantile(g.late_ms(), 0.99)) +
              ", \"backlog_end\": " + std::to_string(g.backlog_end) +
              ", \"failed\": " + std::to_string(g.failed) +
              ", \"meets_limit\": " + (g.meets_limit() ? "true" : "false") + "}";
  }
  r.notes.push_back("{\"wire_ladder\": " + ladder + "], \"p99_limit_ms\": " + num(kP99LimitMs) +
                    "}");

  // ---- The reference rung, with spans. -------------------------------------
  if (was_tracing) tr.enable(1 << 16);
  const Rung refr = run_rung(*client, payloads, ref, kReferenceRate, kReferenceSeconds,
                             opt.seed + 1, tr, next_op);
  tally(refr);
  std::vector<double> ping_ms;
  for (int i = 0; i < 200; ++i) {
    const u64 t0 = now_ns();
    (void)client->ping();
    ping_ms.push_back(ms_between(t0, now_ns()));
  }
  client.reset();

  // ---- Every frame the server simulated must cost the same cycles. --------
  const sim::SimStats st = server.stats(key);
  if (st.frames <= 0 || st.effective_cycles != eff_per_frame * static_cast<u64>(st.frames)) {
    r.fail("served frames' effective cycles drifted within the run");
  }

  std::vector<double> queue_ms, exec_ms, overhead_ms;
  for (const Req& q : refr.reqs) {
    if (!q.ok) continue;
    const double qms = q.queue_us / 1e3, ems = q.exec_us / 1e3;
    queue_ms.push_back(qms);
    exec_ms.push_back(ems);
    overhead_ms.push_back(ms_between(q.sent, q.recv) - qms - ems);
  }
  const std::vector<double> lat = refr.latency_ms();
  r.set("serve.queue_wait_p50_ms", median(queue_ms), "ms");
  r.set("serve.queue_wait_p99_ms", quantile(queue_ms, 0.99), "ms");
  r.set("serve.exec_p50_ms", median(exec_ms), "ms");
  r.set("serve.exec_p99_ms", quantile(exec_ms, 0.99), "ms");
  r.set("net.round_trip_p50_ms", median(lat), "ms");
  r.set("net.round_trip_p99_ms", quantile(lat, 0.99), "ms");
  r.set("net.capacity_rps",
        best != nullptr ? static_cast<double>(best->completed) / best->window_s : 0.0, "1/s");
  r.set("net.overhead_p50_ms", median(overhead_ms), "ms");
  r.set("net.overhead_p99_ms", quantile(overhead_ms, 0.99), "ms");
  r.set("net.ping_rtt_p50_ms", median(ping_ms), "ms");
  r.set("loadgen.late_p99_ms", quantile(refr.late_ms(), 0.99), "ms");
}

}  // namespace pb
