// Async serving front-end over sim::Engine (ROADMAP "async serving
// front-end" + "multi-model engine cache").
//
// The batch engine (PR 3) answers "how fast can one caller push a fixed
// batch"; this subsystem answers the question the paper's energy-per-frame
// pitch actually poses: a long-lived accelerator serving an *open* request
// stream from many clients. SpiNNaker-class systems frame their hardware the
// same way — a standing multi-workload substrate, not a batch job.
//
//   Server
//     models_: ModelKey -> { shared_ptr<Generation>, SimStats }
//       Generation = owned MappedNetwork + SnnNetwork copies + sim::Engine
//       (immutable once published; weight swaps publish a NEW generation)
//     queue_:  FIFO of requests, each bound at submit() time to the
//              generation it will run against
//     workers_: long-lived threads, each owning one SimContext per model it
//              has served (the per-worker context pool)
//
// Clients submit() frames (or submit_batch() a span) and receive
// std::futures to poll or await. Workers pull requests in FIFO order,
// execute Engine::run_frame on their own context, merge the frame's stats
// into the model's tally, then fulfil the future.
//
// Determinism: every frame starts from a full context reset, so a request's
// FrameResult is bit-identical to Engine::run_frame of the same frame on a
// single context, no matter which worker ran it or how requests interleaved.
// Stats merging is integer-additive and therefore order-independent: the
// model tally equals the serial accumulation bit for bit.
//
// Weight swap (without re-lowering): swap_weights() compiles the new
// network against the current generation as donor — reusing its NocTopology
// and lowered ExecProgram, rebuilding only the weight-derived dense rows —
// and atomically publishes the new generation under the same ModelKey.
// Requests already queued finish on the generation they were bound to;
// later submissions see the new weights. Worker contexts carry over: the
// swap-compatibility check guarantees identical state shapes, and the
// per-frame reset erases all history.
//
// Telemetry (ISSUE 6 / ROADMAP "Serving QoS + observability"): the server
// owns an obs::Registry. Every request is stamped at submit/claim/exec
// start/exec end, so queue-wait, execution and end-to-end latency are
// separately attributable — recorded into per-model histograms
// (serve.{queue_wait,exec,e2e}_us.<key>) before the future becomes ready,
// with queue-depth and in-flight gauges updated at the submit/claim/fulfil
// transitions. metrics_json() adds per-model lifetime stats, the compiled
// modulo schedule's II and serial reason, and a live TrafficReport-derived
// per-link NoC utilization snapshot; pair it with obs::MetricsDumper for the
// SHENJING_METRICS export loop. Every model, one chip or many, runs through
// Engine::run_frame; multi-chip mappings pay their inter-chip links in the
// NoC counters, not in a separate serving path.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace sj::serve {

/// Content hash identifying a loaded model: structure + weights at load
/// time. Stable for the lifetime of the served slot — weight swaps change
/// the generation underneath, not the key.
using ModelKey = u64;

/// FNV-1a over everything the engine's behaviour depends on: the mapping's
/// map::structure_words (which the weight-swap gate compares), then the swap
/// payload — the input encoding scale and each core's threshold and
/// allocated synapse rows. Provenance the engine never reads (opt level,
/// name, SnnNetwork::weight_bits, MappedCore::is_output) is no part of it.
/// Deterministic across processes; two structurally identical trainings
/// hash differently when their weights differ.
ModelKey model_key(const map::MappedNetwork& mapped, const snn::SnnNetwork& net);

/// Thrown (through the request future) when shutdown(DrainMode::kCancel)
/// drops a queued request before any worker picked it up.
class Cancelled : public Error {
 public:
  using Error::Error;
};

/// Per-request trace: steady-clock ns (obs::now_ns) stamped at each
/// lifecycle transition. Pass one to submit() to observe a single request;
/// the worker writes claim/exec/done before the future becomes ready, so
/// after future.get() every field is set and monotone
/// (submit <= claim <= exec_begin <= exec_end <= done).
struct RequestTrace {
  u64 submit_ns = 0;      // enqueued (after admission)
  u64 claim_ns = 0;       // a worker dequeued it; claim-submit = queue wait
  u64 exec_begin_ns = 0;  // engine frame started
  u64 exec_end_ns = 0;    // engine frame finished
  u64 done_ns = 0;        // stats + metrics recorded; future about to fire
};

struct ServerOptions {
  /// Worker threads (long-lived SimContext owners). 0 = one per hardware
  /// thread, honoring SHENJING_THREADS like ThreadPool::global().
  usize workers = 0;
  /// Bound on queued (not yet claimed) requests. submit() blocks until a
  /// worker frees space; submit_batch() reserves space for the whole batch
  /// transactionally (and rejects batches larger than the bound outright).
  /// 0 = unbounded.
  usize max_pending = 0;
};

/// How shutdown() treats requests still sitting in the queue.
enum class DrainMode : u8 {
  kDrain,   // finish everything already submitted, then stop
  kCancel,  // fail queued-but-unstarted requests with serve::Cancelled
};

/// A long-lived, thread-safe serving front-end holding many compiled models.
/// All public methods are safe to call from any thread. The destructor
/// drains outstanding requests (shutdown(kDrain)); call
/// shutdown(DrainMode::kCancel) first for a fast exit.
class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Compiles `mapped`/`net` (copies are taken — the server is
  /// self-contained) and caches the engine under its content hash. Loading
  /// content that is *currently served* is a cache hit: the existing key
  /// returns and nothing is recompiled. Re-loading content whose key was
  /// weight-swapped to something else re-publishes that content under its
  /// key (a donor compile against the served generation — effectively a
  /// rollback), so the returned key always serves the content passed in.
  ModelKey load_model(const map::MappedNetwork& mapped, const snn::SnnNetwork& net);

  /// Installs new weights for `key` without re-lowering: `mapped` must be
  /// structurally identical to the served network (same grid, placement,
  /// masks, schedule shape; see the sim::Engine donor compile). In-flight
  /// and already-queued requests finish on the old generation; submissions
  /// after the call serve the new weights. The model's stats tally carries
  /// across the swap.
  void swap_weights(ModelKey key, const map::MappedNetwork& mapped,
                    const snn::SnnNetwork& net);

  /// Enqueues one frame against `key`'s current generation. The future
  /// yields the FrameResult (or rethrows the frame's error). Blocks only
  /// when ServerOptions::max_pending is set and the queue is full.
  /// `trace`, when given, must outlive the future and is fully stamped
  /// before the future becomes ready (see RequestTrace).
  std::future<sim::FrameResult> submit(ModelKey key, Tensor frame,
                                       RequestTrace* trace = nullptr);

  /// Called by the worker that finished a request, AFTER the future became
  /// ready (value or exception) and after stats/telemetry were recorded —
  /// and by shutdown(kCancel) for requests it cancels. Runs on a worker (or
  /// the shutdown caller's) thread: keep it cheap and non-blocking. The
  /// network front-end's hook posts to its event loop through an eventfd, so
  /// engine workers never touch a socket.
  using CompletionHook = std::function<void()>;

  /// Nonblocking admission for network front-ends: like submit(), but when
  /// the bounded queue is full (or other submitters are already blocked in
  /// the FIFO ticket line ahead of us) it returns nullopt instead of
  /// blocking — an event-loop thread must never sleep on queue space; it
  /// answers the client with a "busy" error frame and relies on
  /// connection-level backpressure to slow the socket down. Still throws on
  /// unknown model keys and after shutdown, like submit().
  std::optional<std::future<sim::FrameResult>> try_submit(
      ModelKey key, Tensor frame, RequestTrace* trace = nullptr,
      CompletionHook done = nullptr);

  /// Enqueues every frame of `frames` in order; futures index like the span.
  /// On a bounded server the batch is admitted *transactionally*: the call
  /// blocks until the queue has room for all of it, then enqueues it in one
  /// critical section (no interleaving with other batches' admission), so a
  /// batch is never half-admitted. Batches larger than max_pending can
  /// never fit and are rejected with an Error before anything is queued.
  std::vector<std::future<sim::FrameResult>> submit_batch(ModelKey key,
                                                          std::span<const Tensor> frames);

  /// Stats accrued by completed requests of `key` (copy / drain). A
  /// request's stats are merged before its future becomes ready, so after
  /// future.get() the tally includes that frame.
  sim::SimStats stats(ModelKey key) const;
  sim::SimStats take_stats(ModelKey key);

  /// The server's metric store: serve.submitted/completed/errors/cancelled
  /// counters, serve.queue_depth / serve.in_flight gauges, and per-model
  /// serve.{queue_wait,exec,e2e}_us.<016x-key> latency histograms. Safe to
  /// snapshot from any thread while serving.
  const obs::Registry& registry() const { return registry_; }
  /// Mutable registry access for co-located subsystems (the net front-end
  /// registers its net.* counters/histograms here so one metrics_json dump
  /// — and the router's load poll — sees the whole process).
  obs::Registry& registry() { return registry_; }

  /// True until shutdown() — the net tier's pong/drain signal.
  bool accepting() const;

  /// One self-describing JSON document for dashboards and the
  /// SHENJING_METRICS dumper: the registry snapshot plus, per model, the
  /// lifetime SimStats roll-up (monotone across take_stats), the compiled
  /// schedule's `pipeline_ii` and `serial_reason` (map::serial_reason_name;
  /// "None" when timesteps overlap) and a live
  /// noc::TrafficReport::utilization_json() per-link utilization snapshot
  /// and, once the model has served a frame, its "engine_profile"
  /// (obs::PhaseProfile of the workers' contexts).
  json::Value metrics_json() const;

  usize num_workers() const { return workers_.size(); }
  /// The queue bound (0 = unbounded) — batch submitters size chunks to it.
  usize max_pending() const { return max_pending_; }
  usize num_models() const;
  /// Requests submitted but not yet claimed by a worker.
  usize pending() const;

  /// Stops the server: no further submissions are accepted, workers finish
  /// per `mode`, and every outstanding future becomes ready — with its
  /// result (kDrain) or a serve::Cancelled error (kCancel; requests a
  /// worker already claimed still complete normally, and their stats still
  /// count, so no partial tallies are lost either way). Idempotent; the
  /// model cache and its stats remain readable afterwards.
  void shutdown(DrainMode mode = DrainMode::kDrain);

 private:
  /// One immutable compiled artifact: the server-owned network copies and
  /// the engine lowered against them. Never mutated after publication —
  /// weight swaps build a successor and swap the shared_ptr.
  struct Generation {
    map::MappedNetwork mapped;
    snn::SnnNetwork net;
    std::unique_ptr<sim::Engine> engine;  // points into mapped/net above
  };

  /// A model's latency histograms, registered once at entry creation. The
  /// pointers are stable (Registry never erases); Requests carry a copy so
  /// workers record without re-resolving names.
  struct ModelMetrics {
    obs::Histogram* queue_wait_us = nullptr;
    obs::Histogram* exec_us = nullptr;
    obs::Histogram* e2e_us = nullptr;
  };

  struct ModelEntry {
    std::shared_ptr<const Generation> gen;
    sim::SimStats stats;
    /// Monotone roll-up: take_stats folds the drained tally in here first,
    /// so metrics_json (lifetime + stats) never goes backwards even while
    /// benches drain the additive tally.
    sim::SimStats lifetime;
    /// Accrued engine phase profiles (sim::SimContext::profile).
    obs::PhaseProfile profile;
    ModelMetrics metrics;
    u64 generation = 0;      // bumped by swap_weights
    ModelKey content_key = 0;  // hash of the *current* generation's content
  };

  struct Request {
    ModelKey key = 0;
    std::shared_ptr<const Generation> gen;  // bound at submit time
    Tensor frame;
    std::promise<sim::FrameResult> promise;
    u64 submit_ns = 0;
    RequestTrace* trace = nullptr;  // optional caller-observed trace
    ModelMetrics metrics;           // copied from the entry at submit
    CompletionHook done;            // fired after the future becomes ready
  };

  /// The one admission path behind submit, try_submit and submit_batch:
  /// binds `reqs` to `key`'s current generation, stamps their submit time
  /// and queues them in order, all at once. On a bounded queue it waits
  /// for its FIFO ticket's turn and room for every request (`block`), or
  /// returns false without queueing anything when another submitter holds
  /// the ticket line or there is no room (!`block`). Throws after shutdown,
  /// on an unknown key, and on more requests than the bound.
  bool admit(ModelKey key, std::span<Request> reqs, bool block);

  static std::shared_ptr<const Generation> make_generation(
      const map::MappedNetwork& mapped, const snn::SnnNetwork& net,
      const Generation* donor);

  /// Registers (get-or-create) the per-model histograms for `key`.
  ModelMetrics make_model_metrics(ModelKey key);

  void worker_loop();

  const usize max_pending_;
  // The metric store and the hot-path handles into it. Declared before
  // workers_ so it outlives the worker threads on destruction. Lock order:
  // the registry's own mutex is taken either alone (snapshots, record paths
  // are lock-free) or nested inside mu_ (registration); never mu_ inside it.
  obs::Registry registry_;
  obs::Counter* submitted_ = nullptr;
  obs::Counter* completed_ = nullptr;
  obs::Counter* errors_ = nullptr;
  obs::Counter* cancelled_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* in_flight_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stopping
  std::condition_variable space_cv_;  // submitters: bounded queue has room
  // FIFO admission tickets for the bounded queue: a submitter (single frame
  // or whole batch) enqueues only when it is at the head of the ticket line
  // AND its whole payload fits. Without the line, a whole-batch waiter
  // (which needs several slots at once) could starve forever behind a
  // stream of single submitters each refilling the one slot a worker frees.
  u64 ticket_tail_ = 0;  // next ticket to hand out
  u64 ticket_head_ = 0;  // ticket currently allowed to admit
  std::deque<Request> queue_;
  std::unordered_map<ModelKey, ModelEntry> models_;
  std::vector<std::thread> workers_;
  bool accepting_ = true;
  bool stop_ = false;
};

}  // namespace sj::serve
