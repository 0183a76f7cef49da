// Shared-queue thread pool with a parallel_for convenience wrapper.
//
// Used for data-parallel work whose items are independent: minibatch
// gradient evaluation in the ANN trainer, per-image SNN evaluation, and the
// batch inference engine's per-context frame shards. Exceptions thrown by
// tasks are captured and rethrown on the caller.
//
// Reentrancy: parallel_for nests. A call from one of this pool's own
// workers enqueues its chunks like any other call and then help-drains them
// through the shared chunk counter, so it can never deadlock waiting on a
// queue position — the caller itself retires every chunk no other thread
// claims. When the outer loop has saturated the pool that degenerates to
// the caller running its chunks back to back (the old inline schedule);
// when the outer loop *under-fills* the pool (outer n < workers), the idle
// workers pop the queued chunks and the nested batch actually
// parallelizes instead of serializing on the calling worker. Chunk task
// copies that lose every claim race pop later as cheap no-ops.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/types.h"

namespace sj {

/// Fixed-size pool of worker threads consuming a shared task queue.
class ThreadPool {
 public:
  /// Creates `num_threads` workers (0 = std::thread::hardware_concurrency()).
  explicit ThreadPool(usize num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  usize num_threads() const { return workers_.size(); }

  /// True when the calling thread is one of this pool's workers (i.e. the
  /// call sits inside a task this pool is running).
  bool on_worker_thread() const;

  /// Runs fn(i) for every i in [0, n), distributing chunks over the pool and
  /// blocking until all items complete. The first task exception (if any) is
  /// rethrown here. Falls back to inline execution for tiny n; calls made
  /// from this pool's own workers enqueue and help-drain (see header
  /// comment), so idle workers participate in nested loops.
  void parallel_for(usize n, const std::function<void(usize)>& fn);

  /// Process-wide default pool (lazily constructed). Honors the
  /// SHENJING_THREADS environment variable at first use (see
  /// parse_thread_count): a positive value fixes the worker count (for
  /// reproducible CI / bench runs), 0 or unset means hardware concurrency.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Parses a SHENJING_THREADS-style worker-count override. A plain decimal
/// integer in [1, 256] (leading/trailing blanks tolerated) fixes the worker
/// count; everything else — unset/empty, trailing garbage, negative values,
/// and numbers that overflow `long` or exceed the 256 ceiling — returns 0
/// (= hardware concurrency) instead of wrapping or spawning a runaway
/// thread count. Exposed for tests; ThreadPool::global() applies it.
usize parse_thread_count(const char* text);

/// Parses a SHENJING_SPIN-style spin-bound override: a plain decimal integer
/// in [0, 1'000'000] (blanks tolerated) returns that bound; unset/empty or
/// malformed input returns `fallback`. Exposed for tests; spin_poll_bound()
/// applies it.
int parse_spin_bound(const char* text, int fallback);

/// Iterations a pool worker polls the queue before parking on the condvar.
/// Defaults to 64 — back-to-back fan-outs (run_batch over sub-millisecond
/// frames) would otherwise pay a condvar wake-up per worker per call — but
/// on a 1-CPU host spinning only steals the quantum from the thread that
/// would produce the work, so the default drops to 0 there.
/// SHENJING_SPIN overrides either default (read once, cached).
int spin_poll_bound();

/// The hardware-concurrency fallback every worker-count decision shares
/// (ThreadPool's 0 case, the serving front-end's default): the detected
/// concurrency, or 4 when the platform reports none.
usize hardware_thread_count();

}  // namespace sj
