#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>

#include "common/status.h"

namespace sj {

namespace {

// The pool whose worker_loop owns the calling thread (null on any thread
// that is not a pool worker). Keyed per-thread so nested pools compose:
// a worker of pool A calling into pool B still parallelizes on B.
thread_local const ThreadPool* t_worker_of = nullptr;

}  // namespace

usize hardware_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

ThreadPool::ThreadPool(usize num_threads) {
  if (num_threads == 0) num_threads = hardware_thread_count();
  workers_.reserve(num_threads);
  for (usize i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_of == this; }

void ThreadPool::worker_loop() {
  t_worker_of = this;
  for (;;) {
    std::function<void()> task;
    // Bounded spin before sleeping: back-to-back fan-outs (run_batch over
    // sub-millisecond frames) would otherwise pay a condvar wake-up per
    // worker per call. A worker that just ran a task polls the queue
    // for a short while before parking; an idle pool still sleeps. The
    // bound comes from spin_poll_bound(): 0 on 1-CPU hosts, where spinning
    // only delays the producer.
    const int spin_bound = spin_poll_bound();
    for (int spin = 0; spin < spin_bound && !task; ++spin) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stop_ && tasks_.empty()) return;
        if (!tasks_.empty()) {
          task = std::move(tasks_.front());
          tasks_.pop();
        }
      }
      if (!task) std::this_thread::yield();
    }
    if (!task) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(usize n, const std::function<void(usize)>& fn) {
  if (n == 0) return;
  const usize workers = num_threads();
  // Inline paths: tiny n and degenerate pools. Nested calls from this
  // pool's own workers do NOT run inline: their chunks enqueue like any
  // other call so idle workers can claim them (outer n < workers would
  // otherwise serialize the inner batch on the calling worker), and the
  // caller help-drains through the shared chunk counter below, which makes
  // the nested wait deadlock-free regardless of queue backlog.
  if (n <= 1 || workers <= 1) {
    for (usize i = 0; i < n; ++i) fn(i);
    return;
  }

  // Chunked dynamic scheduling: enough chunks for balance, few enough that
  // queue overhead stays negligible. All coordination state lives in a
  // shared block: queued task copies can outlive this call (a worker may
  // pop one after the last chunk completed), so they must not reference the
  // caller's stack.
  struct Shared {
    usize n, chunks;
    std::function<void(usize)> fn;
    std::atomic<usize> next_chunk{0};
    std::atomic<usize> done_chunks{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    std::condition_variable done_cv;
    std::mutex done_mutex;
  };
  auto sh = std::make_shared<Shared>();
  sh->n = n;
  sh->chunks = std::min(n, workers * 4);
  sh->fn = fn;

  auto run_chunk = [sh]() {
    for (;;) {
      const usize c = sh->next_chunk.fetch_add(1);
      if (c >= sh->chunks) break;
      const usize begin = c * sh->n / sh->chunks;
      const usize end = (c + 1) * sh->n / sh->chunks;
      try {
        for (usize i = begin; i < end; ++i) sh->fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(sh->error_mutex);
        if (!sh->first_error) sh->first_error = std::current_exception();
      }
      const usize done = sh->done_chunks.fetch_add(1) + 1;
      if (done == sh->chunks) {
        const std::lock_guard<std::mutex> lock(sh->done_mutex);
        sh->done_cv.notify_all();
      }
    }
  };

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SJ_ASSERT(!stop_, "parallel_for on stopped pool");
    for (usize c = 0; c + 1 < sh->chunks; ++c) tasks_.emplace(run_chunk);
  }
  cv_.notify_all();
  run_chunk();  // caller participates

  {
    std::unique_lock<std::mutex> lock(sh->done_mutex);
    sh->done_cv.wait(lock, [&] { return sh->done_chunks.load() == sh->chunks; });
  }
  if (sh->first_error) std::rethrow_exception(sh->first_error);
}

void ThreadPool::parallel_claim(usize n, usize lanes,
                                const std::function<void(usize, usize)>& fn) {
  SJ_REQUIRE(lanes > 0 || n == 0, "parallel_claim: items but no lanes to run them");
  // parallel_for returns only after every lane has finished, so the cursor
  // can live on this stack.
  std::atomic<usize> next{0};
  parallel_for(std::min(n, lanes), [&](usize lane) {
    for (usize i = next++; i < n; i = next++) fn(lane, i);
  });
}

usize parse_thread_count(const char* text) {
  if (text == nullptr || text[0] == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text, &end, 10);
  if (end == text) return 0;  // no digits at all
  // Tolerate trailing blanks ("4 " from a shell export); anything else
  // after the number is garbage.
  while (*end == ' ' || *end == '\t' || *end == '\n' || *end == '\r') ++end;
  // Malformed or out-of-range values fall back to hardware concurrency
  // (0); a sane ceiling keeps a fat-fingered value from trying to spawn
  // a billion OS threads inside a static initializer, and the explicit
  // ERANGE check keeps an overflowing string from wrapping into a small
  // "valid" count on platforms where strtol saturates differently.
  constexpr long kMaxThreads = 256;
  if (*end != '\0' || errno == ERANGE || v < 0 || v > kMaxThreads) return 0;
  return static_cast<usize>(v);  // 0 = hardware concurrency
}

int spin_poll_bound() {
  static const int bound = std::thread::hardware_concurrency() == 1 ? 0 : 64;
  return bound;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(parse_thread_count(std::getenv("SHENJING_THREADS")));
  return pool;
}

}  // namespace sj
