#include "linalg/pool.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace performa::linalg {

namespace {

// Concurrent processes sharing the machine (set_pool_share); 1 outside
// a sweep worker.
std::atomic<unsigned> g_share{1};

unsigned env_default_threads() {
  if (const char* env = std::getenv("PERFORMA_THREADS");
      env != nullptr && *env != '\0') {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v >= 1 && v <= 4096) return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::max(1u, hw / g_share.load(std::memory_order_relaxed));
}

// True on a thread while it executes pool tasks: pool workers for their
// whole life, the calling thread for the span of its own task loop. A
// parallel_for issued from a task runs inline (see parallel_for_impl).
thread_local bool t_in_task = false;

// All mutable pool state lives behind one pointer so a forked child can
// atomically swap in a fresh object without touching the parent's (whose
// mutex may have been held mid-parallel_for at fork time).
struct PoolState {
  explicit PoolState(unsigned n) : configured(n), pid(::getpid()) {}

  const unsigned configured;  // target worker count (>= 1)
  const pid_t pid;            // process that owns these threads

  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;
  bool stopping = false;

  // Current job, published under mu; workers claim task indices with a
  // lock-free fetch_add so the queue costs one atomic per task.
  std::uint64_t generation = 0;
  void (*fn)(void*, std::size_t) = nullptr;
  void* ctx = nullptr;
  std::size_t n_tasks = 0;
  std::atomic<std::size_t> next{0};
  std::size_t tasks_done = 0;
  // Workers currently outside mu in their claim window (between reading
  // the job fields and re-locking). run() must quiesce this to zero
  // before resetting `next`: a worker that woke late for a finished job
  // may still be about to fetch_add, and resetting the counter under it
  // would hand it a claim on the *new* job with the *old* closure -- a
  // stale callback into a dead stack frame plus a silently lost task
  // (caught by the TSan CI leg).
  std::size_t active = 0;

  void worker_loop() {
    t_in_task = true;
    std::uint64_t seen = 0;
    std::unique_lock lock(mu);
    for (;;) {
      work_cv.wait(lock, [&] { return stopping || generation != seen; });
      if (stopping) return;
      seen = generation;
      auto* job_fn = fn;
      void* job_ctx = ctx;
      const std::size_t total = n_tasks;
      ++active;
      lock.unlock();
      std::size_t ran = 0;
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) break;
        job_fn(job_ctx, i);
        ++ran;
      }
      lock.lock();
      tasks_done += ran;
      --active;
      done_cv.notify_all();
    }
  }

  void spawn_workers() {
    // configured - 1 helpers: the calling thread always participates, so
    // `configured` threads execute tasks in total.
    workers.reserve(configured - 1);
    for (unsigned i = 0; i + 1 < configured; ++i) {
      workers.emplace_back([this] { worker_loop(); });
    }
    static obs::Gauge& threads = obs::gauge("linalg.pool.threads");
    threads.set(static_cast<double>(workers.size()));
  }

  void run(std::size_t total, void (*f)(void*, std::size_t), void* c) {
    std::unique_lock lock(mu);
    // Drain any straggler still in the previous job's claim window; see
    // the comment on `active`. Normally zero already -- the wait only
    // blocks when a worker woke late for an already-finished job.
    done_cv.wait(lock, [&] { return active == 0; });
    if (workers.empty()) spawn_workers();
    fn = f;
    ctx = c;
    n_tasks = total;
    tasks_done = 0;
    next.store(0, std::memory_order_relaxed);
    ++generation;
    work_cv.notify_all();
    lock.unlock();

    // The calling thread works too -- a pool of 1 degenerates to inline.
    std::size_t ran = 0;
    t_in_task = true;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) break;
      f(c, i);
      ++ran;
    }
    t_in_task = false;

    lock.lock();
    tasks_done += ran;
    done_cv.wait(lock, [&] { return tasks_done == n_tasks; });
  }

  void join_all() {
    {
      std::lock_guard lock(mu);
      stopping = true;
      work_cv.notify_all();
    }
    for (std::thread& t : workers) t.join();
    workers.clear();
    stopping = false;
    static obs::Gauge& threads = obs::gauge("linalg.pool.threads");
    threads.set(0.0);
  }
};

// 0 = "derive from the environment on next use".
std::atomic<unsigned> g_override{0};
std::atomic<PoolState*> g_state{nullptr};
std::mutex g_state_mu;

// Joins workers when static destructors run, so a clean process exit
// leaves no thread behind (the TSan CI leg asserts exactly this).
struct PoolAtExit {
  ~PoolAtExit() { pool_shutdown(); }
} g_at_exit;

// Returns the live state for this process, creating or (after fork)
// replacing it. The returned pointer stays valid for the process
// lifetime: states are only ever leaked, never deleted, so a racing
// reader can never observe a destroyed mutex.
PoolState* state() {
  PoolState* s = g_state.load(std::memory_order_acquire);
  if (s != nullptr && s->pid == ::getpid()) return s;
  std::lock_guard lock(g_state_mu);
  s = g_state.load(std::memory_order_acquire);
  if (s != nullptr && s->pid == ::getpid()) return s;
  // First use in this process, or first use after fork(2). The parent's
  // threads did not survive the fork and its mutex state is unknowable,
  // so the old object is abandoned (leaked once per fork, bounded and
  // sanctioned: freeing it could destroy a locked mutex).
  const unsigned override = g_override.load(std::memory_order_relaxed);
  s = new PoolState(override != 0 ? override : env_default_threads());
  g_state.store(s, std::memory_order_release);
  return s;
}

// Drop this process's state so the next use re-derives its width; the
// caller has just changed an input of that derivation under g_state_mu.
void reset_state(std::unique_lock<std::mutex>& lock) {
  PoolState* s = g_state.load(std::memory_order_acquire);
  g_state.store(nullptr, std::memory_order_release);
  lock.unlock();
  // Join outside the creation lock; the state object itself is leaked by
  // design (see state()).
  if (s != nullptr && s->pid == ::getpid()) s->join_all();
}

}  // namespace

unsigned pool_threads() noexcept { return state()->configured; }

void set_pool_threads(unsigned n) {
  std::unique_lock lock(g_state_mu);
  g_override.store(n, std::memory_order_relaxed);
  reset_state(lock);
}

void set_pool_share(unsigned processes) {
  std::unique_lock lock(g_state_mu);
  g_share.store(std::max(1u, processes), std::memory_order_relaxed);
  reset_state(lock);
}

void pool_shutdown() {
  PoolState* s = g_state.load(std::memory_order_acquire);
  if (s != nullptr && s->pid == ::getpid()) s->join_all();
}

std::size_t pool_live_workers() noexcept {
  PoolState* s = g_state.load(std::memory_order_acquire);
  if (s == nullptr || s->pid != ::getpid()) return 0;
  std::lock_guard lock(s->mu);
  return s->workers.size();
}

namespace detail {

void parallel_for_impl(std::size_t n_tasks, void (*fn)(void*, std::size_t),
                       void* ctx) {
  if (n_tasks == 0) return;
  PoolState* s = state();
  // The width-1 and single-task tests come first, so a width-1 pool
  // never reads the thread-local. A task that fans out again runs its
  // inner loop inline: the outer job owns the pool's threads, and
  // run() on a worker would wait for itself (active counts it) while
  // run() on the calling thread would republish the job under itself.
  // Inline execution keeps the answer unchanged (determinism contract).
  if (s->configured <= 1 || n_tasks < 2 || t_in_task) {
    for (std::size_t i = 0; i < n_tasks; ++i) fn(ctx, i);
    return;
  }
  static obs::Counter& fanouts = obs::counter("linalg.pool.fanouts");
  static obs::Counter& tasks = obs::counter("linalg.pool.tasks");
  fanouts.add();
  tasks.add(n_tasks);
  s->run(n_tasks, fn, ctx);
}

}  // namespace detail

}  // namespace performa::linalg
