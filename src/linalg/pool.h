// Shared-memory thread pool for the blocked linear-algebra kernels.
//
// Design goals, in order:
//
//   1. *Determinism.* parallel_for(n, f) runs tasks f(0..n-1) whose outputs
//      must be disjoint (each task owns its slice of the result). Because
//      the task decomposition is fixed by the problem size -- never by the
//      worker count -- and no task ever combines another task's partial
//      result, every computation is bit-identical for any PERFORMA_THREADS
//      value, including 1 (fully inline). Reductions that cross task
//      boundaries are forbidden in pool tasks; kernels that need one must
//      reduce the per-task partials on the calling thread in task-index
//      order (see DESIGN.md section 12, "determinism contract").
//   2. *Zero cost when idle or small.* Workers are spawned lazily on the
//      first parallel_for big enough to benefit; a 3x3 product never wakes
//      a thread. With one configured thread everything runs inline.
//   3. *Fork safety.* The experiment runner and the CI drills fork worker
//      processes. Threads do not survive fork(2), so a child that inherits
//      pool state would wait forever on workers that no longer exist. The
//      pool detects the pid change and swaps in a fresh state object (the
//      old one is intentionally leaked: its mutex may have been mid-flight
//      in the parent, so destroying it in the child would be UB); the
//      child then spawns its own workers on demand.
//   4. *Clean exit.* Workers are joined from a static destructor (and by
//      pool_shutdown()), so a TSan build reports no leaked threads after
//      perfctl/performad exit.
//   5. *One thread budget per process.* The pool is the process's only
//      source of threads. Callers above the kernels (the figure harnesses
//      run a sweep point's independent solves and simulations as tasks)
//      share it with the kernels: a parallel_for issued from inside a
//      task runs inline on that task's thread, so nesting never deadlocks
//      and never oversubscribes, and the inner answer is unchanged
//      (goal 1).
//
// PERFORMA_THREADS sets the worker count (default: hardware threads, or
// its share in a sweep worker, see set_pool_share); set_pool_threads()
// overrides it at runtime (tests, --threads flags).
#pragma once

#include <cstddef>
#include <type_traits>

namespace performa::linalg {

/// Configured worker count (>= 1). 1 means all work runs inline on the
/// calling thread. Reads PERFORMA_THREADS (falling back to
/// std::thread::hardware_concurrency) the first time the pool is touched
/// in a process.
unsigned pool_threads() noexcept;

/// Override the worker count: joins existing workers and respawns lazily
/// at the new size on the next large-enough parallel_for. n == 0 restores
/// the environment/hardware default.
void set_pool_threads(unsigned n);

/// Declare this process one of `processes` running side by side (the
/// sweep runner calls it in each forked point worker). When neither
/// PERFORMA_THREADS nor set_pool_threads() sets a width, the default
/// becomes max(1, hardware threads / processes), so the workers together
/// fill the machine once. Like set_pool_threads, it rebuilds the pool
/// lazily at the new width.
void set_pool_share(unsigned processes);

/// Join and discard all pool workers (idempotent). The configured size is
/// kept, so the next parallel_for respawns; call right before process exit
/// (perfctl does) to guarantee no thread outlives main under TSan.
void pool_shutdown();

/// Number of OS threads the pool currently has running -- 0 after
/// pool_shutdown() and before the first qualifying parallel_for.
std::size_t pool_live_workers() noexcept;

namespace detail {
void parallel_for_impl(std::size_t n_tasks, void (*fn)(void*, std::size_t),
                       void* ctx);
}

/// Run f(0), f(1), ..., f(n_tasks-1), possibly concurrently. Tasks MUST
/// write disjoint outputs and MUST NOT throw (kernels validate before
/// fanning out). Runs inline when the pool has one thread, when there is
/// a single task, or when called from inside a pool task (a nested call
/// runs on the task's own thread). A forked child gets a fresh pool.
template <typename F>
void parallel_for(std::size_t n_tasks, F&& f) {
  using Fn = std::remove_reference_t<F>;
  detail::parallel_for_impl(
      n_tasks, [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
      &f);
}

}  // namespace performa::linalg
