// Fixed-size thread pool with a fork-join "run p tasks and wait" primitive.
//
// The paper's parallelization is strictly fork-join: partition conn(S),
// run p SPCS instances, barrier, merge. A persistent pool avoids paying
// thread creation inside the ~millisecond query measurements.
//
// run() takes a non-owning TaskRef instead of a std::function: the callable
// outlives the call by construction (fork-join), and a std::function would
// heap-allocate its capture state on every query — the warm query path must
// stay allocation-free (docs/architecture.md).
//
// Spin, then park. After a run() a worker spins on the run counter for a
// fixed window (kSpinWindow in thread_pool.cpp, 0.5 ms) before it blocks
// on the condition variable, and run() spins the same way on the count of
// unfinished lanes before it waits. The contraction calls run() once per
// round, and the serial work between two rounds (~0.2 ms on LA-like)
// is shorter than a condition-variable wake-up on a virtualized guest:
// with park-only workers the rounds did not overlap at all. A pool left
// idle past the window costs nothing. A worker that finds itself on the
// CPU run() was called from parks at once: it cannot run beside the
// caller there, and its spinning would only slow the caller (a KVM
// guest's scheduler was seen to keep a whole process on one CPU).
//
// Owned stacks. Workers run on stacks the pool maps itself (8 MiB each
// plus a guard page, touched lazily) and unmaps after the join. glibc
// keeps the stacks of exited std::threads cached and resident, ~24 kB of
// Pss per thread; a process that builds a pool per contraction (the live
// feed's re-contractions) would keep paying that.
//
// Exception safety: a task that throws on any thread must not kill the
// process (thread unwinding terminates) or wedge the barrier. Workers
// catch everything, the first exception is captured, the barrier completes
// normally, and run() rethrows the captured exception on the calling
// thread after the join — the fork-join analogue of a plain call throwing.
// Later exceptions of the same run are swallowed (only one can propagate);
// the pool itself stays fully usable for the next run(). The live-update
// rebuild pipeline leans on this: an injected worker fault surfaces at the
// coordinator as one exception, and degradation handles it there
// (util/fault_injector.hpp, tests/parallel_test.cpp).
#pragma once

#include <pthread.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>

#include "util/function_ref.hpp"

namespace pconn {

/// Non-owning reference to a callable `void(std::size_t thread_index)`.
/// Valid only while the referenced callable is alive — exactly the
/// fork-join lifetime of ThreadPool::run.
using TaskRef = FunctionRef<void(std::size_t)>;

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (threads >= 1). Throws std::system_error
  /// when the stacks cannot be mapped or a thread cannot be started.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return num_workers_ + 1; }

  /// Runs fn(t) for t in [0, num_threads()) — one call per worker plus the
  /// calling thread (which executes t = 0) — and blocks until all return.
  /// fn must be safe to invoke concurrently. If any invocation throws, the
  /// barrier still completes and the FIRST captured exception is rethrown
  /// here; the pool remains usable afterwards.
  void run(TaskRef fn);

 private:
  /// What a worker thread's entry point is handed.
  struct Lane {
    ThreadPool* pool;
    std::size_t index;
    pthread_t thread;
  };

  static void* lane_main(void* lane) noexcept;
  void worker_loop(std::size_t index);
  /// Invokes the job, routing any exception into first_error_ (first one
  /// wins). Shared by workers and the calling thread so both sides get
  /// identical capture semantics.
  void run_task_guarded(const TaskRef& job, std::size_t index);
  /// Stops and joins the first `started` workers, then unmaps the stacks.
  void shut_down(std::size_t started);

  std::size_t num_workers_ = 0;
  std::unique_ptr<Lane[]> lanes_;
  void* stacks_ = nullptr;  // one mapping: [guard page | stack] per worker
  std::size_t stacks_bytes_ = 0;

  // generation_, stop_ and remaining_ change only under mutex_; they are
  // atomic so that spinning threads can read them without it.
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const TaskRef* job_ = nullptr;  // published by generation_'s release
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> remaining_{0};
  std::atomic<bool> stop_{false};
  std::atomic<int> caller_cpu_{-1};  // sched_getcpu() of the last run()
  std::exception_ptr first_error_;  // guarded by mutex_
};

}  // namespace pconn
