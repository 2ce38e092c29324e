#include "util/thread_pool.hpp"

#include <sched.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <system_error>
#include <thread>
#include <utility>

namespace pconn {

namespace {

/// How long an idle thread spins before it parks: above one contraction
/// round's serial phase (~0.2 ms on LA-like), far below anything a caller
/// would notice as burnt CPU once the pool goes idle.
constexpr std::chrono::microseconds kSpinWindow{500};

/// Worker stack size: glibc's default for threads under the usual 8 MiB
/// RLIMIT_STACK. Only the pages a worker touches become resident.
constexpr std::size_t kStackBytes = std::size_t{8} << 20;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins until ready() holds or kSpinWindow has passed; returns ready().
/// Yields between clock reads, so spinners never starve the threads they
/// wait for when the pool has more threads than the machine has cores.
template <typename Ready>
bool spin_until(Ready ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  while (true) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  assert(threads >= 1);
  if (threads <= 1) return;
  const std::size_t workers = threads - 1;
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  const std::size_t slot = page + kStackBytes;
  void* stacks = ::mmap(nullptr, slot * workers, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
  if (stacks == MAP_FAILED) {
    throw std::system_error(errno, std::generic_category(),
                            "ThreadPool: mapping worker stacks");
  }
  stacks_ = stacks;
  stacks_bytes_ = slot * workers;
  lanes_ = std::make_unique<Lane[]>(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    char* guard = static_cast<char*>(stacks_) + i * slot;
    lanes_[i] = {this, i + 1, {}};
    int err = ::mprotect(guard, page, PROT_NONE) == 0 ? 0 : errno;
    pthread_attr_t attr;
    if (err == 0) err = ::pthread_attr_init(&attr);
    if (err == 0) {
      err = ::pthread_attr_setstack(&attr, guard + page, kStackBytes);
      if (err == 0) {
        err = ::pthread_create(&lanes_[i].thread, &attr,
                               &ThreadPool::lane_main, &lanes_[i]);
      }
      ::pthread_attr_destroy(&attr);
    }
    if (err != 0) {
      shut_down(i);
      throw std::system_error(err, std::generic_category(),
                              "ThreadPool: starting a worker");
    }
    num_workers_ = i + 1;
  }
}

ThreadPool::~ThreadPool() { shut_down(num_workers_); }

void ThreadPool::shut_down(std::size_t started) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  start_cv_.notify_all();
  for (std::size_t i = 0; i < started; ++i) {
    ::pthread_join(lanes_[i].thread, nullptr);
  }
  // Joined threads no longer run on their stacks.
  if (stacks_ != nullptr) ::munmap(stacks_, stacks_bytes_);
  stacks_ = nullptr;
}

void* ThreadPool::lane_main(void* lane) noexcept {
  const Lane& l = *static_cast<const Lane*>(lane);
  l.pool->worker_loop(l.index);
  return nullptr;
}

void ThreadPool::run_task_guarded(const TaskRef& job, std::size_t index) {
  try {
    job(index);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::run(TaskRef fn) {
  if (num_workers_ == 0) {
    fn(0);  // single-threaded: a throw propagates directly, nothing to join
    return;
  }
  caller_cpu_.store(::sched_getcpu(), std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    remaining_.store(num_workers_, std::memory_order_relaxed);
    first_error_ = nullptr;
    generation_.fetch_add(1, std::memory_order_release);
  }
  start_cv_.notify_all();  // no system call when every worker spins
  run_task_guarded(fn, 0);
  const auto done = [this] {
    return remaining_.load(std::memory_order_acquire) == 0;
  };
  if (!spin_until(done)) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, done);
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = std::exchange(first_error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop(std::size_t index) {
  std::uint64_t seen_generation = 0;
  const auto woken = [&] {
    return stop_.load(std::memory_order_acquire) ||
           generation_.load(std::memory_order_acquire) != seen_generation;
  };
  while (true) {
    // A worker the scheduler put on the caller's CPU cannot run beside it;
    // spinning there would only take the CPU from the thread it waits for.
    const bool beside_caller =
        ::sched_getcpu() == caller_cpu_.load(std::memory_order_relaxed);
    if (beside_caller || !spin_until(woken)) {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, woken);
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // run() returns only after every lane finished, so no generation is
    // ever skipped and job_ is the one published with this generation.
    seen_generation = generation_.load(std::memory_order_acquire);
    run_task_guarded(*job_, index);
    std::lock_guard<std::mutex> lock(mutex_);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv_.notify_one();
    }
  }
}

}  // namespace pconn
