#include "support/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>

#include "support/error.h"

namespace mood::support {

namespace {
// Set while a thread runs pool work: a worker executing a task, or a
// parallel_for caller running its own share. Nested parallel_for calls
// detect it and run serially on that thread, instead of queueing helper
// tasks behind the outer loop's and blocking on them.
thread_local bool t_inside_pool = false;

// RAII keeps the flag correct on every exit path. packaged_task captures
// exceptions into the future today, but nothing else should have to know
// that for the flag to stay balanced.
struct InsidePoolGuard {
  InsidePoolGuard() { t_inside_pool = true; }
  ~InsidePoolGuard() { t_inside_pool = false; }
  InsidePoolGuard(const InsidePoolGuard&) = delete;
  InsidePoolGuard& operator=(const InsidePoolGuard&) = delete;
};

// configure_shared() / shared() handshake: the requested size, and whether
// the lazily-built shared pool already exists (after which reconfiguration
// must fail instead of silently doing nothing).
std::atomic<std::size_t> g_shared_pool_size{0};
std::atomic<bool> g_shared_pool_built{false};

using Clock = std::chrono::steady_clock;

// How long a thread polls before it parks: the p99 latency of waking a
// parked thread on a 4-vCPU host (see the file comment of thread_pool.h).
constexpr std::chrono::microseconds kSpinBound{200};

// Polls ready(), yielding between polls, until it holds (true) or the
// deadline passed (false).
template <typename Ready>
bool spin_until(Clock::time_point deadline, Ready ready) {
  for (;;) {
    if (ready()) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
}

// One parallel_for's loop. Helper tasks hold it through a shared_ptr, so a
// helper that starts after the caller returned touches only this.
struct LoopState {
  LoopState(std::size_t count, std::size_t grain,
            const std::function<void(std::size_t)>& fn)
      : count(count), grain(grain), fn(&fn) {}

  const std::size_t count;
  const std::size_t grain;
  // Dereferenced only for a claimed iteration, which the caller outlives.
  const std::function<void(std::size_t)>* const fn;
  // Dynamic scheduling: threads pull the next index from a shared counter,
  // which balances the skewed per-user costs of the protection search.
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  // Helpers that registered and have not exited yet. An int, so waiting on
  // it is a plain futex wait.
  std::atomic<int> running{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Claims and runs chunks until the cursor is exhausted or an iteration
  // failed.
  void drain() {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(grain);
      if (begin >= count || failed.load()) return;
      const std::size_t end = std::min(begin + grain, count);
      try {
        for (std::size_t i = begin; i < end; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true);
        return;
      }
    }
  }

  // A helper task. It registers before its first claim, so a caller that
  // saw the cursor exhausted and `running` at zero has seen every
  // iteration a helper claimed end.
  void help() {
    running.fetch_add(1);
    drain();
    if (running.fetch_sub(1) == 1) running.notify_one();
  }

  // The caller, after its own share: waits until no helper that may have
  // claimed an iteration is still running.
  void wait_for_helpers() {
    const auto idle = [this] { return running.load() == 0; };
    if (spin_until(Clock::now() + kSpinBound, idle)) return;
    for (int r = running.load(); r != 0; r = running.load()) running.wait(r);
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    std::lock_guard lock(mutex_);
    expects(!stopping_, "ThreadPool::submit called during shutdown");
    queue_.push(std::move(packaged));
    queued_.store(queue_.size(), std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  const auto has_work = [this] {
    return queued_.load(std::memory_order_relaxed) != 0 ||
           stopping_.load(std::memory_order_relaxed);
  };
  for (;;) {
    std::packaged_task<void()> task;
    const auto deadline = Clock::now() + kSpinBound;
    for (;;) {
      const bool seen = spin_until(deadline, has_work);
      std::unique_lock lock(mutex_);
      if (!seen) {
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      }
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
        queued_.store(queue_.size(), std::memory_order_relaxed);
        break;
      }
      if (stopping_) return;  // stopping_ and drained
      // Another worker took the task it saw: spin on to the same deadline.
    }
    const InsidePoolGuard guard;
    task();  // exceptions propagate through the packaged_task's future
  }
}

ThreadPool& ThreadPool::shared() {
  g_shared_pool_built.store(true);
  static ThreadPool pool(g_shared_pool_size.load());
  return pool;
}

void ThreadPool::configure_shared(std::size_t threads) {
  expects(!g_shared_pool_built.load(),
          "ThreadPool::configure_shared: the shared pool was already built "
          "by an earlier shared()/parallel_for use; configure worker counts "
          "(e.g. --jobs) before any parallel work runs");
  g_shared_pool_size.store(threads);
}

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (count == 0) return;
  grain = std::max<std::size_t>(1, grain);

  auto& pool = ThreadPool::shared();
  const std::size_t chunks =
      std::min((count + grain - 1) / grain, pool.size() + 1);
  if (chunks <= 1 || t_inside_pool) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  const auto loop = std::make_shared<LoopState>(count, grain, fn);
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    pool.submit([loop] { loop->help(); });
  }
  {
    // The caller participates, guaranteeing forward progress; its share
    // runs as pool work, so what it nests stays serial on this thread.
    const InsidePoolGuard guard;
    loop->drain();
  }
  loop->wait_for_helpers();
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

}  // namespace mood::support
