#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

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
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
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

  // Dynamic scheduling: workers pull the next index from a shared counter,
  // which balances the skewed per-user costs of the protection search.
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto body = [&] {
    for (;;) {
      const std::size_t begin = cursor.fetch_add(grain);
      if (begin >= count || failed.load(std::memory_order_relaxed)) return;
      const std::size_t end = std::min(begin + grain, count);
      try {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  for (std::size_t c = 0; c + 1 < chunks; ++c) {
    futures.push_back(pool.submit(body));
  }
  {
    // The caller participates, guaranteeing forward progress; its share
    // runs as pool work, so what it nests stays serial on this thread.
    const InsidePoolGuard guard;
    body();
  }
  for (auto& f : futures) f.get();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mood::support
