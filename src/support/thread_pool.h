#pragma once

/// \file thread_pool.h
/// A fixed-size thread pool and a blocking parallel_for built on top of it.
///
/// MooD's hot paths — training attacks across users, the per-user
/// protection search, and the candidates within one search — are
/// embarrassingly parallel over immutable shared state, so a plain chunked
/// parallel_for is all the machinery we need.
///
/// Nesting: a parallel_for runs serially on any thread that is already
/// doing pool work, i.e. a pool worker or a parallel_for caller running
/// its own share. So only the outermost loop fans out: a search nested in
/// a per-user loop stays on its thread, while a search called from a plain
/// std::thread (a gateway shard worker) spreads over the pool.
///
/// Handoff: parallel_for queues helper tasks and runs a share itself. Its
/// loop state lives in a shared_ptr the helpers hold, and a helper
/// registers before it claims an iteration, so the caller returns as soon
/// as every iteration was claimed and no claimed one is still running. A
/// helper that starts later (queued behind other callers' tasks) finds the
/// loop exhausted, touches only that shared state and exits.
///
/// Spin, then park: an idle worker, and a caller waiting for claimed
/// iterations, poll with std::this_thread::yield() for kSpinBound (200 µs)
/// before parking. Waking a parked thread took 13 µs at p50, 25 µs at p90
/// and 160–200 µs at p99 on a 4-vCPU host (a condition_variable probe),
/// against 50–150 µs of work per composition-level node, so a helper that
/// has to be woken arrives after the caller ran most of the level. Work
/// that arrives within the bound needs no wake-up; work that arrives later
/// pays one, and the spin before it never cost more than a park/wake round
/// trip. Idle workers poll a relaxed queued-task count, not the mutex.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mood::support {

/// Fixed-size pool of worker threads executing queued tasks FIFO.
/// Thread-safe; destruction drains the queue and joins all workers.
class ThreadPool {
 public:
  /// Creates `threads` workers (default: hardware concurrency, min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the future resolves when it has run.
  std::future<void> submit(std::function<void()> task);

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Process-wide shared pool, sized to the machine. Use this instead of
  /// constructing nested pools inside library code.
  static ThreadPool& shared();

  /// Sets the worker count of the shared pool (0 = hardware concurrency).
  ///
  /// Contract (enforced, not advisory): the shared pool is built lazily
  /// exactly once, on the first shared() call — which parallel_for and
  /// everything built on it (harness evaluators, the stream gateway's
  /// finish()) performs implicitly. configure_shared must therefore run
  /// before ANY of those; once the pool exists, reconfiguration throws
  /// PreconditionError instead of silently keeping the old worker count.
  /// Calling it several times before the pool is built is fine (the last
  /// value wins). This backs the CLI's --jobs flag; call it from main()
  /// before touching the library, never from library code.
  static void configure_shared(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  // queue_.size(), written under mutex_ and polled by spinning workers.
  std::atomic<std::size_t> queued_{0};
  // Set under mutex_; spinning workers poll it too.
  std::atomic<bool> stopping_{false};
};

/// Runs fn(i) for every i in [0, count), chunked across the shared pool.
/// The calling thread runs a share itself. Returns once every iteration
/// was claimed and every claimed iteration completed; helper tasks that
/// have not started by then never call fn. Exceptions from iterations are
/// rethrown (the first one encountered) after every claimed iteration
/// ended. Serial, in index order, when called from inside pool work (see
/// the file comment) or when one chunk covers the range.
///
/// fn must be safe to invoke concurrently for distinct i.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace mood::support
