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
  bool stopping_ = false;
};

/// Runs fn(i) for every i in [0, count), chunked across the shared pool.
/// The calling thread runs a share itself. Blocks until all iterations
/// completed. Exceptions from iterations are rethrown (the first one
/// encountered) after all chunks finish. Serial, in index order, when
/// called from inside pool work (see the file comment) or when one chunk
/// covers the range.
///
/// fn must be safe to invoke concurrently for distinct i.
void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 1);

}  // namespace mood::support
