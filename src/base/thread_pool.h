// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// A deliberately small fixed-size thread pool for query-level parallelism:
// no priorities, no dynamic resizing — a locked FIFO queue drained by
// `size()` workers. Submit returns a std::future, so values and exceptions
// both propagate to the joining thread (std::packaged_task stores a thrown
// exception in the shared state).
//
// Sizing note for callers that block on futures: a task must never Submit
// and then passively wait on the same pool — a worker blocked on a task
// queued behind it deadlocks. Callers that need to join work they fanned
// out have two safe shapes: wait only for tasks that are already *running*
// (the XQuery engine's parallel loops wait for claimed bindings, never for
// queued helper tasks — a helper that starts late finds the claim cursor
// exhausted and returns), and
// call RunPendingTask() while waiting so the blocked thread drains the
// queue instead of sleeping on it.

#ifndef MHX_BASE_THREAD_POOL_H_
#define MHX_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace mhx::base {

// The fixed-size fan-out pool described in the file comment: locked FIFO
// queue, future-based results, and RunPendingTask() so joining threads
// drain the backlog instead of sleeping on it.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least one).
  explicit ThreadPool(size_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Drains nothing: queued-but-unstarted tasks still run before the workers
  // exit, so every future obtained from Submit becomes ready.
  ~ThreadPool();

  size_t size() const { return workers_.size(); }

  // Enqueues `fn` and returns the future for its result. The future carries
  // the task's return value or, if the task throws, its exception.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    // packaged_task is move-only; std::function requires copyable targets,
    // so the task rides behind a shared_ptr.
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task]() { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  // Pops one queued task, if any, and runs it on the calling thread.
  // Returns false when the queue was empty. Safe from any thread,
  // including pool workers; lets a thread that must wait for fanned-out
  // work make progress on the backlog instead of blocking behind it.
  bool RunPendingTask();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

}  // namespace mhx::base

#endif  // MHX_BASE_THREAD_POOL_H_
