// A fixed-size thread pool for parallel share transfers, plus the
// task-graph primitives the pipelined transfer engine builds on.
//
// The paper's prototype runs uploads/downloads on dedicated threads with an
// asynchronous event receiver (§5.3, architecture component 3). CYRUS's
// client uses this pool to issue the per-share connector calls of one
// chunk concurrently (ChunkWriter's first upload pass, ChunkReader's
// primary downloads).
//
// Two primitives sit on top of the raw pool:
//
//   TaskGroup      - a fork-join scope that is safe to wait on *from inside
//                    a pool task*: the waiting thread helps execute queued
//                    tasks instead of blocking, so nested parallel sections
//                    (a pipelined chunk fanning out its n share uploads)
//                    cannot deadlock the pool.
//   OrderedPipeline- a bounded sliding window of tasks whose completion
//                    callbacks fire strictly in submission order on the
//                    driver thread. This is the engine behind pipelined
//                    Put/Get: chunk i+1 encodes and uploads while chunk i
//                    is still in flight, but all metadata bookkeeping stays
//                    single-threaded and file-ordered.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "src/util/status.h"

namespace cyrus {

class ThreadPool {
 public:
  // A join counter for one fork-join section. Create on the stack, submit
  // tasks against it, then WaitGroup(). Not movable: tasks hold a pointer.
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

   private:
    friend class ThreadPool;
    size_t pending_ = 0;  // guarded by the pool's mutex_
    std::condition_variable done_;
  };

  // num_threads must be >= 1.
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  // Enqueues a task that counts against `group`; the group must outlive
  // the task's execution (WaitGroup before it leaves scope).
  void Submit(TaskGroup& group, std::function<void()> task);

  // Enqueues a background-priority task: workers only pick it up when the
  // foreground queue is empty, so bulk prefetch (chunk readahead) never
  // delays a pipelined Put/Get already waiting for a thread. Background
  // tasks still count toward Wait() and are drained at destruction.
  void SubmitBackground(std::function<void()> task);

  // Blocks until every task submitted against `group` has finished. Safe
  // to call from inside a pool task: while the group is unfinished the
  // calling thread executes queued tasks (any task, not just the group's),
  // so a task waiting on its subtasks keeps the pool making progress.
  void WaitGroup(TaskGroup& group);

  // Blocks until every submitted task has finished executing. Only
  // meaningful from outside the pool (a worker calling this deadlocks on
  // its own task); prefer TaskGroup scopes for composable sections.
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  // Runs `count` tasks produced by `make_task(i)` and waits for all of
  // them. Convenience for fork-join sections; uses a TaskGroup internally,
  // so it is safe to call from inside a pool task.
  template <typename MakeTask>
  void ParallelFor(size_t count, MakeTask make_task) {
    TaskGroup group;
    for (size_t i = 0; i < count; ++i) {
      Submit(group, [i, &make_task] { make_task(i); });
    }
    WaitGroup(group);
  }

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  void WorkerLoop();
  // Pops and runs the front task - foreground queue first, background
  // otherwise. Requires `lock` held on entry; releases it around the task
  // body and reacquires before returning.
  void RunOneTask(std::unique_lock<std::mutex>& lock);
  void Enqueue(Task task, bool background);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::queue<Task> queue_;
  std::queue<Task> background_queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

// Runs fn(0) .. fn(count - 1) and returns when all have finished: on
// `pool` when it is non-null and there is more than one task, inline in
// index order otherwise.
template <typename Fn>
void ParallelFor(ThreadPool* pool, size_t count, Fn fn) {
  if (pool != nullptr && count > 1) {
    pool->ParallelFor(count, fn);
    return;
  }
  for (size_t i = 0; i < count; ++i) {
    fn(i);
  }
}

// Runs tasks concurrently on a ThreadPool while delivering their
// completion callbacks strictly in submission order, with a bounded
// in-flight window so memory stays O(window) regardless of how much work
// is fed through.
//
// Contract:
//   - Submit() blocks while the window is full;
//     the blocked time is surfaced as cyrus_pipeline_stall_* metrics.
//   - `work` runs on the pool (or inline when the pool is null).
//   - `on_complete` runs on the driver thread - the one calling Submit()
//     and Drain() - after the task's own work finished AND every earlier
//     task's on_complete returned. This single-threads all bookkeeping.
//   - The first on_complete error latches: later completions are skipped
//     (their work is still joined) and Submit()/Drain() return the error.
//   - Exactly one thread may drive a pipeline; work tasks run anywhere.
class OrderedPipeline {
 public:
  struct Options {
    // Maximum tasks admitted but not yet completion-delivered. 1 degrades
    // to fully sequential execution (the pre-pipeline behavior).
    size_t max_in_flight = 4;
  };

  // `pool` may be null: work then runs inline in Submit (still ordered).
  OrderedPipeline(ThreadPool* pool, Options options);

  // Joins outstanding work; completions not yet delivered are dropped
  // (callers that care must Drain() and check the status).
  ~OrderedPipeline();

  OrderedPipeline(const OrderedPipeline&) = delete;
  OrderedPipeline& operator=(const OrderedPipeline&) = delete;

  // Admits one task, blocking until the window has room. Completions of
  // finished predecessors are delivered from inside this call.
  Status Submit(std::function<void()> work, std::function<Status()> on_complete);

  // Waits for all in-flight work and delivers the remaining completions
  // in order. Returns the first error any on_complete produced.
  Status Drain();

  // Milliseconds Submit() spent blocked on a full window so far.
  double stall_ms() const;
  // Largest number of simultaneously in-flight tasks observed.
  size_t max_depth_seen() const;

 private:
  struct Entry {
    std::function<Status()> on_complete;
    bool work_done = false;
  };

  // Delivers completions of every finished head-of-line entry. Requires
  // `lock` held; releases it around each callback.
  void DeliverReady(std::unique_lock<std::mutex>& lock);
  void MarkWorkDone(size_t sequence);

  ThreadPool* pool_;
  Options options_;

  mutable std::mutex mutex_;
  std::condition_variable head_done_;
  std::deque<Entry> window_;   // window_[0] is the oldest undelivered task
  size_t base_sequence_ = 0;   // sequence number of window_[0]
  size_t next_sequence_ = 0;
  Status first_error_;
  double stall_ms_ = 0.0;
  size_t max_depth_seen_ = 0;
};

}  // namespace cyrus

#endif  // SRC_UTIL_THREAD_POOL_H_
