#include "src/util/thread_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <utility>

#include "src/obs/metrics.h"

namespace cyrus {
namespace {

// Process-wide aggregates across every pool instance: one transfer pool is
// typical, but benches build several, and a per-pool label would leak an
// unbounded series per constructed pool.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Default().GetGauge(
      "cyrus_threadpool_queue_depth", {}, "Tasks waiting in thread-pool queues");
  return gauge;
}

obs::Gauge* ActiveWorkersGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Default().GetGauge(
      "cyrus_threadpool_active_workers", {}, "Worker threads currently running a task");
  return gauge;
}

obs::Counter* TasksCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "cyrus_threadpool_tasks_total", {}, "Tasks submitted to any thread pool");
  return counter;
}

// Pipeline instruments follow the same process-wide pattern: the depth
// gauge is what a dashboard watches to see whether the in-flight window is
// actually being filled, and the stall series says how often (and for how
// long) the driver blocked because the window was full.
obs::Gauge* PipelineDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Default().GetGauge(
      "cyrus_pipeline_depth", {},
      "Tasks in flight across all ordered pipelines (admitted, completion "
      "not yet delivered)");
  return gauge;
}

obs::Counter* PipelineTasksCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "cyrus_pipeline_tasks_total", {}, "Tasks admitted to ordered pipelines");
  return counter;
}

obs::Counter* PipelineStallsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Default().GetCounter(
      "cyrus_pipeline_stalls_total", {},
      "Times a pipeline driver blocked on a full in-flight window");
  return counter;
}

obs::Histogram* PipelineStallHistogram() {
  static obs::Histogram* histogram = obs::MetricsRegistry::Default().GetHistogram(
      "cyrus_pipeline_stall_ms", {}, {},
      "Milliseconds a pipeline driver spent blocked per window stall");
  return histogram;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  assert(num_threads >= 1);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& thread : threads_) {
    thread.join();
  }
}

void ThreadPool::Enqueue(Task task, bool background) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (task.group != nullptr) {
      ++task.group->pending_;
    }
    (background ? background_queue_ : queue_).push(std::move(task));
    ++in_flight_;
  }
  TasksCounter()->Increment();
  QueueDepthGauge()->Add(1.0);
  work_available_.notify_one();
}

void ThreadPool::Submit(std::function<void()> task) {
  Enqueue(Task{std::move(task), nullptr}, /*background=*/false);
}

void ThreadPool::Submit(TaskGroup& group, std::function<void()> task) {
  Enqueue(Task{std::move(task), &group}, /*background=*/false);
}

void ThreadPool::SubmitBackground(std::function<void()> task) {
  Enqueue(Task{std::move(task), nullptr}, /*background=*/true);
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WaitGroup(TaskGroup& group) {
  std::unique_lock<std::mutex> lock(mutex_);
  while (group.pending_ > 0) {
    if (!queue_.empty()) {
      // Help: run queued work (not necessarily this group's) instead of
      // blocking, so fork-join sections nest without starving the pool.
      RunOneTask(lock);
    } else {
      group.done_.wait(lock);
    }
  }
}

void ThreadPool::RunOneTask(std::unique_lock<std::mutex>& lock) {
  std::queue<Task>& source = queue_.empty() ? background_queue_ : queue_;
  Task task = std::move(source.front());
  source.pop();
  lock.unlock();
  QueueDepthGauge()->Add(-1.0);
  ActiveWorkersGauge()->Add(1.0);
  task.fn();
  ActiveWorkersGauge()->Add(-1.0);
  lock.lock();
  if (task.group != nullptr && --task.group->pending_ == 0) {
    task.group->done_.notify_all();
  }
  if (--in_flight_ == 0) {
    all_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_available_.wait(lock, [this] {
      return shutting_down_ || !queue_.empty() || !background_queue_.empty();
    });
    if (queue_.empty() && background_queue_.empty()) {
      return;  // shutting down and drained
    }
    RunOneTask(lock);
  }
}

// ---------------------------------------------------------------------------
// OrderedPipeline
// ---------------------------------------------------------------------------

OrderedPipeline::OrderedPipeline(ThreadPool* pool, Options options)
    : pool_(pool), options_(options) {
  if (options_.max_in_flight < 1) {
    options_.max_in_flight = 1;
  }
}

OrderedPipeline::~OrderedPipeline() {
  // Join outstanding work so pool tasks never outlive caller-owned state
  // they capture; undelivered completions are intentionally dropped (the
  // caller abandoned the pipeline, e.g. by early-returning on an error).
  std::unique_lock<std::mutex> lock(mutex_);
  head_done_.wait(lock, [this] {
    for (const Entry& entry : window_) {
      if (!entry.work_done) {
        return false;
      }
    }
    return true;
  });
  for (const Entry& entry : window_) {
    PipelineDepthGauge()->Add(-1.0);
    (void)entry;
  }
  window_.clear();
}

void OrderedPipeline::MarkWorkDone(size_t sequence) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Delivery only pops finished entries, so an in-flight task's slot is
  // always still in the window.
  window_[sequence - base_sequence_].work_done = true;
  head_done_.notify_all();
}

void OrderedPipeline::DeliverReady(std::unique_lock<std::mutex>& lock) {
  while (!window_.empty() && window_.front().work_done) {
    Entry entry = std::move(window_.front());
    window_.pop_front();
    ++base_sequence_;
    PipelineDepthGauge()->Add(-1.0);
    const bool run_callback = first_error_.ok();
    lock.unlock();
    if (run_callback) {
      Status status = entry.on_complete();
      lock.lock();
      if (!status.ok() && first_error_.ok()) {
        first_error_ = status;
      }
    } else {
      lock.lock();
    }
  }
}

Status OrderedPipeline::Submit(std::function<void()> work,
                               std::function<Status()> on_complete) {
  std::unique_lock<std::mutex> lock(mutex_);
  DeliverReady(lock);

  // Window admission: block until the window has room.
  const auto window_full = [this] { return window_.size() >= options_.max_in_flight; };
  if (window_full()) {
    PipelineStallsCounter()->Increment();
    const auto stall_start = std::chrono::steady_clock::now();
    while (window_full()) {
      head_done_.wait(lock, [this] {
        return !window_.empty() && window_.front().work_done;
      });
      DeliverReady(lock);
    }
    const double stalled =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  stall_start)
            .count();
    stall_ms_ += stalled;
    PipelineStallHistogram()->Observe(stalled);
  }
  if (!first_error_.ok()) {
    return first_error_;  // pipeline latched an error; admit nothing new
  }

  const size_t sequence = next_sequence_++;
  window_.push_back(Entry{std::move(on_complete), /*work_done=*/false});
  max_depth_seen_ = std::max(max_depth_seen_, window_.size());
  PipelineDepthGauge()->Add(1.0);
  PipelineTasksCounter()->Increment();

  if (pool_ == nullptr) {
    lock.unlock();
    work();
    lock.lock();
    window_[sequence - base_sequence_].work_done = true;
  } else {
    lock.unlock();
    pool_->Submit([this, sequence, work = std::move(work)] {
      work();
      MarkWorkDone(sequence);
    });
    lock.lock();
  }
  DeliverReady(lock);
  return first_error_;
}

Status OrderedPipeline::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!window_.empty()) {
    head_done_.wait(lock,
                    [this] { return window_.empty() || window_.front().work_done; });
    DeliverReady(lock);
  }
  return first_error_;
}

double OrderedPipeline::stall_ms() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stall_ms_;
}

size_t OrderedPipeline::max_depth_seen() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return max_depth_seen_;
}

}  // namespace cyrus
