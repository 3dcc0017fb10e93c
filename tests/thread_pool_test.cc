#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "src/util/thread_pool.h"

namespace cyrus {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndex) {
  ThreadPool pool(3);
  std::vector<int> hits(50, 0);
  pool.ParallelFor(50, [&](size_t i) { hits[i] = 1; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, TasksActuallyRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  pool.ParallelFor(8, [&](size_t) {
    const int now = inside.fetch_add(1) + 1;
    int expected = max_inside.load();
    while (now > expected && !max_inside.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    inside.fetch_sub(1);
  });
  EXPECT_GT(max_inside.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 5; ++wave) {
    pool.ParallelFor(20, [&](size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }  // destructor joins
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  std::mutex mu;
  pool.ParallelFor(10, [&](size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order.size(), 10u);
}

TEST(TaskGroupTest, WaitGroupJoinsExactlyItsOwnTasks) {
  ThreadPool pool(4);
  std::atomic<int> group_a{0};
  std::atomic<int> group_b{0};
  ThreadPool::TaskGroup a;
  ThreadPool::TaskGroup b;
  for (int i = 0; i < 20; ++i) {
    pool.Submit(a, [&] { group_a.fetch_add(1); });
    pool.Submit(b, [&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      group_b.fetch_add(1);
    });
  }
  pool.WaitGroup(a);
  EXPECT_EQ(group_a.load(), 20);  // b may still be running; a must be done
  pool.WaitGroup(b);
  EXPECT_EQ(group_b.load(), 20);
}

TEST(TaskGroupTest, NestedForkJoinFromInsideAPoolTaskDoesNotDeadlock) {
  // A pipelined chunk runs ScatterChunk on a pool thread, which fans its n
  // share uploads out with ParallelFor. With as many outer tasks as
  // threads, a blocking wait would deadlock; the work-assist wait must let
  // the outer tasks execute their own subtasks.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(OrderedPipelineTest, CompletionsDeliverInSubmissionOrder) {
  ThreadPool pool(4);
  OrderedPipeline::Options options;
  options.max_in_flight = 4;
  OrderedPipeline pipeline(&pool, options);
  std::vector<int> delivered;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(pipeline
                    .Submit(
                        [i] {
                          // Earlier tasks sleep longer, so raw completion
                          // order is roughly *reversed*; delivery must
                          // still be 0, 1, 2, ...
                          std::this_thread::sleep_for(
                              std::chrono::microseconds((32 - i) * 50));
                        },
                        [i, &delivered]() -> Status {
                          delivered.push_back(i);
                          return OkStatus();
                        })
                    .ok());
  }
  ASSERT_TRUE(pipeline.Drain().ok());
  ASSERT_EQ(delivered.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(delivered[i], i);
  }
}

TEST(OrderedPipelineTest, WindowBoundsInFlightTasks) {
  ThreadPool pool(8);
  OrderedPipeline::Options options;
  options.max_in_flight = 3;
  OrderedPipeline pipeline(&pool, options);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(pipeline
                    .Submit(
                        [&] {
                          const int now = inside.fetch_add(1) + 1;
                          int expected = max_inside.load();
                          while (now > expected &&
                                 !max_inside.compare_exchange_weak(expected, now)) {
                          }
                          std::this_thread::sleep_for(std::chrono::microseconds(200));
                          inside.fetch_sub(1);
                        },
                        [] { return OkStatus(); })
                    .ok());
  }
  ASSERT_TRUE(pipeline.Drain().ok());
  EXPECT_LE(max_inside.load(), 3);
  EXPECT_LE(pipeline.max_depth_seen(), 3u);
}

TEST(OrderedPipelineTest, FirstErrorLatchesAndSkipsLaterCompletions) {
  ThreadPool pool(4);
  OrderedPipeline::Options options;
  options.max_in_flight = 2;
  OrderedPipeline pipeline(&pool, options);
  std::atomic<int> later_completions{0};
  // A fast worker lets Submit deliver the task's own completion before it
  // returns, so even the first Submit may surface the latched error.
  const Status first = pipeline.Submit([] {}, [] { return InternalError("chunk 0 failed"); });
  EXPECT_TRUE(first.ok() || first.code() == StatusCode::kInternal) << first;
  // Later submissions may observe the latched error (Submit surfaces it)
  // or slip in before delivery; either way their completions never run.
  for (int i = 0; i < 6; ++i) {
    (void)pipeline.Submit(
        [] {},
        [&later_completions] {
          later_completions.fetch_add(1);
          return OkStatus();
        });
  }
  const Status drained = pipeline.Drain();
  EXPECT_EQ(drained.code(), StatusCode::kInternal);
  EXPECT_EQ(later_completions.load(), 0);
}

TEST(OrderedPipelineTest, NullPoolRunsInlineAndOrdered) {
  OrderedPipeline::Options options;
  options.max_in_flight = 4;
  OrderedPipeline pipeline(nullptr, options);
  std::vector<int> delivered;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pipeline
                    .Submit(
                        [] {},
                        [i, &delivered] {
                          delivered.push_back(i);
                          return OkStatus();
                        })
                    .ok());
  }
  ASSERT_TRUE(pipeline.Drain().ok());
  ASSERT_EQ(delivered.size(), 10u);
  EXPECT_TRUE(std::is_sorted(delivered.begin(), delivered.end()));
}

TEST(OrderedPipelineTest, WindowOfOneIsFullySequential) {
  ThreadPool pool(4);
  OrderedPipeline::Options options;
  options.max_in_flight = 1;
  OrderedPipeline pipeline(&pool, options);
  std::atomic<int> inside{0};
  bool overlap = false;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(pipeline
                    .Submit(
                        [&] {
                          if (inside.fetch_add(1) != 0) {
                            overlap = true;  // read post-drain only
                          }
                          inside.fetch_sub(1);
                        },
                        [] { return OkStatus(); })
                    .ok());
  }
  ASSERT_TRUE(pipeline.Drain().ok());
  EXPECT_FALSE(overlap);
  EXPECT_EQ(pipeline.max_depth_seen(), 1u);
}

}  // namespace
}  // namespace cyrus
