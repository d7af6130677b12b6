/**
 * @file
 * Tests for engine::ThreadPool: result delivery, FIFO start order,
 * exception propagation through futures, and clean shutdown while the
 * queue is still loaded.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/engine/thread_pool.h"
#include "src/util/error.h"

namespace hiermeans {
namespace engine {
namespace {

TEST(ThreadPoolTest, RejectsZeroThreads)
{
    EXPECT_THROW(ThreadPool(0), InvalidArgument);
}

TEST(ThreadPoolTest, ReturnsTaskResultsThroughFutures)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i]() { return i * i; }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInSubmissionOrder)
{
    ThreadPool pool(1);
    std::mutex mutex;
    std::vector<int> order;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 50; ++i) {
        futures.push_back(pool.submit([i, &mutex, &order]() {
            std::lock_guard<std::mutex> lock(mutex);
            order.push_back(i);
        }));
    }
    for (auto &future : futures)
        future.get();
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, PropagatesExceptionsWithoutKillingWorkers)
{
    // One worker, so the follow-up task runs on the worker that threw.
    ThreadPool pool(1);
    // Shared, so this thread holds the failed task's state until the
    // follow-up has returned. The worker has dropped its reference by
    // then, and the exception is freed here, on the thread that read
    // it, in an order ThreadSanitizer can see.
    const auto bad =
        pool.submit([]() -> int { throw std::runtime_error("task boom"); })
            .share();
    EXPECT_THROW(
        {
            try {
                bad.get();
            } catch (const std::runtime_error &e) {
                EXPECT_STREQ(e.what(), "task boom");
                throw;
            }
        },
        std::runtime_error);

    // The worker that ran the throwing task must still be alive.
    auto good = pool.submit([]() { return 7; });
    EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasksUnderLoad)
{
    std::atomic<int> executed{0};
    std::vector<std::future<void>> futures;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            futures.push_back(pool.submit([&executed]() {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
                ++executed;
            }));
        }
        pool.shutdown();
        EXPECT_EQ(pool.pendingTasks(), 0u);
    }
    // Every accepted task ran; no future was abandoned.
    EXPECT_EQ(executed.load(), 64);
    for (auto &future : futures) {
        EXPECT_EQ(future.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
    }
}

TEST(ThreadPoolTest, SubmitAfterShutdownThrows)
{
    ThreadPool pool(1);
    pool.shutdown();
    EXPECT_THROW(pool.submit([]() { return 1; }), InvalidArgument);
}

TEST(ThreadPoolTest, DestructorJoinsWithoutExplicitShutdown)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 20; ++i)
            pool.submit([&executed]() { ++executed; });
    }
    EXPECT_EQ(executed.load(), 20);
}

TEST(ThreadPoolTest, RunsTasksConcurrentlyAcrossWorkers)
{
    ThreadPool pool(4);
    std::mutex mutex;
    std::condition_variable all_started;
    int started = 0;

    // Four tasks that only finish once all four have started: passes
    // iff the pool really runs them on distinct threads.
    std::vector<std::future<std::thread::id>> futures;
    for (int i = 0; i < 4; ++i) {
        futures.push_back(pool.submit([&]() {
            std::unique_lock<std::mutex> lock(mutex);
            ++started;
            all_started.notify_all();
            all_started.wait(lock, [&]() { return started == 4; });
            return std::this_thread::get_id();
        }));
    }
    std::set<std::thread::id> distinct;
    for (auto &future : futures)
        distinct.insert(future.get());
    EXPECT_EQ(distinct.size(), 4u);
}

} // namespace
} // namespace engine
} // namespace hiermeans
