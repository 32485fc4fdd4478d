/**
 * @file
 * A fixed-size worker pool with a blocking parallel-for, and work
 * offered to a pool that its owner can claim back (ClaimableTask).
 *
 * The functional scoring engines use this to actually compute predictions
 * over large batches quickly. Note that pool size never influences
 * *simulated* time: modeled latencies are computed from HardwareProfile
 * parameters, not wall clock, so results are machine-independent.
 */
#ifndef DBSCORE_COMMON_THREAD_POOL_H
#define DBSCORE_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dbscore {

/**
 * Row count below which functional batch loops run inline on the
 * calling thread: under this many rows the chunk-dispatch overhead
 * outweighs the parallel win. Shared by every batch scoring path
 * (RandomForest, ForestKernel, Hummingbird's perfect-tree traversal)
 * so the cutoff is tuned in one place.
 */
inline constexpr std::size_t kParallelRowCutoff = 4096;

/** A simple task-queue thread pool. */
class ThreadPool {
 public:
    /** Creates @p num_threads workers; 0 means hardware_concurrency(). */
    explicit ThreadPool(std::size_t num_threads = 0);

    /** Equivalent to Shutdown(); never throws and never hangs. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    std::size_t size() const { return size_; }

    /**
     * Stops accepting work, runs already-queued tasks to completion, and
     * joins every worker. Idempotent: safe to call repeatedly and again
     * from the destructor, including after a partially constructed pool —
     * only joinable workers are joined, so teardown can never hang on a
     * thread that was already reaped.
     */
    void Shutdown();

    /** True once Shutdown() has begun. */
    bool stopped() const;

    /**
     * Enqueues one standalone task. Long-running tasks (e.g. service
     * worker loops) each permanently occupy one worker, so size the pool
     * accordingly. @throws InvalidArgument after Shutdown().
     */
    void Submit(std::function<void()> task);

    /**
     * Runs fn(i) for i in [0, count), split into contiguous chunks across
     * the pool, and blocks until every index has been processed. Exceptions
     * thrown by @p fn propagate (the first one captured is rethrown).
     */
    void ParallelFor(std::size_t count,
                     const std::function<void(std::size_t)>& fn);

    /**
     * Chunked variant: runs fn(begin, end) on contiguous ranges. Lower
     * dispatch overhead for tight per-row loops. After Shutdown() the
     * whole range runs inline on the calling thread instead of hanging
     * on a dead queue.
     */
    void ParallelForChunked(
        std::size_t count,
        const std::function<void(std::size_t, std::size_t)>& fn);

    /**
     * Grained variant: no chunk is smaller than @p min_chunk indices
     * (except the last), bounding per-chunk dispatch overhead for
     * cheap per-index work. min_chunk 0 or 1 behaves like the
     * ungrained overload.
     */
    void ParallelForChunked(
        std::size_t count, std::size_t min_chunk,
        const std::function<void(std::size_t, std::size_t)>& fn);

    /** Process-wide shared pool (lazily constructed). */
    static ThreadPool& Shared();

 private:
    void Enqueue(std::function<void()> task);
    void WorkerLoop();

    std::vector<std::thread> workers_;
    std::size_t size_ = 0;
    std::queue<std::function<void()>> tasks_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Work offered to a ThreadPool that its owner can take back. A worker
 * that dequeues it first runs it; Join() runs it on the calling thread
 * if no worker has started it, and otherwise waits for the worker that
 * has. So the owner never waits on work still queued behind other
 * tasks, and owners that are pool tasks themselves cannot deadlock
 * however busy the pool is. The destructor cancels work no worker has
 * started and waits for work one has, so the work may read the owner's
 * stack.
 */
class ClaimableTask {
 public:
    /** Queues @p work on @p pool. @throws InvalidArgument after Shutdown(). */
    ClaimableTask(ThreadPool& pool, std::function<void()> work);
    ~ClaimableTask();

    ClaimableTask(const ClaimableTask&) = delete;
    ClaimableTask& operator=(const ClaimableTask&) = delete;

    /**
     * Returns once the work has run, here or on a worker; rethrows
     * what it threw. Call at most once.
     */
    void Join();

 private:
    struct State;
    std::shared_ptr<State> state_;
};

}  // namespace dbscore

#endif  // DBSCORE_COMMON_THREAD_POOL_H
