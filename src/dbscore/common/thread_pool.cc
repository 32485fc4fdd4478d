#include "dbscore/common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "dbscore/common/error.h"

namespace dbscore {

ThreadPool::ThreadPool(std::size_t num_threads)
{
    if (num_threads == 0) {
        num_threads = std::max<std::size_t>(
            1, std::thread::hardware_concurrency());
    }
    size_ = num_threads;
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
        workers_.emplace_back([this] { WorkerLoop(); });
    }
}

ThreadPool::~ThreadPool()
{
    Shutdown();
}

void
ThreadPool::Shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    // Idempotent teardown: a second Shutdown (or the destructor after an
    // explicit Shutdown) finds nothing joinable and returns immediately.
    for (auto& w : workers_) {
        if (w.joinable()) {
            w.join();
        }
    }
    workers_.clear();
}

bool
ThreadPool::stopped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_;
}

void
ThreadPool::Submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_) {
            throw InvalidArgument("thread pool: Submit after Shutdown");
        }
        tasks_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::Enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::WorkerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
            if (stop_ && tasks_.empty()) {
                return;
            }
            task = std::move(tasks_.front());
            tasks_.pop();
        }
        task();
    }
}

void
ThreadPool::ParallelFor(std::size_t count,
                        const std::function<void(std::size_t)>& fn)
{
    ParallelForChunked(count, [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            fn(i);
        }
    });
}

void
ThreadPool::ParallelForChunked(
    std::size_t count,
    const std::function<void(std::size_t, std::size_t)>& fn)
{
    ParallelForChunked(count, 1, fn);
}

void
ThreadPool::ParallelForChunked(
    std::size_t count, std::size_t min_chunk,
    const std::function<void(std::size_t, std::size_t)>& fn)
{
    if (count == 0) {
        return;
    }
    std::size_t num_chunks =
        std::min(count, std::max<std::size_t>(1, size() * 4));
    if (min_chunk > 1) {
        num_chunks = std::min(
            num_chunks,
            std::max<std::size_t>(1, count / min_chunk));
    }
    if (num_chunks <= 1 || stopped()) {
        fn(0, count);
        return;
    }

    std::atomic<std::size_t> remaining{num_chunks};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr first_error;
    std::mutex error_mutex;

    const std::size_t chunk = (count + num_chunks - 1) / num_chunks;
    for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t begin = c * chunk;
        const std::size_t end = std::min(count, begin + chunk);
        Enqueue([&, begin, end] {
            try {
                if (begin < end) {
                    fn(begin, end);
                }
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
            if (remaining.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(done_mutex);
                done_cv.notify_all();
            }
        });
    }

    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return remaining.load() == 0; });
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

ThreadPool&
ThreadPool::Shared()
{
    static ThreadPool pool;
    return pool;
}

struct ClaimableTask::State {
    static constexpr int kQueued = 0;
    static constexpr int kRunning = 1;
    static constexpr int kDone = 2;

    std::atomic<int> phase{kQueued};
    std::function<void()> work;
    std::exception_ptr error;
};

ClaimableTask::ClaimableTask(ThreadPool& pool, std::function<void()> work)
    : state_(std::make_shared<State>())
{
    state_->work = std::move(work);
    // The queued task owns the state, not the work's captures: after
    // the owner has claimed it back the task only finds it taken.
    pool.Submit([state = state_] {
        int queued = State::kQueued;
        if (!state->phase.compare_exchange_strong(queued, State::kRunning)) {
            return;
        }
        try {
            state->work();
        } catch (...) {
            state->error = std::current_exception();
        }
        state->phase.store(State::kDone);
        state->phase.notify_all();
    });
}

ClaimableTask::~ClaimableTask()
{
    int queued = State::kQueued;
    if (!state_->phase.compare_exchange_strong(queued, State::kDone)) {
        state_->phase.wait(State::kRunning);
    }
}

void
ClaimableTask::Join()
{
    int queued = State::kQueued;
    if (state_->phase.compare_exchange_strong(queued, State::kDone)) {
        state_->work();
        return;
    }
    state_->phase.wait(State::kRunning);
    if (state_->error) {
        std::rethrow_exception(state_->error);
    }
}

}  // namespace dbscore
