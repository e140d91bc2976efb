#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size worker pool with an exception-propagating parallel_for.
///
/// Its users (the driver's rank execution phase, the tuning service's
/// per-function sweep shards, whole-run bench sweeps) are embarrassingly
/// parallel: every work item owns its state and the caller merges results
/// in a fixed order.  This pool provides exactly that shape:
///
///   - a fixed number of worker threads created once (no per-call spawn);
///   - parallel_for(n, body): the calling thread participates, indices are
///     claimed from an atomic cursor, and the call returns only after every
///     index completed.  The first exception thrown by any body is captured
///     and rethrown on the calling thread (remaining indices are skipped);
///   - submit(f): a future-returning escape hatch for irregular tasks.
///
/// A pool of size 1 has no workers at all: parallel_for degenerates to a
/// plain inline loop.  Determinism is the caller's job (and easy): run
/// items concurrently, reduce in index order.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gsph::util {

class ThreadPool {
public:
    /// `n_threads` counts the calling thread: a pool of size N runs
    /// parallel_for bodies on N-1 workers plus the caller.  Values <= 0
    /// resolve to the hardware concurrency.
    explicit ThreadPool(int n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Total concurrency (workers + the calling thread); always >= 1.
    int size() const { return size_; }

    /// Map a thread-count request to an effective pool size: <= 0 means
    /// "use the hardware concurrency", anything else is taken as-is.
    static int resolve_threads(int requested);

    /// Run body(0) .. body(n-1), concurrently when the pool has workers.
    /// Blocks until every index finished.  The first exception from any
    /// body is rethrown here; once one is captured, unclaimed indices are
    /// skipped.  Bodies must synchronize access to shared state themselves
    /// (the usual pattern: write to a per-index slot, reduce after).
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

    /// Enqueue one task; the future carries its result or exception.  On a
    /// pool of size 1 (no workers) the task runs inline before returning.
    template <typename F>
    std::future<std::invoke_result_t<F>> submit(F f)
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::move(f));
        std::future<R> future = task->get_future();
        if (workers_.empty()) {
            (*task)();
        }
        else {
            enqueue([task]() { (*task)(); });
        }
        return future;
    }

private:
    void enqueue(std::function<void()> job);
    void worker_loop();

    int size_ = 1;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false;
};

} // namespace gsph::util
