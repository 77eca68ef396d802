/**
 * @file
 * A work-stealing thread pool for the experiment harness.
 *
 * Sweep cells are extremely uneven (a full-detail iperf run costs
 * ~100x an emulated SPEC cell), so a single shared queue would
 * serialize on the mutex at the fine end while a static partition
 * would idle half the workers at the coarse end. The classic answer
 * is per-worker deques with stealing: a worker pops newest-first
 * from its own deque (cache-warm) and steals oldest-first from a
 * victim (largest remaining work in recursive-split workloads).
 *
 * The implementation favors clarity over lock-free cleverness: each
 * deque has its own mutex, and contention is negligible because
 * tasks here are milliseconds to minutes, not microseconds.
 *
 * Determinism note: the pool guarantees nothing about execution
 * order — harness determinism comes from tasks writing to
 * preassigned result slots and from aggregation running after
 * wait() in a fixed order (see sweep_run.cc).
 */

#ifndef OSP_DRIVER_THREAD_POOL_HH
#define OSP_DRIVER_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace osp
{

/** See file comment. */
class WorkStealingPool
{
  public:
    /** Start @p threads workers (clamped to >= 1). */
    explicit WorkStealingPool(unsigned threads);

    /** Waits for all submitted work, then joins the workers. */
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /**
     * Enqueue a task. Round-robins across worker deques so the
     * initial distribution is balanced; stealing handles the rest.
     * Tasks must not throw (the harness has no cross-thread error
     * channel; tasks record failures in their result slots).
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    struct Deque
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void workerLoop(std::size_t self);

    /** Pop from own back, else steal from another's front. */
    bool takeTask(std::size_t self, std::function<void()> &out);

    std::vector<std::unique_ptr<Deque>> deques_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::size_t outstanding_ = 0;  //!< submitted, not yet finished
    std::size_t pending_ = 0;      //!< submitted, not yet started
    std::size_t nextDeque_ = 0;
    bool stopping_ = false;
};

} // namespace osp

#endif // OSP_DRIVER_THREAD_POOL_HH
