#ifndef SARA_JOBS_JOBS_H
#define SARA_JOBS_JOBS_H

/**
 * @file
 * Parallel batch job runner: executes whole workload suites —
 * compile (cache-aware via artifact::CachingCompiler) and simulate —
 * with bounded concurrency on a thread pool.
 *
 * Semantics:
 *  - Bounded concurrency: at most `threads` jobs run at once (default
 *    = hardware concurrency, capped by the job count).
 *  - Cancellation on first fatal error: when a job throws and
 *    `cancelOnError` is set, jobs that have not started yet are marked
 *    cancelled and never run; jobs already running drain normally.
 *    runBatch never returns with work still in flight — the pool is
 *    drained before the report is built, so side effects of cancelled
 *    batches (cache stores, report files) are always complete, never
 *    torn.
 *  - Bounded retry: jobs failing with support::TransientError are
 *    retried up to `maxAttempts` times with linear backoff; any other
 *    exception fails the job immediately.
 *  - Per-job telemetry: each outcome records queue->start->end wall
 *    clock relative to the batch epoch plus the worker that ran it;
 *    the batch can emit a Chrome trace (one lane per worker) and bumps
 *    jobs.* counters in the global metrics registry.
 *
 * Results preserve submission order regardless of completion order, so
 * batch output (reports, BENCH_*.json rows) stays deterministic.
 */

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace sara::jobs {

/** One schedulable unit of work. `fn` reports failure by throwing. */
struct Job
{
    std::string name;
    std::function<void()> fn;
};

/** What happened to one job. */
struct JobOutcome
{
    std::string name;
    enum class Status { Ok, Failed, Cancelled } status = Status::Ok;
    std::string error;    ///< Exception text when Failed.
    double startMs = 0.0; ///< Relative to the batch epoch.
    double durMs = 0.0;
    int worker = -1;      ///< Pool thread that ran it (-1: never ran).
    int retries = 0;      ///< Transient-failure retries consumed.

    bool ok() const { return status == Status::Ok; }
};

/** Batch configuration. */
struct BatchOptions
{
    /** Accepted worker-thread counts (`-j`, `--workers`) and transient
     *  retries (`--retries`) on every command line; leaving the thread
     *  flag out means all cores. */
    static constexpr int kMinThreads = 1, kMaxThreads = 256;
    static constexpr int kMinRetries = 0, kMaxRetries = 100;

    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    int threads = 0;
    /** Stop launching new jobs after the first failure. */
    bool cancelOnError = true;
    /** Total attempts per job (1 = no retry). Only failures thrown as
     *  support::TransientError are retried. */
    int maxAttempts = 1;
    /** Backoff before retry k is `retryBackoffMs * k` milliseconds. */
    double retryBackoffMs = 2.0;
    /** When non-empty, write a Chrome trace of the batch schedule
     *  (one lane per worker) here. */
    std::string traceFile;
};

/** Batch summary. `outcomes[i]` corresponds to `jobs[i]`. */
struct BatchReport
{
    std::vector<JobOutcome> outcomes;
    double wallMs = 0.0;
    int threads = 0;

    int succeeded() const;
    int failed() const;
    int cancelled() const;
    bool allOk() const { return failed() == 0 && cancelled() == 0; }
    /** First failure message (empty when none). */
    std::string firstError() const;
};

/**
 * Run `jobs` on a bounded pool and block until the batch drains.
 * Never throws on job failure — failures land in the report.
 */
BatchReport runBatch(std::vector<Job> jobs,
                     const BatchOptions &options = {});

/**
 * Convenience: run `fn(i)` for i in [0, n) with bounded concurrency,
 * naming jobs `prefix#i`. Ordering guarantees match runBatch.
 */
BatchReport forEachIndex(size_t n, const std::string &prefix,
                         const std::function<void(size_t)> &fn,
                         const BatchOptions &options = {});

/**
 * A reusable fixed-size worker pool. runBatch is built on top; the
 * pool is exposed for callers with streaming workloads.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(int threads);
    ~ThreadPool();
    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int threads() const { return static_cast<int>(workers_.size()); }

    /** Enqueue a task. The task receives the worker index. */
    void submit(std::function<void(int)> task);

    /** Block until every submitted task has finished. */
    void drain();

  private:
    void workerLoop(int index);

    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable cv_;      ///< Queue not empty / shutdown.
    std::condition_variable idleCv_;  ///< All work drained.
    std::queue<std::function<void(int)>> queue_;
    int active_ = 0;
    bool shutdown_ = false;
};

} // namespace sara::jobs

#endif // SARA_JOBS_JOBS_H
