#include "jobs/jobs.h"

#include <atomic>
#include <chrono>

#include "support/logging.h"
#include "support/telemetry.h"

namespace sara::jobs {

namespace {

double
msSince(std::chrono::steady_clock::time_point epoch)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

} // namespace

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 2 : static_cast<int>(hw);
    }
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void(int)> task)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        SARA_ASSERT(!shutdown_, "ThreadPool: submit after shutdown");
        queue_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop(int index)
{
    while (true) {
        std::function<void(int)> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] {
                return shutdown_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // Shutdown with nothing left to do.
            task = std::move(queue_.front());
            queue_.pop();
            ++active_;
        }
        task(index);
        {
            std::lock_guard<std::mutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idleCv_.notify_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Batch runner
// ---------------------------------------------------------------------------

int
BatchReport::succeeded() const
{
    int n = 0;
    for (const auto &o : outcomes)
        n += o.status == JobOutcome::Status::Ok;
    return n;
}

int
BatchReport::failed() const
{
    int n = 0;
    for (const auto &o : outcomes)
        n += o.status == JobOutcome::Status::Failed;
    return n;
}

int
BatchReport::cancelled() const
{
    int n = 0;
    for (const auto &o : outcomes)
        n += o.status == JobOutcome::Status::Cancelled;
    return n;
}

std::string
BatchReport::firstError() const
{
    for (const auto &o : outcomes)
        if (o.status == JobOutcome::Status::Failed)
            return o.name + ": " + o.error;
    return "";
}

void
retryTransient(const std::function<void()> &fn, int maxAttempts,
               const std::string &what, const char *counter,
               int *retries, const std::atomic<bool> *stop)
{
    for (int attempt = 1;; ++attempt) {
        try {
            fn();
            return;
        } catch (const TransientError &e) {
            if (attempt >= maxAttempts ||
                (stop && stop->load(std::memory_order_relaxed)))
                throw;
            if (retries)
                ++*retries;
            telemetry::Registry::global().add(counter);
            warn(what, ": transient failure (attempt ", attempt, "/",
                 maxAttempts, "): ", e.what());
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(
                    kRetryBackoffMs * attempt));
        }
    }
}

BatchReport
runBatch(std::vector<Job> jobs, const BatchOptions &options)
{
    BatchReport report;
    report.outcomes.resize(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        report.outcomes[i].name = jobs[i].name;
    if (jobs.empty())
        return report;

    int threads = options.threads;
    if (threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 2 : static_cast<int>(hw);
    }
    threads = std::min<int>(threads, static_cast<int>(jobs.size()));

    auto epoch = std::chrono::steady_clock::now();
    std::atomic<bool> cancelled{false};

    {
        ThreadPool pool(threads);
        for (size_t i = 0; i < jobs.size(); ++i) {
            pool.submit([&, i](int worker) {
                JobOutcome &out = report.outcomes[i];
                if (cancelled.load(std::memory_order_relaxed)) {
                    out.status = JobOutcome::Status::Cancelled;
                    return;
                }
                out.worker = worker;
                out.startMs = msSince(epoch);
                try {
                    // Never retry into a cancelled batch.
                    retryTransient(jobs[i].fn, options.maxAttempts,
                                   "job " + jobs[i].name,
                                   "jobs.retried", &out.retries,
                                   &cancelled);
                    out.status = JobOutcome::Status::Ok;
                } catch (const std::exception &e) {
                    out.status = JobOutcome::Status::Failed;
                    out.error = e.what();
                    cancelled.store(true, std::memory_order_relaxed);
                    warn("job ", jobs[i].name, " failed: ", e.what());
                } catch (...) {
                    out.status = JobOutcome::Status::Failed;
                    out.error = "unknown exception";
                    cancelled.store(true, std::memory_order_relaxed);
                }
                out.durMs = msSince(epoch) - out.startMs;
            });
        }
        pool.drain();
    }

    report.wallMs = msSince(epoch);
    report.threads = threads;

    auto &reg = telemetry::Registry::global();
    reg.add("jobs.completed", report.succeeded());
    reg.add("jobs.failed", report.failed());
    reg.add("jobs.cancelled", report.cancelled());

    if (!options.traceFile.empty()) {
        telemetry::ChromeTraceWriter w(options.traceFile);
        if (w.ok()) {
            w.processName(0, "batch jobs (wall clock)");
            for (int t = 0; t < threads; ++t)
                w.threadName(0, t, "worker " + std::to_string(t));
            for (const auto &o : report.outcomes) {
                if (o.worker < 0)
                    continue;
                w.complete(0, o.worker, o.name, o.startMs * 1e3,
                           o.durMs * 1e3);
            }
            w.close();
            inform("wrote batch trace to ", options.traceFile);
        }
    }
    return report;
}

BatchReport
forEachIndex(size_t n, const std::string &prefix,
             const std::function<void(size_t)> &fn,
             const BatchOptions &options)
{
    std::vector<Job> jobs;
    jobs.reserve(n);
    for (size_t i = 0; i < n; ++i)
        jobs.push_back(
            {prefix + "#" + std::to_string(i), [&fn, i] { fn(i); }});
    return runBatch(std::move(jobs), options);
}

} // namespace sara::jobs
