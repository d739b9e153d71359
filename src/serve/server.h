#ifndef SARA_SERVE_SERVER_H
#define SARA_SERVE_SERVER_H

/**
 * @file
 * sarad — the resident compile-and-simulate service. Composes the
 * existing libraries into a long-running daemon:
 *
 *   - transport: newline-delimited JSON (src/serve/protocol) over a
 *     Unix-domain stream socket; one reader thread per connection,
 *     responses matched to requests by client-chosen id (a pipelined
 *     connection may see them out of order).
 *   - admission control: a bounded jobs::FairQueue. When the backlog
 *     hits the configured depth, or a tenant's queued requests hit its
 *     weighted share of that depth, requests are rejected immediately
 *     with a structured `rejected` response carrying a retry_after_ms
 *     hint derived from the observed service rate — the daemon never
 *     queues unboundedly and never hangs a client.
 *   - fairness: weighted stride scheduling across the per-request
 *     `tenant` field (jobs::FairQueue); equal-weight tenants at equal
 *     offered load complete within a hair of each other even at
 *     saturation.
 *   - dedup + warm caches: a request's (workload, par, scale) tuple
 *     fixes its program and inputs, so one memo keyed by the tuple is
 *     sarad's in-memory table. An entry keeps the tuple's decoded
 *     CompileResult (with its artifact SHA-256 content key), from its
 *     first `run` the built workload and, after its first `check`, the
 *     interpreter's reference tensors; each is filled by the first
 *     request that needs it while concurrent requests on the tuple
 *     wait. A repeat builds, hashes, compiles and interprets nothing.
 *     Only the request that fills the compile calls
 *     artifact::CachingCompiler, which probes the on-disk artifact
 *     cache and collapses identical concurrent compiles into one.
 *   - failure isolation: worker exceptions become structured `error`
 *     responses (HangError carries the full FailureReport JSON);
 *     TransientErrors are retried through the batch runner's
 *     jobs::retryTransient. A poisoned request can never take the
 *     daemon down.
 *   - crash-only serving: connections are bounded (overflow gets a
 *     structured `overloaded` line, never an unbounded reader thread);
 *     reader loops poll with deadlines — a slow-loris client that
 *     stalls mid-request-line, or an idle client past its timeout, is
 *     shed with a structured error. A watchdog thread enforces a
 *     per-request wall-clock deadline by cancelling the simulation
 *     (cooperative cancel flag polled per simulated cycle) and turns
 *     the resulting FailureReport (flight-recorder timeline included)
 *     into an error response — the worker thread and daemon survive.
 *     A per-workload circuit breaker trips after repeated poison
 *     failures and rejects further requests for that workload until a
 *     cool-down elapses (half-open: one probe request re-tests it).
 *     Socket fault injection (sock-torn-write, sock-drop) tears
 *     response writes to prove clients and daemon survive.
 *   - observability: the `stats` verb snapshots the global metrics
 *     registry plus per-tenant admission/latency statistics
 *     (p50/p99 from log-bucketed histograms) — a live endpoint, not a
 *     post-mortem report — plus connection, watchdog, breaker and
 *     artifact-cache (quarantine) sections.
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "artifact/cache.h"
#include "jobs/fair.h"
#include "serve/protocol.h"

namespace sara::serve {

/** Log-bucketed latency histogram: bucket k counts samples in
 *  [2^k, 2^(k+1)) microseconds. Quantiles report the bucket upper
 *  bound — coarse, but monotone and allocation-free. */
class LatencyHisto
{
  public:
    void
    record(double ms)
    {
        double us = ms * 1e3;
        size_t b = 0;
        while (b + 1 < buckets_.size() && us >= double(2ULL << b))
            ++b;
        ++buckets_[b];
        ++count_;
        sumMs_ += ms;
    }

    uint64_t count() const { return count_; }
    double meanMs() const { return count_ ? sumMs_ / count_ : 0.0; }

    /** q in [0,1]; returns the upper bound (ms) of the bucket holding
     *  the q-quantile sample (0 when empty). */
    double
    quantileMs(double q) const
    {
        if (!count_)
            return 0.0;
        uint64_t rank = static_cast<uint64_t>(q * (count_ - 1)) + 1;
        uint64_t seen = 0;
        for (size_t b = 0; b < buckets_.size(); ++b) {
            seen += buckets_[b];
            if (seen >= rank)
                return double(2ULL << b) / 1e3;
        }
        return double(2ULL << (buckets_.size() - 1)) / 1e3;
    }

  private:
    std::array<uint64_t, 40> buckets_{};
    uint64_t count_ = 0;
    double sumMs_ = 0.0;
};

/** Daemon configuration. */
struct ServerOptions
{
    std::string socketPath = "sarad.sock";
    /** Worker threads; 0 = hardware concurrency. */
    int workers = 0;
    /** Admission bound: max queued (not yet executing) requests. */
    size_t queueDepth = 64;
    /** On-disk artifact cache directory; without useDiskCache,
     *  compile results live in memory only. */
    std::string cacheDir;
    bool useDiskCache = false;
    /** Request tuples kept in memory, each with its compile result,
     *  workload and reference; least recently used evicted first. 0
     *  keeps none: every request compiles (or joins a compile in
     *  flight, or reads the disk). */
    size_t memCacheEntries = 64;
    /** Total attempts for TransientError requests (1 = no retry). */
    int maxAttempts = 2;
    /** Simulator cycle budget applied when a request doesn't set one. */
    uint64_t defaultMaxCycles = 0;
    /** Per-tenant scheduling weights (absent tenants weigh 1.0). */
    std::map<std::string, double> tenantWeights;

    // --- Crash-only serving knobs ------------------------------------
    /** Concurrent connection bound; the overflow connection gets one
     *  structured `overloaded` response and is closed (no reader
     *  thread is ever spawned for it). */
    size_t maxConnections = 256;
    /** How long a partial request line may sit without progress before
     *  the connection is shed (slow-loris defense). 0 = no deadline. */
    double readDeadlineMs = 30000.0;
    /** Idle shed: connections with no outstanding requests and no
     *  received bytes for this long are closed. 0 = never. */
    double idleTimeoutMs = 0.0;
    /** Watchdog: wall-clock deadline per admitted request. A request
     *  still executing past it is cancelled (cooperative flag polled
     *  by the simulator each cycle) and answered with a structured
     *  error carrying the FailureReport. 0 = watchdog off. */
    double requestDeadlineMs = 0.0;
    /** Circuit breaker: consecutive failures of one workload that trip
     *  its breaker. 0 = breaker off. */
    int breakerThreshold = 8;
    /** How long a tripped breaker rejects before half-opening. */
    double breakerCooldownMs = 1000.0;
    /** Host-level fault injection (disk faults into the artifact
     *  cache, socket faults into response writes, compile faults into
     *  the compiler). Not owned; may be null. */
    const fault::FaultInjector *fault = nullptr;
};

/** The resident service. start() binds and spawns threads; wait()
 *  blocks until a shutdown request (or requestStop()) drains the
 *  daemon. Construction is cheap and throws nothing; start() fatal()s
 *  when the socket cannot be bound. */
class Server
{
  public:
    explicit Server(ServerOptions opt);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    void start();
    void wait();
    /** Idempotent; also triggered by the shutdown verb. */
    void requestStop();
    bool stopping() const { return stopping_.load(); }

    const std::string &socketPath() const { return opt_.socketPath; }
    int workers() const { return workers_; }

    /** The stats payload (a JSON object, not a full response line) —
     *  shared by the stats verb and tests. */
    std::string statsJson() const;

  private:
    struct Conn;
    struct Ticket
    {
        Request req;
        std::shared_ptr<Conn> conn;
        std::chrono::steady_clock::time_point enqueued;
    };
    struct TenantStats
    {
        uint64_t admitted = 0;
        uint64_t completed = 0;
        uint64_t rejected = 0;
        uint64_t errors = 0;
        LatencyHisto queueMs;
        LatencyHisto serviceMs;
        LatencyHisto totalMs;
    };

    /** One executing request, registered for the watchdog. */
    struct Inflight
    {
        std::atomic<bool> cancel{false};
        std::chrono::steady_clock::time_point started;
        std::string id;
        std::string workload;
    };
    /** Per-workload circuit breaker state. */
    struct Breaker
    {
        int consecutiveFailures = 0;
        bool open = false;
        bool probeInFlight = false; ///< Half-open: one request re-tests.
        std::chrono::steady_clock::time_point openedAt;
        uint64_t trips = 0;
        uint64_t rejected = 0;
    };

    /** What one request tuple fixes; defined in server.cc. */
    struct Memo;
    using MemoKey = std::tuple<std::string, int, int>;

    void acceptLoop();
    void reapReaders();
    void readerLoop(std::shared_ptr<Conn> conn);
    void workerLoop();
    void watchdogLoop();
    /** Handle every complete line in `pending` and erase them,
     *  leaving the trailing partial line. */
    void handleLines(const std::shared_ptr<Conn> &conn,
                     std::string &pending);
    void handleLine(const std::shared_ptr<Conn> &conn,
                    const std::string &line);
    void execute(const Ticket &ticket);
    std::string executeCompileOrRun(const Request &req, double queueMs,
                                    double &serviceMs,
                                    const std::atomic<bool> *cancel);
    void sendLine(const std::shared_ptr<Conn> &conn,
                  const std::string &line);
    double retryAfterHintMs() const;
    /** Breaker admission check; fills `line` with the rejection when
     *  the workload's breaker is open. */
    bool breakerAllows(const Request &req, std::string &line);
    void breakerRecord(const std::string &workload, bool failed);
    /** The memo entry for `req`'s (workload, par, scale), inserted
     *  empty when absent (a private one when memCacheEntries is 0). */
    std::shared_ptr<Memo> memoFor(const Request &req);

    ServerOptions opt_;
    int workers_ = 0;
    int listenFd_ = -1;
    std::atomic<bool> started_{false};
    std::atomic<bool> stopping_{false};

    jobs::FairQueue<Ticket> queue_;
    std::unique_ptr<artifact::ArtifactCache> cache_;
    std::unique_ptr<artifact::CachingCompiler> compiler_;

    // Request-tuple memo, at most memCacheEntries, least recently used
    // evicted first.
    std::mutex memoMu_;
    std::map<MemoKey, std::shared_ptr<Memo>> memo_;
    uint64_t memoTick_ = 0;

    // Tenant statistics + service-rate EWMA for retry hints.
    mutable std::mutex statsMu_;
    std::map<std::string, TenantStats> tenants_;
    double ewmaServiceMs_ = 10.0;
    std::chrono::steady_clock::time_point epoch_;

    // Watchdog registry of executing requests.
    mutable std::mutex inflightMu_;
    std::map<uint64_t, std::shared_ptr<Inflight>> inflight_;
    uint64_t inflightSeq_ = 0;
    std::atomic<bool> watchdogStop_{false};
    std::thread watchdogThread_;

    // Per-workload circuit breakers.
    mutable std::mutex breakerMu_;
    std::map<std::string, Breaker> breakers_;

    // Startup cache-recovery outcome (disk cache only).
    artifact::ArtifactCache::RecoveryStats recovery_;

    std::thread acceptThread_;
    std::vector<std::thread> workerThreads_;
    // Reader threads paired with their connection; finished readers
    // are reaped (joined + erased) by the accept loop, so the daemon
    // never accumulates dead threads across connection churn.
    mutable std::mutex connMu_;
    std::vector<std::pair<std::shared_ptr<Conn>, std::thread>> readers_;
    uint64_t connSeq_ = 0;
};

} // namespace sara::serve

#endif // SARA_SERVE_SERVER_H
