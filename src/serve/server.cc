#include "serve/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "fault/failure.h"
#include "jobs/jobs.h"
#include "runtime/run.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "workloads/workload.h"

namespace sara::serve {

namespace {

double
msBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

void
count(const char *name, uint64_t delta = 1)
{
    telemetry::Registry::global().add(name, delta);
}

/** The workload `req` names, at its par and scale. */
std::shared_ptr<const workloads::Workload>
buildWorkload(const Request &req)
{
    workloads::WorkloadConfig cfg;
    cfg.par = req.par;
    cfg.scale = req.scale;
    count("serve.workload.built");
    return std::make_shared<const workloads::Workload>(
        workloads::buildByName(req.workload, cfg));
}

} // namespace

/** One accepted connection: the fd plus a write lock so worker and
 *  reader threads interleave whole response lines, never bytes. */
struct Server::Conn
{
    int fd = -1;
    uint64_t id = 0;
    std::string site; ///< Injection site name ("conn-<id>").
    std::mutex writeMu;
    std::atomic<bool> open{true};
    /** Reader thread exited; the accept loop reaps (joins) it. */
    std::atomic<bool> readerDone{false};
    /** Admitted requests not yet answered — an idle check must not
     *  shed a client that is just waiting for its response. */
    std::atomic<int> outstanding{0};

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/** The one in-memory home of a request tuple (workload, par, scale).
 *  The tuple fixes the program and its inputs, and the compiler is
 *  fixed for the life of the process, so nothing here goes stale. The
 *  compile result, the built workload and the interpreter's reference
 *  tensors are each filled by the first request that needs them while
 *  concurrent requests on the tuple wait. A run keeps the workload for
 *  its inputs; a compile builds the program only to compile it, so a
 *  tuple that is only compiled keeps no program and no inputs. */
struct Server::Memo
{
    using Compiled = artifact::CachingCompiler::Compiled;

    uint64_t lastUse = 0; ///< Guarded by Server::memoMu_.

    /** The tuple's compile result, and for a run its workload in `w`.
     *  The first caller compiles the program through `compile` under
     *  the entry's lock, so concurrent callers wait for that compile
     *  instead of starting their own; a compile that throws leaves no
     *  result, so the next caller compiles afresh. `kept` tells
     *  whether the entry already held the result. */
    template <typename Compile>
    const Compiled &
    compiled(const Request &req, std::shared_ptr<const workloads::Workload> &w,
             bool &kept, Compile &&compile)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (req.verb == Verb::Run && !built)
            built = buildWorkload(req);
        w = built;
        kept = result.has_value();
        if (!kept)
            result = compile(built ? built->program
                                   : buildWorkload(req)->program);
        return *result; // Never reassigned once set.
    }

    /** The interpreter's final tensors for `compiled` (the tuple's
     *  compiled program) on `input`'s inputs, computed by the first
     *  caller; concurrent callers wait for it. */
    const runtime::Tensors &
    reference(const ir::Program &compiled, const workloads::Workload &input)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (!ref) {
            ref = runtime::referenceTensors(compiled, input);
            count("serve.reference.computed");
        }
        return *ref; // Never reassigned once set.
    }

  private:
    std::mutex mu;
    std::shared_ptr<const workloads::Workload> built; ///< Guarded by mu.
    std::optional<Compiled> result;                   ///< Guarded by mu.
    std::optional<runtime::Tensors> ref;              ///< Guarded by mu.
};

Server::Server(ServerOptions opt)
    : opt_(std::move(opt)), queue_(opt_.queueDepth)
{
    workers_ = opt_.workers;
    if (workers_ <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        workers_ = hw == 0 ? 2 : static_cast<int>(hw);
    }
    for (const auto &[tenant, weight] : opt_.tenantWeights)
        queue_.setWeight(tenant, weight);
    epoch_ = std::chrono::steady_clock::now();
}

Server::~Server()
{
    requestStop();
    if (started_.load())
        wait();
    if (listenFd_ >= 0)
        ::close(listenFd_);
}

void
Server::start()
{
    SARA_ASSERT(!started_.load(), "serve: start() called twice");
    telemetry::Registry::global().setEnabled(true);

    if (opt_.useDiskCache) {
        cache_ = std::make_unique<artifact::ArtifactCache>(
            opt_.cacheDir);
        inform("sarad: artifact cache at ", cache_->dir());
        // Crash-only discipline: the recovery path is the startup
        // path. Sweep before any worker can read or write an entry.
        recovery_ = cache_->recover();
        if (opt_.fault)
            cache_->setFaultInjector(opt_.fault);
    }
    compiler_ = std::make_unique<artifact::CachingCompiler>(cache_.get());
    if (opt_.fault)
        compiler_->setFaultInjector(opt_.fault);

    if (opt_.socketPath.size() >= sizeof(sockaddr_un{}.sun_path))
        fatal("sarad: socket path too long: ", opt_.socketPath);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("sarad: socket(): ", std::strerror(errno));
    ::unlink(opt_.socketPath.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, opt_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0)
        fatal("sarad: bind(", opt_.socketPath,
              "): ", std::strerror(errno));
    if (::listen(listenFd_, 64) < 0)
        fatal("sarad: listen(): ", std::strerror(errno));

    started_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
    workerThreads_.reserve(workers_);
    for (int i = 0; i < workers_; ++i)
        workerThreads_.emplace_back([this] { workerLoop(); });
    if (opt_.requestDeadlineMs > 0)
        watchdogThread_ = std::thread([this] { watchdogLoop(); });
    inform("sarad: serving on ", opt_.socketPath, " with ", workers_,
           " workers, queue depth ", opt_.queueDepth,
           ", connection bound ", opt_.maxConnections);
}

void
Server::requestStop()
{
    if (stopping_.exchange(true))
        return;
    queue_.stop();
}

void
Server::wait()
{
    SARA_ASSERT(started_.load(), "serve: wait() before start()");
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Workers drain the admitted backlog, then exit on the stopped
    // queue's nullopt. The watchdog stays alive through the drain so a
    // stuck request cannot wedge shutdown.
    for (auto &w : workerThreads_)
        if (w.joinable())
            w.join();
    watchdogStop_.store(true);
    if (watchdogThread_.joinable())
        watchdogThread_.join();
    // Unblock readers parked in poll()/recv() and collect them.
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (const auto &[c, t] : readers_)
            if (c->open.load())
                ::shutdown(c->fd, SHUT_RDWR);
    }
    for (;;) {
        std::pair<std::shared_ptr<Conn>, std::thread> r;
        {
            std::lock_guard<std::mutex> lock(connMu_);
            if (readers_.empty())
                break;
            r = std::move(readers_.back());
            readers_.pop_back();
        }
        if (r.second.joinable())
            r.second.join();
    }
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(opt_.socketPath.c_str());
    started_.store(false);
    inform("sarad: drained and stopped");
}

void
Server::reapReaders()
{
    // Join and drop finished reader threads so connection churn never
    // accumulates dead threads. Joins happen outside the lock.
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (auto it = readers_.begin(); it != readers_.end();) {
            if (it->first->readerDone.load()) {
                done.push_back(std::move(it->second));
                it = readers_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &t : done)
        if (t.joinable())
            t.join();
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int n = ::poll(&pfd, 1, 100);
        reapReaders();
        if (n <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        size_t active = 0;
        {
            // Count live readers only: a disconnected client whose
            // thread has finished but is not yet reaped must not hold
            // a connection slot against new arrivals.
            std::lock_guard<std::mutex> lock(connMu_);
            for (const auto &[c, t] : readers_)
                if (!c->readerDone.load())
                    ++active;
        }
        if (opt_.maxConnections > 0 && active >= opt_.maxConnections) {
            // Bounded connections: answer with a structured shed and
            // close — never spawn an unbounded reader thread. Count
            // first, so a client holding the reply sees it counted.
            count("serve.overloaded");
            std::string line =
                overloadedResponse(retryAfterHintMs()) + "\n";
            ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lock(connMu_);
            conn->id = ++connSeq_;
            conn->site = "conn-" + std::to_string(conn->id);
            readers_.emplace_back(conn, std::thread([this, conn] {
                                      readerLoop(conn);
                                  }));
        }
        count("serve.connections");
    }
}

void
Server::sendLine(const std::shared_ptr<Conn> &conn,
                 const std::string &line)
{
    if (!conn->open.load())
        return;
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (opt_.fault && opt_.fault->sockDrop(conn->site)) {
        // Injected: the connection dies before the response line.
        count("serve.fault.sock_drop");
        ::shutdown(conn->fd, SHUT_RDWR);
        conn->open.store(false);
        return;
    }
    std::string buf = line + "\n";
    if (opt_.fault && opt_.fault->sockTornWrite(conn->site)) {
        // Injected: the write tears mid-line (no newline ever
        // arrives) and the connection drops — the client must treat
        // the partial line as a dead connection, never parse it.
        count("serve.fault.sock_torn");
        size_t keep = std::max<size_t>(1, buf.size() / 2);
        ::send(conn->fd, buf.data(), keep, MSG_NOSIGNAL);
        ::shutdown(conn->fd, SHUT_RDWR);
        conn->open.store(false);
        return;
    }
    size_t off = 0;
    while (off < buf.size()) {
        ssize_t n = ::send(conn->fd, buf.data() + off,
                           buf.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
            // Peer vanished mid-response; drop the rest. The request
            // side effects (cache stores) are already complete.
            conn->open.store(false);
            return;
        }
        off += static_cast<size_t>(n);
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn)
{
    constexpr size_t kMaxLine = 1 << 20;
    constexpr int kPollMs = 20;
    std::string pending;
    char buf[4096];
    auto lastBytes = std::chrono::steady_clock::now();
    auto partialSince = lastBytes;
    // On shutdown the reader exits but must NOT mark the connection
    // closed: workers are still draining the admitted backlog and
    // their responses flow through this connection.
    bool keepOpen = false;
    while (conn->open.load()) {
        if (stopping_.load()) {
            // Final drain: requests the client already sent (buffered
            // in the socket or in `pending`) still deserve structured
            // answers — the stopped queue turns them into rejects.
            // Only immediately-available bytes count; nobody waits.
            for (;;) {
                pollfd pfd{conn->fd, POLLIN, 0};
                if (::poll(&pfd, 1, 0) <= 0)
                    break;
                ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
                if (n <= 0)
                    break;
                pending.append(buf, static_cast<size_t>(n));
            }
            handleLines(conn, pending);
            keepOpen = true;
            break;
        }
        pollfd pfd{conn->fd, POLLIN, 0};
        int p = ::poll(&pfd, 1, kPollMs);
        if (p < 0)
            break;
        auto now = std::chrono::steady_clock::now();
        if (p == 0) {
            // Deadline tick. A stalled partial request line is a
            // slow-loris; a quiet connection with nothing in flight
            // may be shed as idle. Both get one structured line so
            // the client knows why it was cut.
            if (!pending.empty() && opt_.readDeadlineMs > 0 &&
                msBetween(partialSince, now) > opt_.readDeadlineMs) {
                count("serve.shed.slowloris");
                sendLine(conn,
                         errorResponse("", "read deadline exceeded: "
                                           "partial request line"));
                break;
            }
            if (pending.empty() && opt_.idleTimeoutMs > 0 &&
                conn->outstanding.load() == 0 &&
                msBetween(lastBytes, now) > opt_.idleTimeoutMs) {
                count("serve.shed.idle");
                sendLine(conn, errorResponse(
                                   "", "idle timeout: shedding "
                                       "connection"));
                break;
            }
            continue;
        }
        ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n <= 0)
            break;
        if (pending.empty())
            partialSince = now;
        lastBytes = now;
        pending.append(buf, static_cast<size_t>(n));
        handleLines(conn, pending);
        // The deadline covers the *current* partial line: every byte
        // of progress resets it, so only a genuinely stalled client
        // trips it.
        if (!pending.empty())
            partialSince = now;
        if (pending.size() > kMaxLine) {
            sendLine(conn, errorResponse(
                               "", "request line exceeds 1 MiB"));
            break;
        }
    }
    if (!keepOpen)
        conn->open.store(false);
    conn->readerDone.store(true);
}

void
Server::handleLines(const std::shared_ptr<Conn> &conn,
                    std::string &pending)
{
    size_t start = 0;
    for (size_t nl; (nl = pending.find('\n', start)) != std::string::npos;
         start = nl + 1) {
        std::string line = pending.substr(start, nl - start);
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            handleLine(conn, line);
    }
    pending.erase(0, start);
}

void
Server::handleLine(const std::shared_ptr<Conn> &conn,
                   const std::string &line)
{
    Request req;
    try {
        req = parseRequest(line);
    } catch (const std::exception &e) {
        count("serve.parse_errors");
        sendLine(conn, errorResponse("", e.what()));
        return;
    }

    switch (req.verb) {
    case Verb::Stats: {
        // Served inline on the reader thread: observability must not
        // queue behind the work it is observing.
        ResponseBuilder b(req.id, "ok");
        b.kv("verb", "stats").raw("stats", statsJson());
        sendLine(conn, b.str());
        return;
    }
    case Verb::Shutdown: {
        sendLine(conn,
                 ResponseBuilder(req.id, "ok")
                     .kv("verb", "shutdown")
                     .str());
        inform("sarad: shutdown requested by client");
        requestStop();
        return;
    }
    case Verb::Compile:
    case Verb::Run:
        break;
    }

    // Conservation invariant (asserted by the chaos harness): every
    // well-formed compile/run request is counted exactly once here and
    // lands in exactly one of admitted / rejected.
    count("serve.requests");

    std::string breakerLine;
    if (!breakerAllows(req, breakerLine)) {
        count("serve.rejected");
        count("serve.breaker.rejected");
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++tenants_[req.tenant].rejected;
        }
        sendLine(conn, breakerLine);
        return;
    }

    Ticket t{req, conn, std::chrono::steady_clock::now()};
    if (!queue_.tryPush(req.tenant, std::move(t))) {
        count("serve.rejected");
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            ++tenants_[req.tenant].rejected;
        }
        sendLine(conn, rejectedResponse(req.id, retryAfterHintMs()));
        return;
    }
    conn->outstanding.fetch_add(1);
    count("serve.admitted");
    std::lock_guard<std::mutex> lock(statsMu_);
    ++tenants_[req.tenant].admitted;
}

bool
Server::breakerAllows(const Request &req, std::string &line)
{
    if (opt_.breakerThreshold <= 0)
        return true;
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(breakerMu_);
    auto it = breakers_.find(req.workload);
    if (it == breakers_.end() || !it->second.open)
        return true;
    Breaker &b = it->second;
    double sinceOpen = msBetween(b.openedAt, now);
    if (sinceOpen >= opt_.breakerCooldownMs && !b.probeInFlight) {
        // Half-open: let exactly one probe through to re-test the
        // workload; everyone else keeps getting rejected until the
        // probe's outcome closes or re-trips the breaker.
        b.probeInFlight = true;
        return true;
    }
    ++b.rejected;
    double retryMs =
        std::max(1.0, opt_.breakerCooldownMs - sinceOpen);
    line = breakerResponse(req.id, req.workload, retryMs);
    return false;
}

void
Server::breakerRecord(const std::string &workload, bool failed)
{
    if (opt_.breakerThreshold <= 0)
        return;
    std::lock_guard<std::mutex> lock(breakerMu_);
    Breaker &b = breakers_[workload];
    if (!failed) {
        b.consecutiveFailures = 0;
        if (b.open)
            inform("sarad: circuit breaker for '", workload,
                   "' closed (probe succeeded)");
        b.open = false;
        b.probeInFlight = false;
        return;
    }
    ++b.consecutiveFailures;
    if (b.open) {
        // The half-open probe failed: stay open, restart cool-down.
        b.openedAt = std::chrono::steady_clock::now();
        b.probeInFlight = false;
        return;
    }
    if (b.consecutiveFailures >= opt_.breakerThreshold) {
        b.open = true;
        b.probeInFlight = false;
        b.openedAt = std::chrono::steady_clock::now();
        ++b.trips;
        count("serve.breaker.tripped");
        warn("sarad: circuit breaker tripped for workload '", workload,
             "' after ", b.consecutiveFailures,
             " consecutive failures; cooling down ",
             opt_.breakerCooldownMs, " ms");
    }
}

double
Server::retryAfterHintMs() const
{
    // A full queue drains in ~depth/workers service times; suggest a
    // fraction of that so retries spread instead of thundering.
    std::lock_guard<std::mutex> lock(statsMu_);
    double drainMs = ewmaServiceMs_ *
                     static_cast<double>(opt_.queueDepth) /
                     std::max(1, workers_);
    return std::max(1.0, drainMs / 4.0);
}

void
Server::workerLoop()
{
    while (true) {
        std::optional<Ticket> t = queue_.pop();
        if (!t)
            return;
        execute(*t);
    }
}

void
Server::watchdogLoop()
{
    // Wall-clock deadline enforcement: scan the inflight registry and
    // raise the cancel flag on any request executing past the
    // deadline. The simulator polls the flag each simulated cycle and
    // surfaces the cancellation as a classified FailureReport — the
    // worker thread survives, the daemon keeps serving.
    const auto tick = std::chrono::milliseconds(
        std::max(1, static_cast<int>(opt_.requestDeadlineMs / 8)));
    while (!watchdogStop_.load()) {
        std::this_thread::sleep_for(
            std::min<std::chrono::milliseconds>(
                tick, std::chrono::milliseconds(50)));
        auto now = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(inflightMu_);
        for (auto &[seq, fl] : inflight_) {
            if (fl->cancel.load())
                continue;
            if (msBetween(fl->started, now) > opt_.requestDeadlineMs) {
                fl->cancel.store(true);
                count("serve.watchdog.cancelled");
                warn("sarad: watchdog cancelling request '", fl->id,
                     "' (", fl->workload, "): past ",
                     opt_.requestDeadlineMs, " ms deadline");
            }
        }
    }
}

std::shared_ptr<Server::Memo>
Server::memoFor(const Request &req)
{
    if (opt_.memCacheEntries == 0)
        return std::make_shared<Memo>();
    std::lock_guard<std::mutex> lock(memoMu_);
    auto [it, added] =
        memo_.try_emplace(MemoKey{req.workload, req.par, req.scale});
    if (added)
        it->second = std::make_shared<Memo>();
    it->second->lastUse = ++memoTick_;
    while (memo_.size() > opt_.memCacheEntries) {
        auto lru = memo_.begin();
        for (auto i = memo_.begin(); i != memo_.end(); ++i)
            if (i->second->lastUse < lru->second->lastUse)
                lru = i;
        memo_.erase(lru);
    }
    return it->second;
}

std::string
Server::executeCompileOrRun(const Request &req, double queueMs,
                            double &serviceMs,
                            const std::atomic<bool> *cancel)
{
    auto t0 = std::chrono::steady_clock::now();
    compiler::CompilerOptions copt; // Server-wide defaults.
    std::shared_ptr<Memo> m = memoFor(req);
    std::shared_ptr<const workloads::Workload> w; // Set for a run.
    bool kept = false;
    const Memo::Compiled &c =
        m->compiled(req, w, kept, [&](const ir::Program &program) {
            Memo::Compiled fresh;
            jobs::retryTransient(
                [&] { fresh = compiler_->compile(program, copt); },
                opt_.maxAttempts, "sarad: " + req.workload,
                "serve.retried");
            return fresh;
        });
    count(kept ? "serve.memcache.hit" : "serve.memcache.miss");

    ResponseBuilder b(req.id, "ok");
    b.kv("verb", verbName(req.verb))
        .kv("tenant", req.tenant)
        .kv("workload", req.workload)
        .kv("key", c.key)
        .kv("from_cache", kept || c.fromCache)
        .kv("deduped", !kept && c.deduped);

    if (req.verb == Verb::Run) {
        runtime::RunConfig rc;
        rc.compiler = copt;
        rc.sim.useNoc = req.noc;
        rc.sim.cancel = cancel;
        if (req.maxCycles)
            rc.sim.maxCycles = req.maxCycles;
        else if (opt_.defaultMaxCycles)
            rc.sim.maxCycles = opt_.defaultMaxCycles;
        rc.preCompiled = c.result.get();
        runtime::RunOutcome r = runtime::runWorkload(*w, rc);
        b.kv("cycles", r.sim.cycles)
            .kv("time_us", r.timeUs())
            .kv("gflops", r.gflops())
            .kv("dram_gbs", r.dramGBs());
        if (req.check) {
            bool correct = runtime::matchesReference(
                r.sim.tensors, m->reference(c.result->program, *w));
            if (!correct)
                warn("sarad: workload ", req.workload,
                     " produced results differing from the interpreter");
            b.kv("correct", correct);
        }
    }

    serviceMs = msBetween(t0, std::chrono::steady_clock::now());
    b.kv("queue_ms", queueMs).kv("service_ms", serviceMs);
    return b.str();
}

void
Server::execute(const Ticket &ticket)
{
    auto popped = std::chrono::steady_clock::now();
    double queueMs = msBetween(ticket.enqueued, popped);
    double serviceMs = 0.0;
    std::string response;
    bool failed = false;

    // Register with the watchdog for the whole execution.
    std::shared_ptr<Inflight> fl;
    uint64_t flSeq = 0;
    if (opt_.requestDeadlineMs > 0) {
        fl = std::make_shared<Inflight>();
        fl->started = popped;
        fl->id = ticket.req.id;
        fl->workload = ticket.req.workload;
        std::lock_guard<std::mutex> lock(inflightMu_);
        flSeq = ++inflightSeq_;
        inflight_.emplace(flSeq, fl);
    }

    try {
        response = executeCompileOrRun(ticket.req, queueMs, serviceMs,
                                       fl ? &fl->cancel : nullptr);
    } catch (const fault::HangError &e) {
        // Structured escalation: the classified FailureReport rides
        // inside the error response; the daemon keeps serving. A
        // watchdog cancellation surfaces here too, flagged on the
        // report so clients can tell a deadline kill from a hang.
        failed = true;
        const char *msg = e.report().cancelled
                              ? "request deadline exceeded: cancelled "
                                "by watchdog (see report)"
                              : "simulation hang: see report";
        response = ResponseBuilder(ticket.req.id, "error")
                       .kv("error", msg)
                       .raw("failure_report", e.report().json())
                       .str();
    } catch (const std::exception &e) {
        failed = true;
        response = errorResponse(ticket.req.id, e.what());
    } catch (...) {
        failed = true;
        response =
            errorResponse(ticket.req.id, "unknown internal error");
    }

    if (fl) {
        std::lock_guard<std::mutex> lock(inflightMu_);
        inflight_.erase(flSeq);
    }
    breakerRecord(ticket.req.workload, failed);

    if (failed)
        count("serve.errors");
    else
        count("serve.completed");

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        TenantStats &ts = tenants_[ticket.req.tenant];
        if (failed) {
            ++ts.errors;
        } else {
            ++ts.completed;
            ts.queueMs.record(queueMs);
            ts.serviceMs.record(serviceMs);
            ts.totalMs.record(queueMs + serviceMs);
            ewmaServiceMs_ =
                0.9 * ewmaServiceMs_ + 0.1 * std::max(0.01, serviceMs);
        }
    }
    sendLine(ticket.conn, response);
    ticket.conn->outstanding.fetch_sub(1);
}

std::string
Server::statsJson() const
{
    auto &reg = telemetry::Registry::global();
    json::Writer j;
    j.beginObject();
    j.kv("uptime_ms",
         msBetween(epoch_, std::chrono::steady_clock::now()));
    j.kv("workers", workers_);
    j.kv("queue_depth", static_cast<uint64_t>(queue_.depth()));
    j.kv("queue_limit", static_cast<uint64_t>(queue_.maxDepth()));

    j.key("connections").beginObject();
    {
        size_t active = 0;
        {
            std::lock_guard<std::mutex> lock(connMu_);
            for (const auto &[c, t] : readers_)
                if (!c->readerDone.load())
                    ++active;
        }
        j.kv("active", static_cast<uint64_t>(active));
        j.kv("limit", static_cast<uint64_t>(opt_.maxConnections));
        j.kv("read_deadline_ms", opt_.readDeadlineMs);
        j.kv("idle_timeout_ms", opt_.idleTimeoutMs);
    }
    j.endObject();

    j.key("watchdog").beginObject();
    {
        j.kv("enabled", opt_.requestDeadlineMs > 0);
        j.kv("request_deadline_ms", opt_.requestDeadlineMs);
        size_t executing;
        {
            std::lock_guard<std::mutex> lock(inflightMu_);
            executing = inflight_.size();
        }
        j.kv("executing", static_cast<uint64_t>(executing));
    }
    j.endObject();

    j.key("breakers").beginObject();
    {
        std::lock_guard<std::mutex> lock(breakerMu_);
        for (const auto &[workload, b] : breakers_) {
            j.key(workload).beginObject();
            j.kv("state", b.open ? "open" : "closed");
            j.kv("consecutive_failures",
                 static_cast<uint64_t>(b.consecutiveFailures));
            j.kv("trips", b.trips);
            j.kv("rejected", b.rejected);
            j.endObject();
        }
    }
    j.endObject();

    if (cache_) {
        j.key("cache").beginObject();
        j.kv("dir", cache_->dir());
        j.kv("quarantined",
             static_cast<uint64_t>(cache_->quarantinedCount()));
        j.key("recovery").beginObject();
        j.kv("scanned", static_cast<uint64_t>(recovery_.scanned));
        j.kv("ok", static_cast<uint64_t>(recovery_.ok));
        j.kv("quarantined",
             static_cast<uint64_t>(recovery_.quarantined));
        j.kv("tmp_removed",
             static_cast<uint64_t>(recovery_.tmpRemoved));
        j.endObject();
        j.endObject();
    }

    j.key("counters").beginObject();
    for (const auto &[name, v] : reg.counterSnapshot())
        j.kv(name, v);
    j.endObject();

    j.key("tenants").beginObject();
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        for (const auto &[tenant, ts] : tenants_) {
            j.key(tenant).beginObject();
            j.kv("admitted", ts.admitted);
            j.kv("completed", ts.completed);
            j.kv("rejected", ts.rejected);
            j.kv("errors", ts.errors);
            j.kv("queued", static_cast<uint64_t>(queue_.depth(tenant)));
            j.kv("queue_ms_p50", ts.queueMs.quantileMs(0.50));
            j.kv("queue_ms_p99", ts.queueMs.quantileMs(0.99));
            j.kv("service_ms_p50", ts.serviceMs.quantileMs(0.50));
            j.kv("service_ms_p99", ts.serviceMs.quantileMs(0.99));
            j.kv("total_ms_p50", ts.totalMs.quantileMs(0.50));
            j.kv("total_ms_p99", ts.totalMs.quantileMs(0.99));
            j.kv("mean_service_ms", ts.serviceMs.meanMs());
            j.endObject();
        }
    }
    j.endObject();
    j.endObject();
    return j.str();
}

} // namespace sara::serve
