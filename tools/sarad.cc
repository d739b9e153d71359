/**
 * @file
 * sarad — the resident SARA compile-and-simulate daemon. Listens on a
 * Unix-domain socket for newline-delimited JSON requests (schema
 * sara-request/v1; see src/serve/protocol.h), serves compile/run
 * requests through warm in-memory and on-disk caches with in-flight
 * dedup, applies admission control and weighted per-tenant fairness,
 * and exposes the live metrics registry via the stats verb.
 *
 * Usage:
 *   sarad [options]
 *
 * Options:
 *   --socket PATH       listen here (default ./sarad.sock)
 *   --workers N         worker threads, 1-256 (default: all cores)
 *   --queue-depth N     admission bound: max queued requests
 *                       (default 64), each tenant at most its
 *                       weighted share; beyond it requests get a
 *                       structured `rejected` + retry_after_ms
 *   --cache-dir DIR     on-disk artifact cache (also honours
 *                       $SARA_CACHE_DIR via --cache)
 *   --cache             on-disk cache at the default location
 *   --mem-entries N     request tuples kept in memory, each with its
 *                       compile result, workload and check reference;
 *                       least recently used evicted first (default 64)
 *   --tenant-weight T=W fair-share weight for tenant T, 0.001-1000
 *                       (repeatable; unlisted tenants weigh 1)
 *   --retries N         TransientError retries per request, 0-100
 *                       (default 1)
 *   --max-cycles N      per-request simulator cycle budget default
 *
 * Crash-only serving (every MS is 0-86400000, one day):
 *   --max-conns N           concurrent connection bound (default 256);
 *                           overflow gets a structured `overloaded`
 *                           response and is closed
 *   --read-deadline-ms MS   shed a connection whose partial request
 *                           line stalls this long (slow-loris defense;
 *                           default 30000, 0 disables)
 *   --idle-timeout-ms MS    shed connections idle this long with no
 *                           outstanding requests (default 0 = never)
 *   --request-deadline-ms MS  watchdog: cancel any request executing
 *                           past this wall-clock deadline; the client
 *                           gets a structured error with the full
 *                           FailureReport (default 0 = off)
 *   --breaker-threshold N   trip a workload's circuit breaker after N
 *                           consecutive failures (default 8, 0 = off)
 *   --breaker-cooldown-ms MS  how long a tripped breaker rejects
 *                           before half-opening (default 1000)
 *   --inject SPEC           host-level fault plan (repeatable): e.g.
 *                           disk-enospc@0.1, sock-torn-write@0.05,
 *                           disk-short-write:count=2, compile-fault...
 *   --inject-seed N         seed for the fault plan (default 1)
 *   --help, -h              print the usage on stdout and exit 0
 *
 * At startup with a disk cache, the cache directory is swept: stale
 * writer temp files are removed and corrupt or torn entries are
 * quarantined (renamed to *.quarantine) — never served, never
 * silently deleted. The stats verb reports the sweep and the current
 * quarantine count under "cache".
 *
 * Lifecycle: runs until a client sends the `shutdown` verb or the
 * process receives SIGINT/SIGTERM; both paths drain the admitted
 * backlog, answer every in-flight request, and exit 0.
 *
 * Example session (socat):
 *   $ sarad --socket /tmp/sarad.sock --cache-dir ~/.sara-cache &
 *   $ echo '{"schema":"sara-request/v1","id":"1","verb":"run",
 *            "workload":"ms","par":8}' | socat - /tmp/sarad.sock
 *
 * Exit codes: 0 clean shutdown; 2 usage; 3 invalid configuration
 * (e.g. unbindable socket path).
 */

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "jobs/jobs.h"
#include "serve/server.h"
#include "support/cli.h"
#include "support/logging.h"

using namespace sara;

namespace {

/** Every millisecond flag lies within a day: finite, and small enough
 *  that the watchdog's tick (a deadline / 8) fits an int. */
constexpr double kMaxMs = 86400000.0;

/** Tenant weights: a stride of 1/weight stays finite and moves the
 *  tenant's pass, so no tenant starves the rest. */
constexpr double kMinWeight = 0.001, kMaxWeight = 1000.0;

volatile std::sig_atomic_t gStop = 0;

void
onSignal(int)
{
    // async-signal-safe: just set the flag; the main loop below turns
    // it into an orderly requestStop() + drain.
    gStop = 1;
}

int
realMain(int argc, char **argv)
{
    CliArgs args(argc, argv,
                 "[--socket PATH] [--workers 1-256] [--queue-depth N]\n"
                 "             [--cache | --cache-dir DIR] "
                 "[--mem-entries N]\n"
                 "             [--tenant-weight TENANT=W ...] "
                 "[--retries 0-100]\n"
                 "             [--max-cycles N] [--max-conns N]\n"
                 "             [--read-deadline-ms MS] "
                 "[--idle-timeout-ms MS]\n"
                 "             [--request-deadline-ms MS]\n"
                 "             [--breaker-threshold N] "
                 "[--breaker-cooldown-ms MS]\n"
                 "             [--inject SPEC ...] [--inject-seed N]\n"
                 "             (W 0.001-1000, MS 0-86400000)\n"
                 "       sarad --help",
                 "sarad");
    serve::ServerOptions opt;
    opt.socketPath = "sarad.sock";
    std::vector<fault::FaultSpec> faultPlan;
    uint64_t injectSeed = 1;
    while (args.next()) {
        if (args.is("--socket")) {
            opt.socketPath = args.value();
        } else if (args.is("--workers")) {
            opt.workers = args.number(jobs::BatchOptions::kMinThreads,
                                      jobs::BatchOptions::kMaxThreads);
        } else if (args.is("--queue-depth")) {
            opt.queueDepth = args.number<size_t>();
        } else if (args.is("--cache")) {
            opt.useDiskCache = true;
        } else if (args.is("--cache-dir")) {
            opt.useDiskCache = true;
            opt.cacheDir = args.value();
        } else if (args.is("--mem-entries")) {
            opt.memCacheEntries = args.number<size_t>();
        } else if (args.is("--tenant-weight")) {
            std::string spec = args.value();
            size_t eq = spec.find('=');
            if (eq == std::string::npos)
                args.fail("--tenant-weight expects TENANT=WEIGHT, got " +
                          spec);
            opt.tenantWeights[spec.substr(0, eq)] =
                args.inRange(args.toNumber<double>(spec.substr(eq + 1)),
                             kMinWeight, kMaxWeight);
        } else if (args.is("--retries")) {
            opt.maxAttempts =
                1 + args.number(jobs::BatchOptions::kMinRetries,
                                jobs::BatchOptions::kMaxRetries);
        } else if (args.is("--max-cycles")) {
            opt.defaultMaxCycles = args.number<uint64_t>();
        } else if (args.is("--max-conns")) {
            opt.maxConnections = args.number<size_t>();
        } else if (args.is("--read-deadline-ms")) {
            opt.readDeadlineMs = args.number(0.0, kMaxMs);
        } else if (args.is("--idle-timeout-ms")) {
            opt.idleTimeoutMs = args.number(0.0, kMaxMs);
        } else if (args.is("--request-deadline-ms")) {
            opt.requestDeadlineMs = args.number(0.0, kMaxMs);
        } else if (args.is("--breaker-threshold")) {
            opt.breakerThreshold = args.number<int>();
        } else if (args.is("--breaker-cooldown-ms")) {
            opt.breakerCooldownMs = args.number(0.0, kMaxMs);
        } else if (args.is("--inject")) {
            faultPlan.push_back(fault::parseFaultSpec(args.value()));
        } else if (args.is("--inject-seed")) {
            injectSeed = args.number<uint64_t>();
        } else {
            args.unknown();
        }
    }

    setLogLevel(LogLevel::Info); // A daemon should say what it's doing.

    // The injector must outlive the server (not owned by it).
    std::unique_ptr<fault::FaultInjector> injector;
    if (!faultPlan.empty()) {
        injector = std::make_unique<fault::FaultInjector>(
            std::move(faultPlan), injectSeed);
        opt.fault = injector.get();
        inform("sarad: host fault injection armed (",
               injector->plan().size(), " specs, seed ", injectSeed,
               ")");
    }

    serve::Server server(std::move(opt));
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    server.start();
    while (!server.stopping() && !gStop)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.requestStop();
    server.wait();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return realMain(argc, argv);
    } catch (const FatalError &) {
        return 3; // fatal() already logged the message.
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sarad: %s\n", e.what());
        return 4;
    }
}
