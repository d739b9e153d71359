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
 *   --workers N         worker threads (default: all cores)
 *   --queue-depth N     admission bound: max queued requests
 *                       (default 64); beyond it requests get a
 *                       structured `rejected` + retry_after_ms
 *   --cache-dir DIR     on-disk artifact cache (also honours
 *                       $SARA_CACHE_DIR via --cache)
 *   --cache             on-disk cache at the default location
 *   --mem-entries N     in-memory decoded-result LRU size (default 64)
 *   --tenant-weight T=W fair-share weight for tenant T (repeatable;
 *                       unlisted tenants weigh 1)
 *   --retries N         TransientError retries per request (default 1)
 *   --max-cycles N      per-request simulator cycle budget default
 *   --sim-threads N     region-parallel event core threads per
 *                       simulation (default 1 = sequential). Responses
 *                       report the achieved thread count and barrier
 *                       wait; the stats verb aggregates parallel vs
 *                       fallback runs. Watchdog deadlines still hold:
 *                       every region thread polls the cancel flag
 *

 * Crash-only serving:
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
#include "serve/server.h"
#include "support/logging.h"

using namespace sara;

namespace {

volatile std::sig_atomic_t gStop = 0;

void
onSignal(int)
{
    // async-signal-safe: just set the flag; the main loop below turns
    // it into an orderly requestStop() + drain.
    gStop = 1;
}

/** Print the usage: for --help on stdout with exit 0, after a usage
 *  error on stderr with exit 2. */
int
usage(bool help = false)
{
    std::fprintf(
        help ? stdout : stderr,
        "usage: sarad [--socket PATH] [--workers N] [--queue-depth N]\n"
        "             [--cache | --cache-dir DIR] [--mem-entries N]\n"
        "             [--tenant-weight TENANT=W ...] [--retries N]\n"
        "             [--max-cycles N] [--sim-threads N] "
        "[--max-conns N]\n"
        "             [--read-deadline-ms MS] [--idle-timeout-ms MS]\n"
        "             [--request-deadline-ms MS]\n"
        "             [--breaker-threshold N] "
        "[--breaker-cooldown-ms MS]\n"
        "             [--inject SPEC ...] [--inject-seed N]\n"
        "       sarad --help\n");
    return help ? 0 : 2;
}

int
realMain(int argc, char **argv)
{
    serve::ServerOptions opt;
    opt.socketPath = "sarad.sock";
    std::vector<fault::FaultSpec> faultPlan;
    uint64_t injectSeed = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            return usage(/*help=*/true);
        } else if (arg == "--socket") {
            opt.socketPath = next();
        } else if (arg == "--workers") {
            opt.workers = std::stoi(next());
        } else if (arg == "--queue-depth") {
            opt.queueDepth = std::stoul(next());
        } else if (arg == "--cache") {
            opt.useDiskCache = true;
        } else if (arg == "--cache-dir") {
            opt.useDiskCache = true;
            opt.cacheDir = next();
        } else if (arg == "--mem-entries") {
            opt.memCacheEntries = std::stoul(next());
        } else if (arg == "--tenant-weight") {
            std::string spec = next();
            size_t eq = spec.find('=');
            if (eq == std::string::npos)
                fatal("--tenant-weight expects TENANT=WEIGHT, got ",
                      spec);
            opt.tenantWeights[spec.substr(0, eq)] =
                std::stod(spec.substr(eq + 1));
        } else if (arg == "--retries") {
            opt.maxAttempts = 1 + std::stoi(next());
        } else if (arg == "--max-cycles") {
            opt.defaultMaxCycles = std::stoull(next());
        } else if (arg == "--sim-threads") {
            opt.simThreads = std::stoi(next());
            if (opt.simThreads < 1)
                fatal("--sim-threads must be >= 1");
        } else if (arg == "--max-conns") {
            opt.maxConnections = std::stoul(next());
        } else if (arg == "--read-deadline-ms") {
            opt.readDeadlineMs = std::stod(next());
        } else if (arg == "--idle-timeout-ms") {
            opt.idleTimeoutMs = std::stod(next());
        } else if (arg == "--request-deadline-ms") {
            opt.requestDeadlineMs = std::stod(next());
        } else if (arg == "--breaker-threshold") {
            opt.breakerThreshold = std::stoi(next());
        } else if (arg == "--breaker-cooldown-ms") {
            opt.breakerCooldownMs = std::stod(next());
        } else if (arg == "--inject") {
            faultPlan.push_back(fault::parseFaultSpec(next()));
        } else if (arg == "--inject-seed") {
            injectSeed = std::stoull(next());
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return usage();
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
