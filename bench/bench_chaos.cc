/**
 * @file
 * Chaos soak for crash-only serving. Replays seeded, deterministic
 * fault schedules against the sarad stack and asserts the crash-only
 * invariants the DESIGN doc promises (BENCH_chaos.json, schema
 * sara-chaos/v1, checked in CI):
 *
 *   Phase A — crash drills (one per seed, before any threads exist):
 *     fork a writer child that hammers the artifact cache with atomic
 *     publishes, SIGKILL it after a seed-derived 3-30 ms delay, then
 *     run the startup recovery sweep on the survivors. Acceptance:
 *     stale temps removed, at most the one in-flight entry
 *     quarantined, pre-existing entries untouched and loadable.
 *
 *   Phase B — live soak (one in-process daemon per seed): a host
 *     fault plan (torn response writes, dropped connections, a torn
 *     cache store, ENOSPC, a transient compile fault) armed with the
 *     soak seed, driven by a menagerie of clients — well-behaved
 *     reconnecting loaders, a slow-loris that stalls mid-request-line,
 *     a poison client whose 1-cycle budget trips the workload circuit
 *     breaker, an idle connection, and an overload burst past the
 *     connection cap. Acceptance per seed: zero client-observed hangs
 *     (every recv bounded), slow-loris and idle connections shed,
 *     overload answered with a structured `overloaded` line, breaker
 *     tripped, stats conservation on the drained daemon
 *     (requests == admitted + rejected, admitted == completed +
 *     errors), bounded drain, and after a restart on the same cache
 *     directory: every surviving entry loads (ok + quarantined ==
 *     scanned) and a warm request answers ok.
 *
 * Options:
 *   --seeds N   soak seeds 1..N (default 8)
 *   --quick     3 seeds, shorter load (CI smoke)
 *   --out FILE  report path (default BENCH_chaos.json)
 *
 * Exit 0 iff every drill and every soak passes every invariant.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include "artifact/artifact.h"
#include "artifact/cache.h"
#include "bench/bench_common.h"
#include "compiler/driver.h"
#include "fault/fault.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/telemetry.h"
#include "workloads/workload.h"

using namespace sara;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

struct ChaosOptions
{
    int seeds = 8;
    bool quick = false;
    std::string out = "BENCH_chaos.json";
};

// ---------------------------------------------------------------------------
// Raw client: like serve::Client but never fatal()s — chaos clients
// must survive injected disconnects and torn lines, and every receive
// carries a timeout that doubles as the no-hang tripwire.
// ---------------------------------------------------------------------------

struct RawClient
{
    int fd = -1;
    std::string buf;

    ~RawClient() { close(); }

    void
    close()
    {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
        buf.clear();
    }

    bool
    connectTo(const std::string &path)
    {
        close();
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr) != 0) {
            close();
            return false;
        }
        return true;
    }

    bool
    sendRaw(const std::string &bytes)
    {
        size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return false;
            }
            off += static_cast<size_t>(n);
        }
        return true;
    }

    bool sendLine(const std::string &line) { return sendRaw(line + "\n"); }

    enum class Rx
    {
        Line,
        Eof,
        Timeout,
        Error
    };

    /** Read one newline-terminated line; a torn write (no newline,
     *  then shutdown) surfaces as Eof, never as a partial Line. */
    Rx
    recvLine(std::string &out, int timeoutMs)
    {
        auto deadline =
            Clock::now() + std::chrono::milliseconds(timeoutMs);
        for (;;) {
            size_t nl = buf.find('\n');
            if (nl != std::string::npos) {
                out = buf.substr(0, nl);
                buf.erase(0, nl + 1);
                return Rx::Line;
            }
            double remain = msBetween(Clock::now(), deadline);
            if (remain <= 0)
                return Rx::Timeout;
            pollfd p{fd, POLLIN, 0};
            int pr = ::poll(&p, 1,
                            std::min(static_cast<int>(remain) + 1, 100));
            if (pr < 0) {
                if (errno == EINTR)
                    continue;
                return Rx::Error;
            }
            if (pr == 0)
                continue;
            char tmp[4096];
            ssize_t n = ::recv(fd, tmp, sizeof tmp, 0);
            if (n == 0)
                return Rx::Eof;
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                return Rx::Error;
            }
            buf.append(tmp, static_cast<size_t>(n));
        }
    }
};

const char *
lineStatus(const std::string &line, std::string &scratch)
{
    try {
        json::Value v = json::parse(line);
        const json::Value *s = v.find("status");
        if (s && s->isString()) {
            scratch = s->str;
            return scratch.c_str();
        }
    } catch (const std::exception &) {
    }
    return "torn";
}

serve::Request
runRequest(const std::string &id, const std::string &tenant,
           const std::string &workload, int par, uint64_t maxCycles = 0)
{
    serve::Request r;
    r.id = id;
    r.verb = serve::Verb::Run;
    r.tenant = tenant;
    r.workload = workload;
    r.par = par;
    r.maxCycles = maxCycles;
    return r;
}

// ---------------------------------------------------------------------------
// Phase A: fork + SIGKILL crash drill against the artifact cache.
// ---------------------------------------------------------------------------

struct DrillResult
{
    uint64_t seed = 0;
    int delayMs = 0;
    int scanned = 0, ok = 0, quarantined = 0, tmpRemoved = 0;
    bool preIntact = false;
    bool pass = false;
};

DrillResult
crashDrill(uint64_t seed, const fs::path &base, const std::string &key,
           const compiler::CompileResult &result)
{
    DrillResult d;
    d.seed = seed;
    fs::path dir = base / ("drill-" + std::to_string(seed));
    fs::remove_all(dir);
    fs::create_directories(dir);

    // Two intact entries the crash must not damage.
    artifact::writeArtifactFile((dir / "pre0.sara").string(), "pre0",
                                result);
    artifact::writeArtifactFile((dir / "pre1.sara").string(), "pre1",
                                result);

    // Seed-derived kill delay: 3-30 ms, replayable.
    d.delayMs = 3 + static_cast<int>((seed * 2654435761ULL) % 28);

    pid_t pid = ::fork();
    if (pid == 0) {
        // Child: hammer the cache with atomic publishes until killed
        // mid-write. Never returns to the bench's main().
        try {
            for (uint64_t n = 0;; ++n) {
                std::string k = "inflight" + std::to_string(n % 4);
                artifact::writeArtifactFile(
                    (dir / (k + ".sara")).string(), k, result);
            }
        } catch (const std::exception &) {
        }
        ::_exit(2);
    }
    if (pid < 0)
        fatal("bench_chaos: fork failed: ", std::strerror(errno));
    sleepMs(d.delayMs);
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);

    // Startup path == recovery path: sweep, then verify survivors.
    artifact::ArtifactCache cache(dir.string(), 0);
    auto st = cache.recover();
    d.scanned = st.scanned;
    d.ok = st.ok;
    d.quarantined = st.quarantined;
    d.tmpRemoved = st.tmpRemoved;

    d.preIntact = true;
    try {
        artifact::readArtifactFile((dir / "pre0.sara").string());
        artifact::readArtifactFile((dir / "pre1.sara").string());
    } catch (const std::exception &) {
        d.preIntact = false;
    }
    d.pass = d.preIntact && d.quarantined <= 1 &&
             d.ok + d.quarantined == d.scanned;
    std::printf("[chaos] drill seed %llu: kill after %d ms -> scanned "
                "%d ok %d quarantined %d tmp_removed %d %s\n",
                static_cast<unsigned long long>(seed), d.delayMs,
                d.scanned, d.ok, d.quarantined, d.tmpRemoved,
                d.pass ? "PASS" : "FAIL");
    (void)key;
    return d;
}

// ---------------------------------------------------------------------------
// Phase B: live soak.
// ---------------------------------------------------------------------------

struct ClientStats
{
    uint64_t sent = 0, ok = 0, rejected = 0, errors = 0;
    uint64_t overloaded = 0, torn = 0, reconnects = 0, connectFails = 0;
    uint64_t hangs = 0;
};

struct SoakResult
{
    uint64_t seed = 0;
    std::vector<std::string> plan;
    ClientStats load;
    ClientStats poison;
    uint64_t breakerRejects = 0;
    int lorisRounds = 0, lorisShed = 0;
    bool idleShed = false;
    uint64_t burstOverloaded = 0;
    bool drained = false;
    double drainMs = 0.0;
    bool conservedAdmission = false; ///< requests == admitted + rejected
    bool conservedOutcome = false;   ///< admitted == completed + errors
    int recScanned = 0, recOk = 0, recQuarantined = 0, recTmpRemoved = 0;
    bool cacheClean = false;
    bool restartOk = false;
    uint64_t hangs = 0;
    std::map<std::string, uint64_t> counters;
    bool pass = false;
};

void
loaderThread(const std::string &socket, const std::string &tenant,
             int requests, std::atomic<bool> *hangFlag, ClientStats *out)
{
    RawClient c;
    std::string line, scratch;
    for (int i = 0; i < requests; ++i) {
        if (c.fd < 0) {
            if (!c.connectTo(socket)) {
                ++out->connectFails;
                sleepMs(30);
                continue;
            }
            ++out->reconnects;
        }
        serve::Request r = runRequest(
            tenant + "-" + std::to_string(i), tenant, "ms", 4);
        if (!c.sendLine(r.str())) {
            c.close();
            continue;
        }
        ++out->sent;
        auto rx = c.recvLine(line, 20000);
        if (rx == RawClient::Rx::Timeout) {
            ++out->hangs;
            hangFlag->store(true);
            c.close();
            continue;
        }
        if (rx != RawClient::Rx::Line) {
            // Injected sock-drop / torn write: reconnect and move on.
            ++out->torn;
            c.close();
            continue;
        }
        std::string status = lineStatus(line, scratch);
        if (status == "ok")
            ++out->ok;
        else if (status == "rejected")
            ++out->rejected;
        else if (status == "overloaded") {
            ++out->overloaded;
            c.close();
        } else
            ++out->errors;
        sleepMs(2);
    }
}

void
poisonThread(const std::string &socket, int requests,
             std::atomic<bool> *hangFlag, ClientStats *out,
             uint64_t *breakerRejects)
{
    RawClient c;
    std::string line, scratch;
    for (int i = 0; i < requests; ++i) {
        if (c.fd < 0 && !c.connectTo(socket)) {
            ++out->connectFails;
            sleepMs(30);
            continue;
        }
        // A 1-cycle budget can never finish: every execution fails,
        // and after breaker-threshold consecutive failures the
        // workload's breaker rejects the rest for a cooldown.
        serve::Request r = runRequest("poison-" + std::to_string(i),
                                      "poison", "kmeans", 4, 1);
        if (!c.sendLine(r.str())) {
            c.close();
            continue;
        }
        ++out->sent;
        auto rx = c.recvLine(line, 20000);
        if (rx == RawClient::Rx::Timeout) {
            ++out->hangs;
            hangFlag->store(true);
            c.close();
            continue;
        }
        if (rx != RawClient::Rx::Line) {
            ++out->torn;
            c.close();
            continue;
        }
        std::string status = lineStatus(line, scratch);
        if (status == "rejected") {
            ++out->rejected;
            if (line.find("circuit breaker open") != std::string::npos)
                ++*breakerRejects;
        } else if (status == "ok")
            ++out->ok;
        else
            ++out->errors;
        sleepMs(30);
    }
}

void
lorisThread(const std::string &socket, int rounds, int *shed)
{
    for (int i = 0; i < rounds; ++i) {
        RawClient c;
        if (!c.connectTo(socket))
            continue;
        // A few bytes of a request line, then silence: the reader's
        // partial-line deadline must shed us, not wait forever.
        if (!c.sendRaw("{\"schema\":\"sara-req"))
            continue;
        std::string line;
        auto rx = c.recvLine(line, 5000);
        if (rx == RawClient::Rx::Line || rx == RawClient::Rx::Eof)
            ++*shed;
    }
}

void
idleThread(const std::string &socket, bool *shed)
{
    RawClient c;
    if (!c.connectTo(socket))
        return;
    // Connect, send nothing: the idle timeout must close us.
    std::string line;
    auto rx = c.recvLine(line, 5000);
    *shed = (rx == RawClient::Rx::Eof || rx == RawClient::Rx::Line);
}

uint64_t
overloadBurst(const std::string &socket, size_t conns)
{
    std::vector<std::unique_ptr<RawClient>> burst;
    for (size_t i = 0; i < conns; ++i) {
        auto c = std::make_unique<RawClient>();
        if (c->connectTo(socket))
            burst.push_back(std::move(c));
    }
    uint64_t overloaded = 0;
    std::string line, scratch;
    for (auto &c : burst) {
        auto rx = c->recvLine(line, 1500);
        if (rx == RawClient::Rx::Line &&
            std::string(lineStatus(line, scratch)) == "overloaded")
            ++overloaded;
        // Accepted burst conns get no response and are idle-shed;
        // either way they are closed here.
    }
    return overloaded;
}

/** requestStop + wait with a wall-clock bound; false = drain hang. */
bool
boundedDrain(serve::Server &server, double timeoutMs, double *drainMs)
{
    auto t0 = Clock::now();
    server.requestStop();
    std::atomic<bool> done{false};
    std::thread waiter([&] {
        server.wait();
        done.store(true);
    });
    while (!done.load() && msBetween(t0, Clock::now()) < timeoutMs)
        sleepMs(20);
    if (drainMs)
        *drainMs = msBetween(t0, Clock::now());
    if (!done.load()) {
        waiter.detach();
        return false;
    }
    waiter.join();
    return true;
}

SoakResult
soak(uint64_t seed, const fs::path &base, const ChaosOptions &opt)
{
    SoakResult s;
    s.seed = seed;
    s.plan = {
        "sock-torn-write@0.05", "sock-drop@0.04",
        "disk-short-write@1.0:count=1", // Tear the first cache store.
        "disk-enospc@0.4:count=1",
        "compile-fault@0.2:count=1", // Absorbed by the retry policy.
    };

    fs::path dir = base / ("soak-" + std::to_string(seed));
    fs::remove_all(dir);
    fs::create_directories(dir);

    auto &reg = telemetry::Registry::global();
    reg.setEnabled(true);
    reg.clear();

    std::vector<fault::FaultSpec> specs;
    for (const auto &t : s.plan)
        specs.push_back(fault::parseFaultSpec(t));
    fault::FaultInjector injector(std::move(specs), seed);

    serve::ServerOptions so;
    so.socketPath = (dir / "sarad.sock").string();
    so.cacheDir = (dir / "cache").string();
    so.useDiskCache = true;
    so.workers = 2;
    so.queueDepth = 8;
    so.maxConnections = 8;
    so.readDeadlineMs = 200.0;
    so.idleTimeoutMs = 400.0;
    so.requestDeadlineMs = 10000.0;
    so.breakerThreshold = 3;
    so.breakerCooldownMs = 200.0;
    so.fault = &injector;

    auto server = std::make_unique<serve::Server>(std::move(so));
    server->start();
    std::string socket = server->socketPath();
    if (!serve::waitForServer(socket, 5000))
        fatal("bench_chaos: daemon did not come up at ", socket);

    std::atomic<bool> hangFlag{false};
    const int loadReqs = opt.quick ? 30 : 80;
    const int poisonReqs = 12;
    s.lorisRounds = opt.quick ? 2 : 3;

    ClientStats loads[3];
    std::vector<std::thread> threads;
    for (int i = 0; i < 3; ++i)
        threads.emplace_back(loaderThread, socket,
                             "tenant-" + std::to_string(i), loadReqs,
                             &hangFlag, &loads[i]);
    threads.emplace_back(poisonThread, socket, poisonReqs, &hangFlag,
                         &s.poison, &s.breakerRejects);
    threads.emplace_back(lorisThread, socket, s.lorisRounds,
                         &s.lorisShed);
    threads.emplace_back(idleThread, socket, &s.idleShed);

    // Mid-soak overload burst: hold 2x the connection cap open at
    // once; the surplus must get a structured `overloaded` line.
    sleepMs(300);
    s.burstOverloaded = overloadBurst(socket, 16);

    for (auto &t : threads)
        t.join();
    for (const auto &l : loads) {
        s.load.sent += l.sent;
        s.load.ok += l.ok;
        s.load.rejected += l.rejected;
        s.load.errors += l.errors;
        s.load.overloaded += l.overloaded;
        s.load.torn += l.torn;
        s.load.reconnects += l.reconnects;
        s.load.connectFails += l.connectFails;
        s.load.hangs += l.hangs;
    }
    s.hangs = s.load.hangs + s.poison.hangs;

    s.drained = boundedDrain(*server, 30000.0, &s.drainMs);
    if (!s.drained) {
        // A hung drain leaks the server deliberately; tearing it down
        // would hang the bench too. The seed already failed.
        server.release();
        s.pass = false;
        return s;
    }
    server.reset();

    // Conservation over the drained daemon's counters.
    s.counters = reg.counterSnapshot();
    auto ctr = [&](const char *n) -> uint64_t {
        auto it = s.counters.find(n);
        return it == s.counters.end() ? 0 : it->second;
    };
    s.conservedAdmission = ctr("serve.requests") ==
                           ctr("serve.admitted") + ctr("serve.rejected");
    s.conservedOutcome = ctr("serve.admitted") ==
                         ctr("serve.completed") + ctr("serve.errors");

    // Crash-only restart: sweep the same cache directory, then serve
    // a warm request from it.
    {
        artifact::ArtifactCache cache((dir / "cache").string(), 0);
        auto st = cache.recover();
        s.recScanned = st.scanned;
        s.recOk = st.ok;
        s.recQuarantined = st.quarantined;
        s.recTmpRemoved = st.tmpRemoved;
        s.cacheClean = st.ok + st.quarantined == st.scanned;
    }
    {
        serve::ServerOptions ro;
        ro.socketPath = (dir / "sarad2.sock").string();
        ro.cacheDir = (dir / "cache").string();
        ro.useDiskCache = true;
        ro.workers = 2;
        serve::Server restarted(std::move(ro));
        restarted.start();
        if (serve::waitForServer(restarted.socketPath(), 5000)) {
            RawClient c;
            std::string line, scratch;
            if (c.connectTo(restarted.socketPath()) &&
                c.sendLine(
                    runRequest("restart-0", "default", "ms", 4).str())) {
                auto rx = c.recvLine(line, 20000);
                s.restartOk =
                    rx == RawClient::Rx::Line &&
                    std::string(lineStatus(line, scratch)) == "ok";
            }
        }
        if (!boundedDrain(restarted, 15000.0, nullptr))
            s.restartOk = false;
    }

    s.pass = s.hangs == 0 && !hangFlag.load() && s.drained &&
             s.conservedAdmission && s.conservedOutcome &&
             s.lorisShed == s.lorisRounds && s.idleShed &&
             s.burstOverloaded >= 1 && ctr("serve.breaker.tripped") >= 1 &&
             s.cacheClean && s.restartOk;

    std::printf(
        "[chaos] soak seed %llu: load %llu/%llu ok, poison "
        "%llu err + %llu breaker-rejects, loris %d/%d shed, idle %s, "
        "burst overloaded %llu, drain %.0f ms, recovery %d/%d ok "
        "(%d quarantined), restart %s -> %s\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(s.load.ok),
        static_cast<unsigned long long>(s.load.sent),
        static_cast<unsigned long long>(s.poison.errors),
        static_cast<unsigned long long>(s.breakerRejects), s.lorisShed,
        s.lorisRounds, s.idleShed ? "shed" : "NOT-SHED",
        static_cast<unsigned long long>(s.burstOverloaded), s.drainMs,
        s.recOk, s.recScanned, s.recQuarantined,
        s.restartOk ? "ok" : "FAILED", s.pass ? "PASS" : "FAIL");
    return s;
}

void
writeClientStats(json::Writer &j, const char *key, const ClientStats &c)
{
    j.key(key)
        .beginObject()
        .kv("sent", c.sent)
        .kv("ok", c.ok)
        .kv("rejected", c.rejected)
        .kv("errors", c.errors)
        .kv("overloaded", c.overloaded)
        .kv("torn", c.torn)
        .kv("reconnects", c.reconnects)
        .kv("connect_fails", c.connectFails)
        .kv("hangs", c.hangs)
        .endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    ChaosOptions opt;
    CliArgs args(argc, argv, "[--seeds N] [--quick] [--out FILE.json]");
    while (args.next()) {
        if (args.is("--seeds"))
            opt.seeds = args.number<int>();
        else if (args.is("--quick"))
            opt.quick = true;
        else if (args.is("--out"))
            opt.out = args.value();
        else
            args.unknown();
    }
    if (opt.quick)
        opt.seeds = std::min(opt.seeds, 3);
    if (opt.seeds < 1)
        args.fail("--seeds must be >= 1");

    std::signal(SIGPIPE, SIG_IGN);
    telemetry::Registry::global().setEnabled(true);

    fs::path base = fs::temp_directory_path() / "sara-bench-chaos";
    fs::remove_all(base);
    fs::create_directories(base);

    // One compile feeds every crash drill; it runs before any fork()
    // and before any thread exists (fork safety).
    workloads::WorkloadConfig cfg;
    cfg.par = 4;
    auto w = workloads::buildByName("ms", cfg);
    compiler::CompilerOptions copt;
    copt.spec = arch::PlasticineSpec::paper();
    auto result = compiler::compile(w.program, copt);
    std::string key = artifact::contentKey(w.program, copt);

    std::printf("[chaos] %d seeds%s, scratch %s\n", opt.seeds,
                opt.quick ? " (quick)" : "", base.string().c_str());

    std::vector<DrillResult> drills;
    for (int seedN = 1; seedN <= opt.seeds; ++seedN)
        drills.push_back(crashDrill(static_cast<uint64_t>(seedN), base,
                                    key, result));

    std::vector<SoakResult> soaks;
    for (int seedN = 1; seedN <= opt.seeds; ++seedN)
        soaks.push_back(soak(static_cast<uint64_t>(seedN), base, opt));

    bool drillsPass = true, soaksPass = true;
    for (const auto &d : drills)
        drillsPass = drillsPass && d.pass;
    for (const auto &s : soaks)
        soaksPass = soaksPass && s.pass;
    bool pass = drillsPass && soaksPass;

    json::Writer j;
    j.beginObject();
    j.kv("schema", "sara-chaos/v1");
    j.key("config")
        .beginObject()
        .kv("seeds", static_cast<uint64_t>(opt.seeds))
        .kv("quick", opt.quick)
        .endObject();
    j.key("drills").beginArray();
    for (const auto &d : drills) {
        j.beginObject();
        j.kv("seed", d.seed);
        j.kv("kill_delay_ms", d.delayMs);
        j.kv("scanned", d.scanned);
        j.kv("ok", d.ok);
        j.kv("quarantined", d.quarantined);
        j.kv("tmp_removed", d.tmpRemoved);
        j.kv("pre_entries_intact", d.preIntact);
        j.kv("pass", d.pass);
        j.endObject();
    }
    j.endArray();
    j.key("soaks").beginArray();
    for (const auto &s : soaks) {
        j.beginObject();
        j.kv("seed", s.seed);
        j.key("fault_plan").beginArray();
        for (const auto &p : s.plan)
            j.value(p);
        j.endArray();
        writeClientStats(j, "load", s.load);
        writeClientStats(j, "poison", s.poison);
        j.kv("breaker_rejects_observed", s.breakerRejects);
        j.kv("loris_rounds", s.lorisRounds);
        j.kv("loris_shed", s.lorisShed);
        j.kv("idle_shed", s.idleShed);
        j.kv("burst_overloaded", s.burstOverloaded);
        j.kv("drained", s.drained);
        j.kv("drain_ms", s.drainMs);
        j.kv("conserved_admission", s.conservedAdmission);
        j.kv("conserved_outcome", s.conservedOutcome);
        j.key("recovery")
            .beginObject()
            .kv("scanned", s.recScanned)
            .kv("ok", s.recOk)
            .kv("quarantined", s.recQuarantined)
            .kv("tmp_removed", s.recTmpRemoved)
            .endObject();
        j.kv("cache_clean", s.cacheClean);
        j.kv("restart_ok", s.restartOk);
        j.kv("hangs", s.hangs);
        j.key("counters").beginObject();
        for (const char *n :
             {"serve.requests", "serve.admitted", "serve.rejected",
              "serve.completed", "serve.errors", "serve.overloaded",
              "serve.shed.slowloris", "serve.shed.idle",
              "serve.watchdog.cancelled", "serve.breaker.tripped",
              "serve.breaker.rejected", "serve.fault.sock_drop",
              "serve.fault.sock_torn", "artifact.cache.quarantined",
              "artifact.cache.fault.enospc",
              "artifact.cache.fault.short_write",
              "artifact.cache.tmp_removed"}) {
            auto it = s.counters.find(n);
            j.kv(n, it == s.counters.end() ? uint64_t(0) : it->second);
        }
        j.endObject();
        j.kv("pass", s.pass);
        j.endObject();
    }
    j.endArray();
    j.kv("pass", pass);
    j.endObject();

    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f)
        fatal("cannot write ", opt.out);
    const std::string &doc = j.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("[chaos] wrote %s\n", opt.out.c_str());
    std::printf("[chaos] acceptance: %s (%d drills %s, %d soaks %s)\n",
                pass ? "PASS" : "FAIL", static_cast<int>(drills.size()),
                drillsPass ? "pass" : "FAIL",
                static_cast<int>(soaks.size()),
                soaksPass ? "pass" : "FAIL");
    return pass ? 0 : 1;
}
