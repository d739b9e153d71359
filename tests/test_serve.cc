/**
 * @file
 * Tests for the sarad service stack (src/serve) and its scheduling
 * core (jobs::FairQueue): protocol round trips and strictness, fair
 * queue ordering / bounds / weights / shutdown drain, and end-to-end
 * daemon behaviour over a real Unix-domain socket — warm-cache
 * repeats, in-flight dedup, structured errors for poisoned requests,
 * admission rejects under overload, and the shutdown drain.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "fault/fault.h"
#include "jobs/fair.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/telemetry.h"

using namespace sara;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

TEST(ServeProtocol, RequestRoundTripsThroughSerializer)
{
    serve::Request r;
    r.id = "req-42";
    r.verb = serve::Verb::Run;
    r.tenant = "team-a";
    r.workload = "ms";
    r.par = 8;
    r.scale = 2;
    r.noc = true;
    r.check = true;
    r.maxCycles = 123456;

    serve::Request back = serve::parseRequest(r.str());
    EXPECT_EQ(back.id, "req-42");
    EXPECT_EQ(back.verb, serve::Verb::Run);
    EXPECT_EQ(back.tenant, "team-a");
    EXPECT_EQ(back.workload, "ms");
    EXPECT_EQ(back.par, 8);
    EXPECT_EQ(back.scale, 2);
    EXPECT_TRUE(back.noc);
    EXPECT_TRUE(back.check);
    EXPECT_EQ(back.maxCycles, 123456u);
}

TEST(ServeProtocol, DefaultsApplyWhenFieldsAbsent)
{
    serve::Request r = serve::parseRequest(
        R"({"schema":"sara-request/v1","id":"x","verb":"compile",)"
        R"("workload":"gda"})");
    EXPECT_EQ(r.tenant, "default");
    EXPECT_EQ(r.par, 16);
    EXPECT_EQ(r.scale, 1);
    EXPECT_FALSE(r.noc);
    EXPECT_FALSE(r.check);
    EXPECT_EQ(r.maxCycles, 0u);
}

TEST(ServeProtocol, ParseRejectsMalformedRequests)
{
    // Broken JSON.
    EXPECT_THROW(serve::parseRequest("{oops"), FatalError);
    // Not an object.
    EXPECT_THROW(serve::parseRequest("[1,2]"), FatalError);
    // Missing / wrong schema.
    EXPECT_THROW(serve::parseRequest(R"({"id":"x","verb":"stats"})"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"bogus/v9","id":"x","verb":"stats"})"),
                 FatalError);
    // Unknown verb.
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"dance"})"),
                 FatalError);
    // compile/run need a workload.
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run"})"),
                 FatalError);
    // Out-of-range numerics.
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms","par":0})"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms","par":99999})"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms",)"
                     R"("max_cycles":-1})"),
                 FatalError);
    // Numbers are checked before they are converted: beyond int or
    // uint64_t they would be undefined, and a fraction would truncate.
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms",)"
                     R"("par":4294967300})"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms","par":4.9})"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms",)"
                     R"("max_cycles":1e20})"),
                 FatalError);
    EXPECT_THROW(serve::parseRequest(
                     R"({"schema":"sara-request/v1","id":"x",)"
                     R"("verb":"run","workload":"ms",)"
                     R"("max_cycles":2.5})"),
                 FatalError);
    // The largest double below 2^64 still fits.
    EXPECT_EQ(serve::parseRequest(
                  R"({"schema":"sara-request/v1","id":"x",)"
                  R"("verb":"run","workload":"ms",)"
                  R"("max_cycles":18446744073709549568})")
                  .maxCycles,
              18446744073709549568ULL);
    // Unknown workloads, with buildByName's message.
    try {
        serve::parseRequest(R"({"schema":"sara-request/v1","id":"x",)"
                            R"("verb":"compile","workload":"nope"})");
        ADD_FAILURE() << "unknown workload accepted";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("unknown workload 'nope' "
                                             "(valid: mlp,"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ServeProtocol, ResponseBuilderSplicesRawPayloads)
{
    serve::ResponseBuilder b("id-1", "ok");
    b.kv("verb", "stats").kv("n", 3);
    b.raw("stats", R"({"queue_depth":0,"workers":4})");
    json::Value v = json::parse(b.str());
    EXPECT_EQ(v.at("schema").str, serve::kResponseSchema);
    EXPECT_EQ(v.at("id").str, "id-1");
    EXPECT_EQ(v.at("status").str, "ok");
    EXPECT_EQ(v.at("stats").at("workers").num, 4.0);
}

TEST(ServeProtocol, ErrorAndRejectedResponsesParse)
{
    json::Value e = json::parse(serve::errorResponse("e1", "boom \"x\""));
    EXPECT_EQ(e.at("status").str, "error");
    EXPECT_EQ(e.at("error").str, "boom \"x\"");

    json::Value r = json::parse(serve::rejectedResponse("r1", 12.5));
    EXPECT_EQ(r.at("status").str, "rejected");
    EXPECT_EQ(r.at("retry_after_ms").num, 12.5);
}

// ---------------------------------------------------------------------------
// FairQueue
// ---------------------------------------------------------------------------

TEST(FairQueue, FifoWithinSingleTenant)
{
    jobs::FairQueue<int> q(16);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.tryPush("a", i));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.pop().value(), i);
}

TEST(FairQueue, BoundedDepthRejectsWhenFull)
{
    jobs::FairQueue<int> q(2);
    EXPECT_TRUE(q.tryPush("a", 1));
    EXPECT_TRUE(q.tryPush("b", 2));
    EXPECT_FALSE(q.tryPush("a", 3)); // saturated across tenants
    EXPECT_EQ(q.depth(), 2u);
    q.pop();
    EXPECT_TRUE(q.tryPush("a", 3)); // space freed
}

TEST(FairQueue, SaturatedQueueAdmitsEachTenantItsShare)
{
    // Past saturation admission decides the tenant split, so each
    // tenant may hold only its weighted share of the depth: with b
    // queued, a and b get ceil(8 * 1/2) = 4 slots each.
    jobs::FairQueue<int> q(8);
    ASSERT_TRUE(q.tryPush("b", 0));
    int a = 0, b = 0;
    while (q.tryPush("a", 1))
        ++a;
    while (q.tryPush("b", 2))
        ++b;
    EXPECT_EQ(a, 4);
    EXPECT_EQ(b, 3);
    EXPECT_EQ(q.depth("a"), 4u);
    EXPECT_EQ(q.depth("b"), 4u);

    // A lone tenant still gets the whole queue.
    jobs::FairQueue<int> lone(8);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(lone.tryPush("a", i));
    EXPECT_FALSE(lone.tryPush("a", 8));
}

TEST(FairQueue, EqualTenantsAlternateUnderBacklog)
{
    jobs::FairQueue<std::string> q(64);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(q.tryPush("a", "a"));
        ASSERT_TRUE(q.tryPush("b", "b"));
    }
    // Every adjacent pair serves both tenants.
    for (int i = 0; i < 10; ++i) {
        std::string x = q.pop().value();
        std::string y = q.pop().value();
        EXPECT_NE(x, y);
    }
}

TEST(FairQueue, WeightedTenantGetsProportionalShare)
{
    jobs::FairQueue<std::string> q(256);
    q.setWeight("heavy", 2.0);
    for (int i = 0; i < 60; ++i) {
        ASSERT_TRUE(q.tryPush("heavy", "heavy"));
        ASSERT_TRUE(q.tryPush("light", "light"));
    }
    // While both have backlog, a weight-2 tenant is served twice as
    // often: the first 30 pops split 20/10.
    int heavy = 0;
    for (int i = 0; i < 30; ++i)
        heavy += q.pop().value() == "heavy";
    EXPECT_GE(heavy, 19);
    EXPECT_LE(heavy, 21);
}

TEST(FairQueue, IdleTenantDoesNotBankCredit)
{
    jobs::FairQueue<std::string> q(64);
    q.setWeight("a", 1.0);
    q.setWeight("b", 1.0); // b exists from the start but stays idle
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(q.tryPush("a", "a"));
    for (int i = 0; i < 6; ++i)
        q.pop(); // a's pass advances well beyond b's initial 0
    // b wakes up: it must interleave with a, not burn banked credit as
    // a consecutive run.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(q.tryPush("b", "b"));
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(q.tryPush("a", "a"));
    int bRun = 0, maxBRun = 0;
    for (int i = 0; i < 8; ++i) {
        if (q.pop().value() == "b")
            maxBRun = std::max(maxBRun, ++bRun);
        else
            bRun = 0;
    }
    EXPECT_LE(maxBRun, 2);
}

TEST(FairQueue, StopDrainsBacklogThenReturnsNullopt)
{
    jobs::FairQueue<int> q(8);
    ASSERT_TRUE(q.tryPush("a", 1));
    ASSERT_TRUE(q.tryPush("a", 2));
    q.stop();
    EXPECT_FALSE(q.tryPush("a", 3)); // no admission after stop
    EXPECT_EQ(q.pop().value(), 1);   // backlog drains in order
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.pop().has_value()); // and stays drained
}

TEST(FairQueue, PopBlocksUntilPushArrives)
{
    jobs::FairQueue<int> q(8);
    std::atomic<int> got{0};
    std::thread consumer([&] { got = q.pop().value_or(-1); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(got.load(), 0);
    ASSERT_TRUE(q.tryPush("a", 7));
    consumer.join();
    EXPECT_EQ(got.load(), 7);
}

TEST(FairQueue, StopUnblocksWaitingConsumers)
{
    jobs::FairQueue<int> q(8);
    std::vector<std::thread> consumers;
    std::atomic<int> woke{0};
    for (int i = 0; i < 4; ++i)
        consumers.emplace_back([&] {
            EXPECT_FALSE(q.pop().has_value());
            ++woke;
        });
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.stop();
    for (auto &t : consumers)
        t.join();
    EXPECT_EQ(woke.load(), 4);
}

// ---------------------------------------------------------------------------
// Server end-to-end (real socket)
// ---------------------------------------------------------------------------

namespace {

/** Unique short socket path (sun_path is ~108 bytes). */
std::string
testSocketPath(const char *tag)
{
    static std::atomic<int> seq{0};
    fs::path dir = fs::temp_directory_path();
    return (dir / ("sara-test-" + std::string(tag) + "-" +
                   std::to_string(::getpid()) + "-" +
                   std::to_string(seq++) + ".sock"))
        .string();
}

serve::ServerOptions
testOptions(const char *tag, int workers, size_t depth)
{
    serve::ServerOptions o;
    o.socketPath = testSocketPath(tag);
    o.workers = workers;
    o.queueDepth = depth;
    o.useDiskCache = false; // in-memory LRU only: fast + hermetic
    return o;
}

serve::Request
compileReq(const std::string &id, const std::string &workload, int par)
{
    serve::Request r;
    r.id = id;
    r.verb = serve::Verb::Compile;
    r.workload = workload;
    r.par = par;
    return r;
}

} // namespace

TEST(ServeServer, CompileRunStatsShutdownEndToEnd)
{
    serve::Server server(testOptions("e2e", 2, 16));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());

        // Cold compile.
        json::Value c1 = client.call(compileReq("c1", "ms", 4));
        ASSERT_EQ(c1.at("status").str, "ok") << c1.at("error").str;
        EXPECT_FALSE(c1.at("from_cache").boolean);
        std::string key = c1.at("key").str;
        EXPECT_FALSE(key.empty());

        // Warm repeat: served from the in-memory cache, same key.
        json::Value c2 = client.call(compileReq("c2", "ms", 4));
        ASSERT_EQ(c2.at("status").str, "ok");
        EXPECT_TRUE(c2.at("from_cache").boolean);
        EXPECT_EQ(c2.at("key").str, key);

        // Run with correctness checking.
        serve::Request run;
        run.id = "r1";
        run.verb = serve::Verb::Run;
        run.workload = "ms";
        run.par = 4;
        run.check = true;
        json::Value r = client.call(run);
        ASSERT_EQ(r.at("status").str, "ok") << r.at("error").str;
        EXPECT_GT(r.at("cycles").num, 0.0);
        EXPECT_TRUE(r.at("correct").boolean);
        EXPECT_TRUE(r.at("from_cache").boolean); // reuses c1's artifact

        // Live stats.
        serve::Request st;
        st.id = "s1";
        st.verb = serve::Verb::Stats;
        json::Value s = client.call(st);
        ASSERT_EQ(s.at("status").str, "ok");
        const json::Value &stats = s.at("stats");
        EXPECT_EQ(stats.at("workers").num, 2.0);
        EXPECT_TRUE(stats.find("tenants") != nullptr);

        // Shutdown verb stops the daemon.
        serve::Request sd;
        sd.id = "bye";
        sd.verb = serve::Verb::Shutdown;
        json::Value bye = client.call(sd);
        EXPECT_EQ(bye.at("status").str, "ok");
    }
    server.wait();
    EXPECT_TRUE(server.stopping());
    EXPECT_FALSE(fs::exists(server.socketPath())); // socket unlinked
}

TEST(ServeServer, PoisonedRequestsGetErrorsAndDaemonSurvives)
{
    serve::Server server(testOptions("poison", 2, 16));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());

        // Unknown workload: structured error, not a dead daemon.
        json::Value bad = client.call(compileReq("p1", "nonexistent", 4));
        EXPECT_EQ(bad.at("status").str, "error");
        EXPECT_FALSE(bad.at("error").str.empty());

        // Malformed line: parse error response, connection stays up.
        client.sendLine("{this is not json");
        auto perr = client.recv();
        ASSERT_TRUE(perr.has_value());
        EXPECT_EQ(perr->at("status").str, "error");

        // The daemon still serves real work afterwards.
        json::Value ok = client.call(compileReq("p2", "ms", 4));
        EXPECT_EQ(ok.at("status").str, "ok");
    }
    server.requestStop();
    server.wait();
}

TEST(ServeServer, UnknownWorkloadsAreParseErrorsWithoutBreakers)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    serve::Server server(testOptions("unknown", 1, 8));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const int n = 5;
        for (int i = 0; i < n; ++i) {
            json::Value v = client.call(
                compileReq("u" + std::to_string(i),
                           "no-such-" + std::to_string(i), 4));
            EXPECT_EQ(v.at("status").str, "error");
            EXPECT_NE(v.at("error").str.find("unknown workload"),
                      std::string::npos)
                << v.at("error").str;
        }
        EXPECT_EQ(reg.counter("serve.parse_errors"), uint64_t(n));
        EXPECT_EQ(reg.counter("serve.requests"), 0u);
        // No per-name state: the breaker table stays empty.
        json::Value stats = json::parse(server.statsJson());
        EXPECT_TRUE(stats.at("breakers").obj.empty());
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, OverloadRejectsWithRetryHintAndRecovers)
{
    // One worker, tiny queue: a pipelined burst of distinct compiles
    // must overflow admission. Every request still gets exactly one
    // response, the overflow as a structured reject with a hint.
    serve::Server server(testOptions("overload", 1, 2));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const int burst = 16;
        for (int i = 0; i < burst; ++i)
            client.send(compileReq("b" + std::to_string(i), "ms", i + 1));
        int ok = 0, rejected = 0, errors = 0;
        for (int i = 0; i < burst; ++i) {
            auto v = client.recv();
            ASSERT_TRUE(v.has_value()) << "daemon closed mid-burst";
            std::string status = v->at("status").str;
            if (status == "ok") {
                ++ok;
            } else if (status == "rejected") {
                ++rejected;
                EXPECT_GE(v->at("retry_after_ms").num, 0.0);
            } else {
                ++errors;
            }
        }
        EXPECT_EQ(ok + rejected, burst);
        EXPECT_EQ(errors, 0);
        EXPECT_GT(rejected, 0);
        EXPECT_GT(ok, 0);

        // Post-burst the daemon accepts work again.
        json::Value after = client.call(compileReq("after", "ms", 4));
        EXPECT_EQ(after.at("status").str, "ok");
    }
    server.requestStop();
    server.wait();
}

TEST(ServeServer, IdenticalConcurrentCompilesAreDeduped)
{
    serve::Server server(testOptions("dedup", 4, 64));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const int n = 8;
        for (int i = 0; i < n; ++i)
            client.send(compileReq("d" + std::to_string(i), "ms", 8));
        int fresh = 0, warm = 0;
        std::string key;
        for (int i = 0; i < n; ++i) {
            auto v = client.recv();
            ASSERT_TRUE(v.has_value());
            ASSERT_EQ(v->at("status").str, "ok");
            if (key.empty())
                key = v->at("key").str;
            EXPECT_EQ(v->at("key").str, key); // one content key for all
            bool fromCache = v->at("from_cache").boolean;
            bool deduped = v->at("deduped").boolean;
            (fromCache || deduped) ? ++warm : ++fresh;
        }
        EXPECT_EQ(fresh, 1);
        EXPECT_EQ(warm, n - 1);
    }
    server.requestStop();
    server.wait();
}

TEST(ServeServer, RequestStopAnswersBacklogBeforeExit)
{
    // Admitted requests are drained (answered), not dropped, on stop.
    serve::Server server(testOptions("drain", 1, 8));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    serve::Client client(server.socketPath());
    // A stats round trip first: guarantees the accept loop has picked
    // up this connection (a reader thread exists) before we race the
    // burst against requestStop().
    serve::Request st;
    st.id = "hello";
    st.verb = serve::Verb::Stats;
    ASSERT_EQ(client.call(st).at("status").str, "ok");
    const int n = 4;
    for (int i = 0; i < n; ++i)
        client.send(compileReq("q" + std::to_string(i), "ms", i + 1));
    server.requestStop();
    int answered = 0;
    for (int i = 0; i < n; ++i) {
        auto v = client.recv();
        if (!v)
            break; // EOF after drain: remaining were pre-admission
        std::string status = v->at("status").str;
        EXPECT_TRUE(status == "ok" || status == "rejected") << status;
        ++answered;
    }
    // Everything the daemon admitted (or rejected) before the listener
    // closed got a response; nothing hung.
    EXPECT_GT(answered, 0);
    server.wait();
}

// ---------------------------------------------------------------------------
// Crash-only serving: churn GC, deadlines, shedding, watchdog, breaker
// ---------------------------------------------------------------------------

TEST(FairQueue, TenantChurnIsGarbageCollected)
{
    // A stream of one-shot tenant names must not grow the tenant map:
    // a drained default-weight tenant is dropped on pop.
    jobs::FairQueue<int> q(64);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_TRUE(q.tryPush("oneshot-" + std::to_string(i), i));
        ASSERT_TRUE(q.pop().has_value());
        EXPECT_LE(q.tenantCount(), 1u) << i;
    }
    EXPECT_EQ(q.tenantCount(), 0u);

    // Explicitly weighted tenants are pinned: their configuration
    // survives going idle.
    q.setWeight("vip", 2.0);
    ASSERT_TRUE(q.tryPush("vip", 1));
    ASSERT_TRUE(q.pop().has_value());
    EXPECT_EQ(q.tenantCount(), 1u);
    // And interleaved churn still collects the unpinned ones.
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(q.tryPush("churn-" + std::to_string(i), i));
        ASSERT_TRUE(q.pop().has_value());
    }
    EXPECT_EQ(q.tenantCount(), 1u);
}

namespace {

serve::Request
runReq(const std::string &id, const std::string &workload, int par,
       uint64_t maxCycles = 0, int scale = 1)
{
    serve::Request r;
    r.id = id;
    r.verb = serve::Verb::Run;
    r.workload = workload;
    r.par = par;
    r.maxCycles = maxCycles;
    r.scale = scale;
    return r;
}

/** Raw AF_UNIX connection for driving half-open/misbehaving clients
 *  the serve::Client API (rightly) cannot express. */
int
rawConnect(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read until EOF or timeout; returns everything received. */
std::string
rawDrain(int fd, int timeoutMs)
{
    std::string got;
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeoutMs);
    for (;;) {
        int remain = static_cast<int>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count());
        if (remain <= 0)
            break;
        pollfd p{fd, POLLIN, 0};
        int pr = ::poll(&p, 1, std::min(remain, 100));
        if (pr < 0)
            break;
        if (pr == 0)
            continue;
        char buf[4096];
        ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break; // EOF (shed) or error.
        got.append(buf, static_cast<size_t>(n));
    }
    return got;
}

} // namespace

TEST(ServeServer, RejectionHintIsFiniteWithZeroCompletedSamples)
{
    // The retry_after_ms hint derives from a service-time EWMA. Before
    // the first completion the EWMA has zero samples; rejects issued
    // in that window must still carry a finite positive hint, not a
    // zero, a NaN, or a division artifact.
    serve::Server server(testOptions("ewma", 1, 1));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        // A pipelined burst lands while the first cold compile is
        // still in flight: every reject precedes any completion.
        const int burst = 8;
        for (int i = 0; i < burst; ++i)
            client.send(compileReq("z" + std::to_string(i), "ms", 4));
        int rejected = 0;
        for (int i = 0; i < burst; ++i) {
            auto v = client.recv();
            ASSERT_TRUE(v.has_value());
            if (v->at("status").str != "rejected")
                continue;
            ++rejected;
            double hint = v->at("retry_after_ms").num;
            EXPECT_TRUE(std::isfinite(hint));
            EXPECT_GE(hint, 1.0);
        }
        EXPECT_GT(rejected, 0);
    }
    server.requestStop();
    server.wait();
}

TEST(ServeServer, SlowLorisConnectionIsShed)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("loris", 1, 8);
    opt.readDeadlineMs = 100.0;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));

    int fd = rawConnect(server.socketPath());
    ASSERT_GE(fd, 0);
    // A few bytes of a request line, then silence: the reader's
    // partial-line deadline must shed us instead of waiting forever.
    const char *partial = "{\"schema\":\"sara-req";
    ASSERT_GT(::send(fd, partial, std::strlen(partial), MSG_NOSIGNAL),
              0);
    std::string got = rawDrain(fd, 5000);
    ::close(fd);
    // Shed with a structured parting error, then EOF.
    EXPECT_NE(got.find("read deadline"), std::string::npos) << got;
    EXPECT_GE(reg.counter("serve.shed.slowloris"), 1u);

    // A well-formed client is still served afterwards.
    serve::Client client(server.socketPath());
    EXPECT_EQ(client.call(compileReq("after", "ms", 4)).at("status").str,
              "ok");
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, IdleConnectionIsShed)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("idle", 1, 8);
    opt.idleTimeoutMs = 100.0;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));

    int fd = rawConnect(server.socketPath());
    ASSERT_GE(fd, 0);
    // Connect and send nothing: the idle timeout closes us.
    std::string got = rawDrain(fd, 5000);
    ::close(fd);
    EXPECT_NE(got.find("idle timeout"), std::string::npos) << got;
    EXPECT_GE(reg.counter("serve.shed.idle"), 1u);
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, ConnectionLimitSendsStructuredOverloaded)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("maxconn", 1, 8);
    opt.maxConnections = 1;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));

    // First connection occupies the only slot (a completed round trip
    // guarantees its reader is registered). The waitForServer() probe
    // above may hold the slot for one more poll tick until its EOF is
    // seen, so admission can transiently answer `overloaded` — retry.
    std::unique_ptr<serve::Client> first;
    serve::Request st;
    st.id = "s";
    st.verb = serve::Verb::Stats;
    for (int attempt = 0; attempt < 50; ++attempt) {
        first = std::make_unique<serve::Client>(server.socketPath());
        if (first->call(st).at("status").str == "ok")
            break;
        first.reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    ASSERT_NE(first, nullptr) << "slot never freed";

    // The overflow connection gets one structured `overloaded` line
    // with a retry hint, then EOF — never a silent drop.
    int fd = rawConnect(server.socketPath());
    ASSERT_GE(fd, 0);
    std::string got = rawDrain(fd, 5000);
    ::close(fd);
    auto nl = got.find('\n');
    ASSERT_NE(nl, std::string::npos) << got;
    json::Value v = json::parse(got.substr(0, nl));
    EXPECT_EQ(v.at("status").str, "overloaded");
    EXPECT_GE(v.at("retry_after_ms").num, 1.0);
    EXPECT_GE(reg.counter("serve.overloaded"), 1u);

    // The admitted connection is unaffected.
    EXPECT_EQ(first->call(compileReq("c", "ms", 4)).at("status").str,
              "ok");
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeClient, CallReturnsReplyLeftByAClosedDaemon)
{
    // A stand-in daemon at its connection cap: accept, write one
    // `overloaded` line, close — all before the client sends. The
    // client's send then fails (EPIPE), but call() must still return
    // the line waiting in its receive buffer.
    std::string path = testSocketPath("closed");
    int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr),
              0);
    ASSERT_EQ(::listen(lfd, 1), 0);

    serve::Client client(path);
    int cfd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(cfd, 0);
    std::string line =
        R"({"id":"","status":"overloaded","retry_after_ms":50})"
        "\n";
    ASSERT_EQ(::send(cfd, line.data(), line.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(line.size()));
    ::close(cfd);

    serve::Request st;
    st.id = "s";
    st.verb = serve::Verb::Stats;
    json::Value v = client.call(st);
    EXPECT_EQ(v.at("status").str, "overloaded");
    EXPECT_EQ(v.at("retry_after_ms").num, 50.0);
    ::close(lfd);
    fs::remove(path);
}

TEST(ServeServer, WatchdogCancelsRunawayRequestAndDaemonSurvives)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("watchdog", 2, 8);
    // A 1 ms wall-clock deadline against a request whose simulation
    // runs for seconds uncancelled (lstm par 8 at scale 16): whenever
    // the watchdog's tick lands, the run is still in flight, so the
    // simulator cancels at its next cycle poll. No sleeps.
    opt.requestDeadlineMs = 1.0;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        json::Value v = client.call(runReq("w1", "lstm", 8, 0, 16));
        ASSERT_EQ(v.at("status").str, "error");
        EXPECT_NE(v.at("error").str.find("deadline"), std::string::npos)
            << v.at("error").str;
        // The cancellation rides the structured FailureReport.
        const json::Value *fr = v.find("failure_report");
        ASSERT_NE(fr, nullptr);
        EXPECT_TRUE(fr->at("cancelled").boolean);
        EXPECT_GE(reg.counter("serve.watchdog.cancelled"), 1u);
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, BreakerTripsThenHalfOpensAfterCooldown)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("breaker", 1, 8);
    opt.breakerThreshold = 2;
    opt.breakerCooldownMs = 150.0;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());

        // Two consecutive poison failures (a 1-cycle budget can never
        // finish) trip the workload's breaker...
        for (int i = 0; i < 2; ++i) {
            json::Value v =
                client.call(runReq("p" + std::to_string(i), "ms", 4,
                                   /*maxCycles=*/1));
            EXPECT_EQ(v.at("status").str, "error") << i;
        }
        EXPECT_GE(reg.counter("serve.breaker.tripped"), 1u);

        // ...so the next request is rejected without executing.
        json::Value rej = client.call(runReq("p2", "ms", 4, 1));
        EXPECT_EQ(rej.at("status").str, "rejected");
        EXPECT_NE(rej.at("error").str.find("circuit breaker"),
                  std::string::npos);
        EXPECT_GE(rej.at("retry_after_ms").num, 0.0);

        // Other workloads are isolated: their breakers are closed.
        EXPECT_EQ(client.call(runReq("other", "logreg", 4))
                      .at("status")
                      .str,
                  "ok");

        // After the cooldown the half-open probe re-tests the
        // workload; a healthy request closes the breaker for good.
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        EXPECT_EQ(client.call(runReq("probe", "ms", 4)).at("status").str,
                  "ok");
        EXPECT_EQ(client.call(runReq("closed", "ms", 4))
                      .at("status")
                      .str,
                  "ok");
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, RepeatedTupleBuildsHashesAndInterpretsOnce)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    serve::Server server(testOptions("memo", 1, 16));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const int rounds = 4;
        std::string key;
        double cycles = 0.0;
        for (int i = 0; i < rounds; ++i) {
            serve::Request run = runReq("r" + std::to_string(i), "ms", 4);
            run.check = true;
            json::Value r = client.call(run);
            ASSERT_EQ(r.at("status").str, "ok") << r.at("error").str;
            EXPECT_TRUE(r.at("correct").boolean) << i;
            json::Value c =
                client.call(compileReq("c" + std::to_string(i), "ms", 4));
            ASSERT_EQ(c.at("status").str, "ok") << c.at("error").str;
            if (i == 0) {
                key = r.at("key").str;
                cycles = r.at("cycles").num;
            }
            EXPECT_EQ(r.at("key").str, key) << i;
            EXPECT_EQ(c.at("key").str, key) << i;
            EXPECT_EQ(r.at("cycles").num, cycles) << i;
        }
        EXPECT_EQ(reg.counter("serve.memcache.miss"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.hit"),
                  uint64_t(2 * rounds - 1));
        EXPECT_EQ(reg.counter("serve.workload.built"), 1u);
        EXPECT_EQ(reg.counter("serve.reference.computed"), 1u);
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, CompiledTupleKeepsNoWorkloadUntilARun)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    serve::Server server(testOptions("memokey", 1, 16));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        std::string key;
        for (int i = 0; i < 3; ++i) {
            json::Value c =
                client.call(compileReq("c" + std::to_string(i), "ms", 4));
            ASSERT_EQ(c.at("status").str, "ok") << c.at("error").str;
            if (i == 0)
                key = c.at("key").str;
            EXPECT_EQ(c.at("key").str, key) << i;
        }
        // The miss built the program for its one compile.
        EXPECT_EQ(reg.counter("serve.workload.built"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.miss"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.hit"), 2u);

        // The first run builds the inputs once more and keeps them.
        double cycles = 0.0;
        for (int i = 0; i < 2; ++i) {
            serve::Request run = runReq("r" + std::to_string(i), "ms", 4);
            run.check = true;
            json::Value r = client.call(run);
            ASSERT_EQ(r.at("status").str, "ok") << r.at("error").str;
            EXPECT_TRUE(r.at("correct").boolean) << i;
            EXPECT_EQ(r.at("key").str, key) << i;
            if (i == 0)
                cycles = r.at("cycles").num;
            EXPECT_EQ(r.at("cycles").num, cycles) << i;
        }
        EXPECT_EQ(reg.counter("serve.workload.built"), 2u);
        EXPECT_EQ(reg.counter("serve.reference.computed"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.miss"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.hit"), 4u);
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, FailedCompileLeavesTheNextRequestToCompileAfresh)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    // Both attempts of the first compile fail, so the tuple's entry
    // holds no result and keeps no program.
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("compile-fault:count=2")};
    fault::FaultInjector inj(plan, 1);
    auto opt = testOptions("memofresh", 1, 16);
    opt.fault = &inj;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        json::Value failed = client.call(compileReq("c0", "ms", 4));
        EXPECT_EQ(failed.at("status").str, "error");
        EXPECT_EQ(reg.counter("serve.workload.built"), 1u);

        json::Value c = client.call(compileReq("c1", "ms", 4));
        ASSERT_EQ(c.at("status").str, "ok") << c.at("error").str;
        EXPECT_FALSE(c.at("from_cache").boolean);
        EXPECT_EQ(reg.counter("serve.memcache.miss"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.hit"), 0u);
        EXPECT_EQ(reg.counter("serve.workload.built"), 2u);
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, MemoOfOneEntryEvictsAlternatingTuples)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("memo1", 1, 16);
    opt.memCacheEntries = 1;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const char *names[] = {"ms", "bs"};
        std::map<std::string, double> cycles;
        const int n = 6;
        for (int i = 0; i < n; ++i) {
            serve::Request run =
                runReq("a" + std::to_string(i), names[i % 2], 4);
            run.check = true;
            json::Value r = client.call(run);
            ASSERT_EQ(r.at("status").str, "ok") << r.at("error").str;
            EXPECT_TRUE(r.at("correct").boolean) << i;
            auto it =
                cycles.try_emplace(run.workload, r.at("cycles").num).first;
            EXPECT_EQ(r.at("cycles").num, it->second) << i;
        }
        EXPECT_EQ(reg.counter("serve.memcache.miss"), uint64_t(n));
        EXPECT_EQ(reg.counter("serve.memcache.hit"), 0u);
        EXPECT_EQ(reg.counter("serve.workload.built"), uint64_t(n));
        EXPECT_EQ(reg.counter("serve.reference.computed"), uint64_t(n));
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, ConcurrentChecksComputeOneReference)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    serve::Server server(testOptions("memoconc", 4, 64));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const int n = 8;
        for (int i = 0; i < n; ++i) {
            serve::Request run = runReq("k" + std::to_string(i), "ms", 4);
            run.check = true;
            client.send(run);
        }
        for (int i = 0; i < n; ++i) {
            auto v = client.recv();
            ASSERT_TRUE(v.has_value());
            ASSERT_EQ(v->at("status").str, "ok") << v->at("error").str;
            EXPECT_TRUE(v->at("correct").boolean);
        }
        // Concurrent first requests share one entry: one of them
        // builds, compiles and interprets while the rest wait for it.
        EXPECT_EQ(reg.counter("serve.workload.built"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.miss"), 1u);
        EXPECT_EQ(reg.counter("serve.memcache.hit"), uint64_t(n - 1));
        EXPECT_EQ(reg.counter("serve.reference.computed"), 1u);
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}

TEST(ServeServer, RepeatsOfATupleNeverProbeTheDisk)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    fs::path dir = fs::temp_directory_path() /
                   ("sara-test-memodisk-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    auto opt = testOptions("memodisk", 1, 16);
    opt.useDiskCache = true;
    opt.cacheDir = dir.string();
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        json::Value first = client.call(compileReq("c0", "ms", 4));
        ASSERT_EQ(first.at("status").str, "ok") << first.at("error").str;
        EXPECT_FALSE(first.at("from_cache").boolean);
        EXPECT_EQ(reg.counter("artifact.cache.store"), 1u);

        // Every later verb on the tuple is served from its entry: no
        // disk probe, no store and no compile to join.
        auto diskCounters = [&] {
            std::map<std::string, uint64_t> out;
            for (const auto &[name, v] : reg.counterSnapshot())
                if (name.rfind("artifact.cache.", 0) == 0)
                    out[name] = v;
            return out;
        };
        auto disk = diskCounters();
        uint64_t joins = reg.counter("jobs.compile.deduped");
        serve::Request run = runReq("r0", "ms", 4);
        serve::Request check = runReq("k0", "ms", 4);
        check.check = true;
        for (const serve::Request &req :
             {compileReq("c1", "ms", 4), run, check}) {
            json::Value v = client.call(req);
            ASSERT_EQ(v.at("status").str, "ok") << v.at("error").str;
            EXPECT_TRUE(v.at("from_cache").boolean) << req.id;
            EXPECT_FALSE(v.at("deduped").boolean) << req.id;
            EXPECT_EQ(v.at("key").str, first.at("key").str) << req.id;
        }
        EXPECT_EQ(diskCounters(), disk);
        EXPECT_EQ(reg.counter("jobs.compile.deduped"), joins);
        EXPECT_EQ(reg.counter("serve.memcache.hit"), 3u);
    }
    server.requestStop();
    server.wait();
    fs::remove_all(dir);
    reg.setEnabled(false);
}

TEST(ServeServer, MemoOfZeroEntriesCompilesEveryRequest)
{
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    auto opt = testOptions("memo0", 1, 16);
    opt.memCacheEntries = 0;
    serve::Server server(std::move(opt));
    server.start();
    ASSERT_TRUE(serve::waitForServer(server.socketPath(), 5000));
    {
        serve::Client client(server.socketPath());
        const int n = 3;
        std::string key;
        for (int i = 0; i < n; ++i) {
            serve::Request check = runReq("k" + std::to_string(i), "ms", 4);
            check.check = true;
            for (const serve::Request &req :
                 {compileReq("c" + std::to_string(i), "ms", 4), check}) {
                json::Value v = client.call(req);
                ASSERT_EQ(v.at("status").str, "ok") << v.at("error").str;
                EXPECT_FALSE(v.at("from_cache").boolean) << req.id;
                EXPECT_FALSE(v.at("deduped").boolean) << req.id;
                if (key.empty())
                    key = v.at("key").str;
                EXPECT_EQ(v.at("key").str, key) << req.id;
            }
        }
        EXPECT_EQ(reg.counter("serve.memcache.miss"), uint64_t(2 * n));
        EXPECT_EQ(reg.counter("serve.memcache.hit"), 0u);
        EXPECT_EQ(reg.counter("serve.workload.built"), uint64_t(2 * n));
        EXPECT_EQ(reg.counter("serve.reference.computed"), uint64_t(n));
    }
    server.requestStop();
    server.wait();
    reg.setEnabled(false);
}
