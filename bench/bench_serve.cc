/**
 * @file
 * Load generator for the sarad service. Drives three phases against a
 * live daemon (in-process by default, or an external one via
 * --connect) and records the serving story the ROADMAP asks for into
 * BENCH_serve.json (schema sara-serve/v1, checked in CI):
 *
 *   1. cold vs warm: distinct compile requests against a fresh cache,
 *      then repeated requests against the warm cache. Warm p50 must
 *      sit far below cold p50 (acceptance: >= 10x) and the warm phase
 *      must never recompile.
 *   2. saturation sweep: open-loop `run` traffic at stepped offered
 *      rates bracketing the measured capacity. Each step records
 *      completed throughput, rejects, and p50/p99 latency; past the
 *      knee every extra request gets a structured `rejected` response
 *      (never a hang, never a dropped reply).
 *   3. fairness: two tenants at equal offered load past saturation;
 *      weighted fair scheduling must hand them throughput within 20%
 *      of each other.
 *
 * Options:
 *   --connect PATH   drive an already-running sarad instead of the
 *                    in-process server (CI smoke uses this)
 *   --out FILE       report path (default BENCH_serve.json)
 *   --quick          shorter steps (CI)
 *   --workers N      in-process server worker threads, 1-256 (default
 *                    4); the load follows the daemon's own count
 *   --queue-depth N  in-process admission bound (default 32)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/socket.h>

#include "bench/bench_common.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/json.h"
#include "support/logging.h"

using namespace sara;
using Clock = std::chrono::steady_clock;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
percentile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t idx = static_cast<size_t>(q * (xs.size() - 1));
    return xs[idx];
}

struct BenchOptions
{
    std::string connect; ///< External daemon socket (empty: in-process).
    std::string out = "BENCH_serve.json";
    bool quick = false;
    int workers = 4;
    size_t queueDepth = 32;
};

serve::Request
runRequest(const std::string &id, const std::string &tenant,
           const std::string &workload, int par)
{
    serve::Request r;
    r.id = id;
    r.verb = serve::Verb::Run;
    r.tenant = tenant;
    r.workload = workload;
    r.par = par;
    return r;
}

const char *
respStatus(const json::Value &v)
{
    const json::Value *s = v.find("status");
    return s && s->isString() ? s->str.c_str() : "?";
}

// ---------------------------------------------------------------------------
// Open-loop driver: one connection, a paced sender and a reader that
// matches responses to send times by id. Every request must receive
// exactly one response (ok / rejected / error); a 20 s receive stall
// is treated as a server hang and aborts the bench.
// ---------------------------------------------------------------------------

struct LoadResult
{
    uint64_t sent = 0, ok = 0, rejected = 0, errors = 0;
    std::vector<double> latMs; ///< ok responses only.
    double wallMs = 0.0;       ///< First send -> last response.

    double
    completedRps() const
    {
        return wallMs > 0.0 ? ok / (wallMs / 1e3) : 0.0;
    }
};

LoadResult
openLoop(const std::string &socket, const std::string &tenant,
         const std::string &idPrefix, const std::string &workload,
         int par, double rps, double durationS, uint64_t maxRequests)
{
    serve::Client client(socket);
    timeval tv{20, 0};
    ::setsockopt(client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    LoadResult res;
    std::mutex mu;
    std::unordered_map<std::string, Clock::time_point> sendTimes;

    uint64_t total = std::min<uint64_t>(
        maxRequests, static_cast<uint64_t>(rps * durationS));
    total = std::max<uint64_t>(total, 1);

    auto start = Clock::now();
    std::thread reader([&] {
        uint64_t received = 0;
        while (received < total) {
            auto v = client.recv();
            if (!v)
                fatal("bench_serve: daemon closed mid-sweep");
            ++received;
            auto now = Clock::now();
            std::string status = respStatus(*v);
            const json::Value *id = v->find("id");
            if (status == "ok") {
                ++res.ok;
                std::lock_guard<std::mutex> lock(mu);
                if (id) {
                    auto it = sendTimes.find(id->str);
                    if (it != sendTimes.end())
                        res.latMs.push_back(
                            msBetween(it->second, now));
                }
            } else if (status == "rejected") {
                ++res.rejected;
            } else {
                ++res.errors;
            }
        }
        res.wallMs = msBetween(start, Clock::now());
    });

    std::chrono::duration<double> interval(1.0 / rps);
    for (uint64_t i = 0; i < total; ++i) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        interval * static_cast<double>(i)));
        std::string id = idPrefix + std::to_string(i);
        {
            std::lock_guard<std::mutex> lock(mu);
            sendTimes.emplace(id, Clock::now());
        }
        client.send(runRequest(id, tenant, workload, par));
        ++res.sent;
    }
    reader.join();
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opt;
    CliArgs args(argc, argv,
                 "[--connect SOCKET] [--out FILE.json] [--quick] "
                 "[--workers 1-256] [--queue-depth N]");
    while (args.next()) {
        if (args.is("--connect"))
            opt.connect = args.value();
        else if (args.is("--out"))
            opt.out = args.value();
        else if (args.is("--quick"))
            opt.quick = true;
        else if (args.is("--workers"))
            opt.workers = args.number(jobs::BatchOptions::kMinThreads,
                                      jobs::BatchOptions::kMaxThreads);
        else if (args.is("--queue-depth"))
            opt.queueDepth = args.number<size_t>();
        else
            args.unknown();
    }

    // --- Spin up (or attach to) the daemon -----------------------------
    namespace fs = std::filesystem;
    std::unique_ptr<serve::Server> server;
    std::string socket = opt.connect;
    if (socket.empty()) {
        fs::path dir = fs::temp_directory_path() / "sara-bench-serve";
        fs::remove_all(dir);
        fs::create_directories(dir);
        serve::ServerOptions so;
        so.socketPath = (dir / "sarad.sock").string();
        so.cacheDir = (dir / "cache").string();
        so.useDiskCache = true;
        so.workers = opt.workers;
        so.queueDepth = opt.queueDepth;
        server = std::make_unique<serve::Server>(std::move(so));
        server->start();
        socket = server->socketPath();
    }
    if (!serve::waitForServer(socket, 5000))
        fatal("bench_serve: no daemon at ", socket);
    std::printf("[bench] driving sarad at %s\n", socket.c_str());

    const std::string workload = "ms";
    const int par = 4;

    // --- Phase 1: cold vs warm ----------------------------------------
    // Distinct (workload, par) keys compile cold; repeats hit the warm
    // in-memory/on-disk cache without recompiling.
    struct Key
    {
        std::string workload;
        int par;
    };
    const std::vector<Key> keys = {
        {"ms", 4}, {"ms", 8}, {"logreg", 4}, {"gda", 4}};
    const int repeats = opt.quick ? 10 : 50;

    std::vector<double> coldMs, warmMs;
    uint64_t warmRecompiles = 0, warmCacheHits = 0;
    {
        serve::Client client(socket);
        for (size_t k = 0; k < keys.size(); ++k) {
            serve::Request r;
            r.id = "cold" + std::to_string(k);
            r.verb = serve::Verb::Compile;
            r.workload = keys[k].workload;
            r.par = keys[k].par;
            auto t0 = Clock::now();
            json::Value v = client.call(r);
            coldMs.push_back(msBetween(t0, Clock::now()));
            if (std::string(respStatus(v)) != "ok")
                fatal("cold compile failed: ", v.at("error").str);
        }
        for (int rep = 0; rep < repeats; ++rep) {
            for (size_t k = 0; k < keys.size(); ++k) {
                serve::Request r;
                r.id = "warm" + std::to_string(rep * keys.size() + k);
                r.verb = serve::Verb::Compile;
                r.workload = keys[k].workload;
                r.par = keys[k].par;
                auto t0 = Clock::now();
                json::Value v = client.call(r);
                warmMs.push_back(msBetween(t0, Clock::now()));
                if (std::string(respStatus(v)) != "ok")
                    fatal("warm compile failed");
                bool fromCache = v.at("from_cache").boolean;
                bool deduped = v.at("deduped").boolean;
                if (fromCache)
                    ++warmCacheHits;
                else if (!deduped)
                    ++warmRecompiles;
            }
        }
    }
    double coldP50 = percentile(coldMs, 0.50);
    double warmP50 = percentile(warmMs, 0.50);
    double speedup = warmP50 > 0.0 ? coldP50 / warmP50 : 0.0;
    std::printf("[bench] cold p50 %.2fms, warm p50 %.3fms (%.0fx), "
                "%llu/%zu warm hits, %llu recompiles\n",
                coldP50, warmP50, speedup,
                static_cast<unsigned long long>(warmCacheHits),
                warmMs.size(),
                static_cast<unsigned long long>(warmRecompiles));

    // --- Capacity estimate (closed loop) ------------------------------
    // Serial round trips of the warm `run` request give the per-worker
    // service time; the sweep rates bracket workers/service, with the
    // worker count the daemon itself reports (an external daemon need
    // not run --workers of them).
    double serviceMs;
    int workers;
    {
        serve::Client client(socket);
        serve::Request st;
        st.id = "workers";
        st.verb = serve::Verb::Stats;
        json::Value v = client.call(st);
        const json::Value *stats = v.find("stats");
        const json::Value *n = stats ? stats->find("workers") : nullptr;
        if (!n || !n->isNumber())
            fatal("bench_serve: the stats reply names no worker count");
        workers = static_cast<int>(n->num);
        client.call(runRequest("prewarm", "default", workload, par));
        const int probes = opt.quick ? 20 : 50;
        auto t0 = Clock::now();
        for (int i = 0; i < probes; ++i)
            client.call(runRequest("probe" + std::to_string(i),
                                   "default", workload, par));
        serviceMs = msBetween(t0, Clock::now()) / probes;
    }
    double capacityRps = workers / (serviceMs / 1e3);
    std::printf("[bench] closed-loop service %.2fms -> est. capacity "
                "%.0f req/s on %d workers\n",
                serviceMs, capacityRps, workers);

    // --- Phase 2: stepped-rate open-loop sweep ------------------------
    const std::vector<double> factors = {0.1, 0.25, 0.5, 1.0, 2.0,
                                         4.0};
    const double stepS = opt.quick ? 0.6 : 1.5;
    const uint64_t maxReqs = opt.quick ? 2000 : 8000;
    struct Step
    {
        double offered;
        LoadResult r;
    };
    std::vector<Step> steps;
    for (double f : factors) {
        double rate = std::max(10.0, capacityRps * f);
        std::string prefix = "s";
        prefix += std::to_string(steps.size());
        prefix += '-';
        Step s{rate, openLoop(socket, "default", prefix, workload, par,
                              rate, stepS, maxReqs)};
        std::printf("[bench] offered %7.0f/s: %5llu ok, %5llu "
                    "rejected, %llu errors, p50 %.2fms p99 %.2fms "
                    "(completed %.0f/s)\n",
                    s.offered,
                    static_cast<unsigned long long>(s.r.ok),
                    static_cast<unsigned long long>(s.r.rejected),
                    static_cast<unsigned long long>(s.r.errors),
                    percentile(s.r.latMs, 0.5),
                    percentile(s.r.latMs, 0.99), s.r.completedRps());
        steps.push_back(std::move(s));
    }
    double saturationRps = 0.0;
    for (const auto &s : steps)
        saturationRps = std::max(saturationRps, s.r.completedRps());
    const Step &past = steps.back();
    bool gracefulRejection = past.r.rejected > 0 &&
                             past.r.errors == 0 &&
                             past.r.ok + past.r.rejected == past.r.sent;
    std::printf("[bench] saturation %.0f req/s; past-knee rejection "
                "%s\n",
                saturationRps, gracefulRejection ? "graceful" : "NOT "
                                                               "graceful");

    // --- Phase 3: two-tenant fairness at saturation -------------------
    // Each tenant offers 0.75x capacity (1.5x aggregate), from its own
    // connection, concurrently.
    const double fairRate = std::max(10.0, capacityRps * 0.75);
    // The fairness ratio is the noisiest acceptance number, so the
    // phase keeps its full duration even under --quick.
    const double fairS = 2.0;
    LoadResult ra, rb;
    {
        std::thread ta([&] {
            ra = openLoop(socket, "tenant-a", "a-", workload, par,
                          fairRate, fairS, maxReqs);
        });
        std::thread tb([&] {
            rb = openLoop(socket, "tenant-b", "b-", workload, par,
                          fairRate, fairS, maxReqs);
        });
        ta.join();
        tb.join();
    }
    double tputA = ra.completedRps(), tputB = rb.completedRps();
    double ratio = (tputA > 0 && tputB > 0)
                       ? std::max(tputA, tputB) / std::min(tputA, tputB)
                       : 0.0;
    std::printf("[bench] fairness: tenant-a %.0f/s, tenant-b %.0f/s "
                "(ratio %.2f)\n",
                tputA, tputB, ratio);

    // --- Final stats + (optionally) stop the in-process server --------
    std::string statsDoc;
    {
        serve::Client client(socket);
        serve::Request r;
        r.id = "stats";
        r.verb = serve::Verb::Stats;
        json::Value v = client.call(r);
        statsDoc = std::string(respStatus(v));
    }
    if (server) {
        server->requestStop();
        server->wait();
        server.reset();
    }

    // --- Report --------------------------------------------------------
    json::Writer j;
    j.beginObject();
    j.kv("schema", "sara-serve/v1");
    j.key("config")
        .beginObject()
        .kv("workers", workers)
        .kv("queue_depth", static_cast<uint64_t>(opt.queueDepth))
        .kv("external_daemon", !opt.connect.empty())
        .kv("quick", opt.quick)
        .kv("workload", workload)
        .kv("par", par)
        .endObject();
    j.key("cold_warm")
        .beginObject()
        .kv("distinct_keys", static_cast<uint64_t>(keys.size()))
        .kv("repeats", repeats)
        .kv("cold_p50_ms", coldP50)
        .kv("warm_p50_ms", warmP50)
        .kv("speedup", speedup)
        .kv("warm_cache_hits", warmCacheHits)
        .kv("warm_recompiles", warmRecompiles)
        .endObject();
    j.kv("closed_loop_service_ms", serviceMs);
    j.key("rates").beginArray();
    for (const auto &s : steps) {
        j.beginObject();
        j.kv("offered_rps", s.offered);
        j.kv("sent", s.r.sent);
        j.kv("ok", s.r.ok);
        j.kv("rejected", s.r.rejected);
        j.kv("errors", s.r.errors);
        j.kv("completed_rps", s.r.completedRps());
        j.kv("p50_ms", percentile(s.r.latMs, 0.50));
        j.kv("p99_ms", percentile(s.r.latMs, 0.99));
        j.endObject();
    }
    j.endArray();
    j.kv("saturation_rps", saturationRps);
    j.key("rejection")
        .beginObject()
        .kv("past_knee_rejected", past.r.rejected)
        .kv("past_knee_errors", past.r.errors)
        .kv("all_answered",
            past.r.ok + past.r.rejected + past.r.errors ==
                past.r.sent)
        .kv("graceful", gracefulRejection)
        .endObject();
    j.key("fairness")
        .beginObject()
        .kv("offered_rps_each", fairRate)
        .key("tenants")
        .beginArray();
    for (const auto *r : {&ra, &rb}) {
        j.beginObject();
        j.kv("tenant", r == &ra ? "tenant-a" : "tenant-b");
        j.kv("sent", r->sent);
        j.kv("ok", r->ok);
        j.kv("rejected", r->rejected);
        j.kv("throughput_rps", r->completedRps());
        j.kv("p50_ms", percentile(r->latMs, 0.50));
        j.kv("p99_ms", percentile(r->latMs, 0.99));
        j.endObject();
    }
    j.endArray();
    j.kv("throughput_ratio", ratio).endObject();
    j.endObject();

    std::FILE *f = std::fopen(opt.out.c_str(), "w");
    if (!f)
        fatal("cannot write ", opt.out);
    const std::string &doc = j.str();
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("[bench] wrote %s (stats verb: %s)\n", opt.out.c_str(),
                statsDoc.c_str());

    bool pass = speedup >= 10.0 && warmRecompiles == 0 &&
                gracefulRejection && ratio > 0.0 && ratio <= 1.2;
    std::printf("[bench] acceptance: %s (speedup %.0fx, recompiles "
                "%llu, rejection %s, fairness ratio %.2f)\n",
                pass ? "PASS" : "FAIL", speedup,
                static_cast<unsigned long long>(warmRecompiles),
                gracefulRejection ? "graceful" : "broken", ratio);
    return pass ? 0 : 1;
}
