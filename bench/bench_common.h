#ifndef SARA_BENCH_COMMON_H
#define SARA_BENCH_COMMON_H

/**
 * @file
 * Shared helpers for the table/figure reproduction binaries. Each
 * binary regenerates one piece of the paper's evaluation (§IV) and
 * prints the same rows/series the paper reports.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "artifact/cache.h"
#include "jobs/jobs.h"
#include "runtime/run.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/table.h"
#include "support/telemetry.h"
#include "workloads/workload.h"

namespace sara::bench {

/** For the binaries that take no flags: only `--help` is accepted. */
inline void
parseNoFlags(int argc, char **argv)
{
    CliArgs args(argc, argv, "(no options)");
    while (args.next())
        args.unknown();
}

/**
 * Execution context shared by the figure binaries: every bench sweep
 * accepts `-j N` (parallel sweep points via the job scheduler; default
 * all cores, `-j 1` restores the old serial behavior) and
 * `--cache-dir DIR` / `--cache` (compile through the artifact cache,
 * so a re-run after an interrupted or repeated sweep only pays for
 * simulation). Sweep *output* stays deterministic regardless of `-j`:
 * points run in parallel but rows are emitted in submission order.
 */
struct BenchContext
{
    int threads = 0; ///< Sweep-point concurrency (0 = hardware).
    bool useCache = false;
    std::string cacheDir;
    std::unique_ptr<artifact::ArtifactCache> cache;
    std::unique_ptr<artifact::CachingCompiler> compiler;

    /** Usage text of the flags take() accepts. */
    static constexpr const char *kFlags =
        "[-j 1-256] [--cache] [--cache-dir DIR]";

    /** Parse a command line of context flags only, then open(). */
    static BenchContext
    parse(int argc, char **argv)
    {
        CliArgs args(argc, argv, kFlags);
        BenchContext ctx;
        while (args.next())
            if (!ctx.take(args))
                args.unknown();
        ctx.open();
        return ctx;
    }

    /** Consume the current flag if it is a context flag. */
    bool
    take(CliArgs &args)
    {
        if (args.is("-j")) {
            threads = args.number(jobs::BatchOptions::kMinThreads,
                                  jobs::BatchOptions::kMaxThreads);
        } else if (args.is("--cache")) {
            useCache = true;
        } else if (args.is("--cache-dir")) {
            useCache = true;
            cacheDir = args.value();
        } else {
            return false;
        }
        return true;
    }

    /** Set up the cache and compiler once the flags are parsed. */
    void
    open()
    {
        if (useCache) {
            telemetry::Registry::global().setEnabled(true);
            cache = std::make_unique<artifact::ArtifactCache>(cacheDir);
            std::printf("[bench] artifact cache at %s\n",
                        cache->dir().c_str());
        }
        // Always compile through the caching front-end: with no cache
        // directory it still deduplicates identical in-flight sweep
        // points (fig9's repeated base configs).
        compiler = std::make_unique<artifact::CachingCompiler>(
            cache.get());
    }

    /** Apply this context to a run configuration. */
    void
    configure(runtime::RunConfig &rc) const
    {
        rc.cachingCompiler = compiler.get();
    }

    /**
     * Run `fn(i)` for every sweep point in [0, n) with bounded
     * concurrency; fatal()s on the first failing point (a bench sweep
     * has no partial-success story). Callers write results into
     * index-addressed slots and emit rows afterwards, in order.
     */
    void
    forEach(size_t n, const std::string &prefix,
            const std::function<void(size_t)> &fn) const
    {
        jobs::BatchOptions opt;
        opt.threads = threads;
        auto report = jobs::forEachIndex(n, prefix, fn, opt);
        if (!report.allOk())
            fatal("bench sweep '", prefix,
                  "' failed: ", report.firstError());
    }

    /** Print cache counters after a sweep (no-op without --cache). */
    void
    reportCache() const
    {
        if (!useCache)
            return;
        auto &reg = telemetry::Registry::global();
        std::printf("[bench] cache: %llu hits, %llu misses, %llu "
                    "stored\n",
                    static_cast<unsigned long long>(
                        reg.counter("artifact.cache.hit")),
                    static_cast<unsigned long long>(
                        reg.counter("artifact.cache.miss")),
                    static_cast<unsigned long long>(
                        reg.counter("artifact.cache.store")));
    }
};

/**
 * Streaming collector for the machine-readable companion of each
 * figure table (schema "sara-bench/v1"). The binaries print the
 * human-readable table as before and additionally drop a
 * BENCH_<figure>.json next to the binary so plots and CI trend checks
 * never have to scrape stdout.
 *
 *   BenchJson out("fig9");
 *   out.beginRow().kv("app", name).kv("gflops", r.gflops()).endRow();
 *   out.write();   // -> BENCH_fig9.json
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string figure) : figure_(std::move(figure))
    {
        w_.beginObject();
        w_.kv("schema", "sara-bench/v1");
        w_.kv("figure", figure_);
        w_.key("rows").beginArray();
    }

    BenchJson &beginRow()
    {
        w_.beginObject();
        return *this;
    }
    BenchJson &endRow()
    {
        w_.endObject();
        return *this;
    }
    template <typename T>
    BenchJson &
    kv(const std::string &k, T &&v)
    {
        w_.kv(k, std::forward<T>(v));
        return *this;
    }

    /** Direct writer access for nested row values (objects/arrays). */
    json::Writer &writer() { return w_; }

    /** Close the document and write BENCH_<figure>.json (or `path`). */
    void
    write(std::string path = "")
    {
        w_.endArray().endObject();
        if (path.empty())
            path = "BENCH_" + figure_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            warn("cannot write bench report to ", path);
            return;
        }
        const std::string &doc = w_.str();
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("[bench] wrote %s\n", path.c_str());
    }

  private:
    std::string figure_;
    json::Writer w_;
};

/**
 * Re-simulate an already-compiled outcome through the cycle-level NoC
 * (src/noc) and return the contended cycle count. The fig binaries
 * report both numbers side by side: the delta is what link-level
 * arbitration and backpressure cost on top of the fixed PnR latencies.
 */
inline uint64_t
nocCycles(const workloads::Workload &w, runtime::RunConfig rc,
          const runtime::RunOutcome &r)
{
    rc.sim.useNoc = true;
    rc.sim.traceFile.clear();
    rc.check = false;
    rc.cachingCompiler = nullptr;
    rc.preCompiled = r.compiled.get(); // Simulate, don't recompile.
    return runtime::runWorkload(w, rc).sim.cycles;
}

inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double logSum = 0.0;
    for (double x : xs)
        logSum += std::log(x);
    return std::exp(logSum / xs.size());
}

/** Nominal off-chip traffic (bytes) of a workload: inputs + outputs
 *  once each — what an ideally-cached GPU implementation moves. */
inline double
nominalBytes(const workloads::Workload &w)
{
    double bytes = 0.0;
    for (const auto &[tid, data] : w.dramInputs)
        bytes += 4.0 * data.size();
    bytes += 4.0 * w.elements;
    return bytes;
}

inline void
banner(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

} // namespace sara::bench

#endif // SARA_BENCH_COMMON_H
