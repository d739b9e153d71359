/**
 * @file
 * Host-throughput microbenchmark for the simulator event core. Unlike
 * the figure binaries (which reproduce *simulated* results), this one
 * measures how fast the simulator itself runs: wall-clock Mcycles/s
 * and events/s per workload, the spurious-wakeup ratio, a host
 * sampling-profiler breakdown of where the wall time goes (scheduler
 * drain, CV waits, fire path, NoC arbitration, DRAM model), and peak
 * RSS. Each workload compiles once and re-simulates `--reps` times per
 * mode (best-of to shed scheduler noise).
 *
 * Sweep points route through the src/jobs pool: `-j N` runs them
 * concurrently (deterministic output order; results land in
 * index-addressed slots). The default is `-j 1` because co-scheduled
 * points perturb each other's wall-times; use -j > 1 when only the
 * deterministic counters matter. The host profiler attribution is
 * only collected at -j 1 for the same reason.
 *
 * Memory units: peak RSS is reported as `peak_rss_kib` in the JSON
 * (getrusage ru_maxrss, which is KiB on Linux) and as MiB (KiB/1024)
 * in the table — binary units throughout, never decimal MB.
 *
 * The deterministic counters (cycles, events, wakeups, spurious) land
 * in BENCH_perf.json; the CycleIdentity tests (tests/test_sim.cc) pin
 * the same counters, and wall-times are reported but never gated.
 *
 *   bench_perf [--reps N] [--workloads mlp,pr,...] [--out FILE.json]
 *              [-j N]
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "bench/bench_common.h"
#include "support/hostprof.h"

namespace sara::bench {
namespace {

struct PerfOptions
{
    int reps = 3;
    int jobs = 1; ///< Sweep-point concurrency (wall-times prefer 1).
    std::string out = "BENCH_perf.json";
    std::vector<std::string> workloads = {"mlp", "lstm", "gda",
                                          "logreg", "ms", "pr"};
};

std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> parts;
    size_t pos = 0;
    while (pos < list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        parts.push_back(list.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return parts;
}

PerfOptions
parseArgs(int argc, char **argv)
{
    PerfOptions opt;
    CliArgs args(argc, argv,
                 "[--reps N] [--workloads a,b,c] [--out FILE.json] [-j N]");
    while (args.next()) {
        if (args.is("--reps")) {
            opt.reps = args.number<int>();
        } else if (args.is("-j")) {
            opt.jobs = args.number<int>();
        } else if (args.is("--out")) {
            opt.out = args.value();
        } else if (args.is("--workloads")) {
            opt.workloads = splitList(args.value());
        } else {
            args.unknown();
        }
    }
    if (opt.reps < 1)
        args.fail("--reps must be >= 1");
    if (opt.jobs < 0)
        args.fail("-j must be >= 0");
    return opt;
}

/** Peak resident set, in KiB (ru_maxrss unit on Linux). This is the
 *  one place the unit is decided; everything downstream (table MiB
 *  column, `peak_rss_kib` JSON field, README) derives from it. */
uint64_t
peakRssKib()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss);
}

/** One simulate-only measurement (compile reused via preCompiled). */
struct Measure
{
    sim::SimResult sim;
    double bestMs = 0.0;
    /** Host-profiler samples per phase (when profiled). */
    uint64_t phase[telemetry::kNumHostPhases] = {};
    uint64_t phaseTotal = 0;
};

Measure
simulate(const workloads::Workload &w, runtime::RunConfig rc,
         const runtime::RunOutcome &compiled, bool noc, int reps,
         bool profile)
{
    rc.check = false;
    rc.cachingCompiler = nullptr;
    rc.preCompiled = &compiled.compiled;
    rc.sim.useNoc = noc;
    rc.sim.traceFile.clear();
    Measure m;
    auto &prof = telemetry::HostProfiler::global();
    if (profile)
        prof.clearSamples();
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        auto out = runtime::runWorkload(w, rc);
        auto t1 = std::chrono::steady_clock::now();
        double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (r == 0 || ms < m.bestMs)
            m.bestMs = ms;
        m.sim = std::move(out.sim);
    }
    if (profile) {
        for (int p = 0; p < telemetry::kNumHostPhases; ++p)
            m.phase[p] =
                prof.samples(static_cast<telemetry::HostPhase>(p));
        m.phaseTotal = prof.totalSamples();
    }
    return m;
}

/** Run `fn(i)` over [0, n) through the jobs pool with `threads`
 *  workers; results go into index-addressed slots so output order
 *  never depends on scheduling. */
void
sweep(size_t n, const std::string &prefix, int threads,
      const std::function<void(size_t)> &fn)
{
    jobs::BatchOptions opt;
    opt.threads = threads;
    auto report = jobs::forEachIndex(n, prefix, fn, opt);
    if (!report.allOk())
        fatal("perf sweep '", prefix, "' failed: ",
              report.firstError());
}

int
perfMain(int argc, char **argv)
{
    PerfOptions opt = parseArgs(argc, argv);
    banner("event-core host throughput (wall-clock, not simulated)");

    const size_t nw = opt.workloads.size();

    // Compile every workload once, through the jobs pool.
    std::vector<workloads::Workload> ws(nw);
    std::vector<runtime::RunOutcome> compiled(nw);
    runtime::RunConfig rc;
    rc.check = false;
    sweep(nw, "perf-compile", opt.jobs, [&](size_t i) {
        workloads::WorkloadConfig cfg;
        cfg.par = 8;
        ws[i] = workloads::buildByName(opt.workloads[i], cfg);
        compiled[i] = runtime::runWorkload(ws[i], rc);
    });

    Table table({"app", "mode", "cycles", "ms", "Mcyc/s", "Mev/s",
                 "wakeups", "spurious%", "rss MiB"});
    BenchJson out("perf");

    // Sampling profiler: attributes each run's wall time to event-core
    // phases (~200us per sample). Only meaningful when sweep points run
    // one at a time.
    const bool profile = opt.jobs == 1;
    auto &prof = telemetry::HostProfiler::global();
    prof.start();

    // One point per (workload, mode).
    struct Point
    {
        Measure m;
        uint64_t rss = 0;
    };
    std::vector<Point> pts(nw * 2);
    sweep(pts.size(), "perf-sim", opt.jobs, [&](size_t p) {
        size_t i = p / 2;
        bool noc = (p % 2) == 1;
        pts[p].m = simulate(ws[i], rc, compiled[i], noc, opt.reps, profile);
        pts[p].rss = peakRssKib();
    });

    uint64_t totalWake = 0, totalSpur = 0;
    uint64_t phaseAgg[telemetry::kNumHostPhases] = {};
    auto ratio = [](uint64_t spur, uint64_t wake) {
        return wake ? static_cast<double>(spur) / static_cast<double>(wake)
                    : 0.0;
    };
    for (size_t p = 0; p < pts.size(); ++p) {
        const std::string &name = opt.workloads[p / 2];
        const char *mode = (p % 2) ? "noc" : "fixed";
        const Measure &m = pts[p].m;
        double sec = m.bestMs / 1e3;
        double mcycS = sec > 0 ? m.sim.cycles / sec / 1e6 : 0.0;
        double mevS = sec > 0 ? m.sim.hostEvents / sec / 1e6 : 0.0;
        double spurious = ratio(m.sim.spuriousWakeups, m.sim.wakeups);
        for (int ph = 0; ph < telemetry::kNumHostPhases; ++ph)
            phaseAgg[ph] += m.phase[ph];
        totalWake += m.sim.wakeups;
        totalSpur += m.sim.spuriousWakeups;

        table.addRow({name, mode, std::to_string(m.sim.cycles),
                      Table::fmt(m.bestMs, 2), Table::fmt(mcycS, 2),
                      Table::fmt(mevS, 2), std::to_string(m.sim.wakeups),
                      Table::fmt(100.0 * spurious, 1),
                      Table::fmt(pts[p].rss / 1024.0, 0)});

        out.beginRow()
            .kv("workload", name)
            .kv("mode", mode)
            .kv("cycles", m.sim.cycles)
            .kv("events", m.sim.hostEvents)
            .kv("wakeups", m.sim.wakeups)
            .kv("spurious", m.sim.spuriousWakeups)
            .kv("host_ms", m.bestMs)
            .kv("mcycles_per_s", mcycS)
            .kv("events_per_s", mevS * 1e6)
            .kv("spurious_ratio", spurious)
            .kv("peak_rss_kib", pts[p].rss);
        // Wall-time attribution for this row's runs.
        out.writer().key("host_profile").beginObject();
        out.writer().kv("samples", m.phaseTotal);
        for (int ph = 0; ph < telemetry::kNumHostPhases; ++ph)
            out.writer().kv(telemetry::hostPhaseName(
                                static_cast<telemetry::HostPhase>(ph)),
                            m.phase[ph]);
        out.writer().endObject();
        out.endRow();
    }
    std::printf("%s", table.str().c_str());
    std::printf("\nspurious wakeups: %.1f%% (%llu/%llu)\n",
                100.0 * ratio(totalSpur, totalWake),
                static_cast<unsigned long long>(totalSpur),
                static_cast<unsigned long long>(totalWake));

    prof.stop();
    uint64_t phaseSum = 0;
    for (int p = 0; p < telemetry::kNumHostPhases; ++p)
        phaseSum += phaseAgg[p];
    if (phaseSum > 0) {
        std::printf("host profile (%llu samples):",
                    static_cast<unsigned long long>(phaseSum));
        for (int p = 0; p < telemetry::kNumHostPhases; ++p)
            std::printf(" %s %.1f%%",
                        telemetry::hostPhaseName(
                            static_cast<telemetry::HostPhase>(p)),
                        100.0 * static_cast<double>(phaseAgg[p]) /
                            static_cast<double>(phaseSum));
        std::printf("\n");
    }

    out.write(opt.out);
    return 0;
}

} // namespace
} // namespace sara::bench

int
main(int argc, char **argv)
{
    return sara::bench::perfMain(argc, argv);
}
