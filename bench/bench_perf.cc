/**
 * @file
 * Host-throughput microbenchmark for the simulator event core. Unlike
 * the figure binaries (which reproduce *simulated* results), this one
 * measures how fast the simulator itself runs: wall-clock Mcycles/s
 * and events/s per workload, the spurious-wakeup ratio under the
 * targeted notifyOne policy vs the broadcast notifyAll baseline, a
 * host sampling-profiler breakdown of where the wall time goes
 * (scheduler drain, CV waits, fire path, NoC arbitration, DRAM model),
 * and peak RSS. Each workload compiles once and re-simulates `--reps`
 * times per configuration (best-of to shed scheduler noise).
 *
 * A second sweep drives the region-parallel event core: every
 * workload re-simulates at --scale-threads (default 1,2,4,8) and the
 * resulting curves (Mcycles/s, events/s, barrier-wait ratio, region
 * and quantum counts) land in the "scaling" section of the JSON. The
 * sweep aborts if any thread count disagrees with the sequential
 * cycle count — a perf run doubles as a cycle-identity check for the
 * parallel core. Wall-clock points are honest measurements of this
 * host; on a single-core runner the parallel curves will not show
 * speedup and are still recorded as such.
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
 * Simulated cycle counts must be identical across wakeup policies —
 * the benchmark aborts if they are not, so a perf run doubles as a
 * cycle-identity check. The deterministic counters (cycles, events,
 * wakeups, spurious) land in BENCH_perf.json, which CI diffs against
 * bench/golden_perf.json; wall-times are reported but never gated.
 *
 *   bench_perf [--reps N] [--workloads mlp,pr,...] [--out FILE.json]
 *              [-j N] [--scale-threads 1,2,4,8]
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
    std::vector<int> scaleThreads = {1, 2, 4, 8};
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
    BenchArgs args(argc, argv,
                   "[--reps N] [--workloads a,b,c] [--out FILE.json] "
                   "[-j N] [--scale-threads 1,2,4]");
    while (args.next()) {
        if (args.is("--reps")) {
            opt.reps = args.number();
        } else if (args.is("-j")) {
            opt.jobs = args.number();
        } else if (args.is("--out")) {
            opt.out = args.value();
        } else if (args.is("--workloads")) {
            opt.workloads = splitList(args.value());
        } else if (args.is("--scale-threads")) {
            opt.scaleThreads.clear();
            for (const std::string &t : splitList(args.value()))
                opt.scaleThreads.push_back(args.toInt(t));
        } else {
            args.unknown();
        }
    }
    if (opt.reps < 1)
        args.fail("--reps must be >= 1");
    if (opt.jobs < 0)
        args.fail("-j must be >= 0");
    if (opt.scaleThreads.empty() || opt.scaleThreads.front() != 1)
        args.fail("--scale-threads must start with 1 (the sequential "
                  "baseline every other point is checked against)");
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
         const runtime::RunOutcome &compiled, bool noc, bool targeted,
         int reps, int simThreads = 1, bool profile = false)
{
    rc.check = false;
    rc.cachingCompiler = nullptr;
    rc.preCompiled = &compiled.compiled;
    rc.sim.useNoc = noc;
    rc.sim.targetedWakeups = targeted;
    rc.sim.simThreads = simThreads;
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
                 "wakeups", "spurious%", "bcast spur%", "rss MiB"});
    BenchJson out("perf");

    // Sampling profiler: attributes the targeted runs' wall time to
    // event-core phases (~200us per sample). Only meaningful when
    // sweep points run one at a time.
    const bool profile = opt.jobs == 1;
    auto &prof = telemetry::HostProfiler::global();
    prof.start();

    // Wakeup-policy comparison: one point per (workload, mode).
    struct PolicyPoint
    {
        Measure tgt, bcast;
        uint64_t rss = 0;
    };
    std::vector<PolicyPoint> pts(nw * 2);
    sweep(pts.size(), "perf-policy", opt.jobs, [&](size_t p) {
        size_t i = p / 2;
        bool noc = (p % 2) == 1;
        PolicyPoint &pt = pts[p];
        pt.tgt = simulate(ws[i], rc, compiled[i], noc, true, opt.reps,
                          1, profile);
        pt.bcast =
            simulate(ws[i], rc, compiled[i], noc, false, opt.reps);
        if (pt.tgt.sim.cycles != pt.bcast.sim.cycles)
            fatal(opt.workloads[i],
                  ": wakeup policies disagree on cycles (",
                  pt.tgt.sim.cycles, " targeted vs ",
                  pt.bcast.sim.cycles, " broadcast)");
        pt.rss = peakRssKib();
    });

    uint64_t totalWake[2] = {0, 0}, totalSpur[2] = {0, 0};
    uint64_t phaseAgg[telemetry::kNumHostPhases] = {};
    auto ratio = [](const sim::SimResult &s) {
        return s.wakeups ? static_cast<double>(s.spuriousWakeups) /
                               static_cast<double>(s.wakeups)
                         : 0.0;
    };
    for (size_t p = 0; p < pts.size(); ++p) {
        const std::string &name = opt.workloads[p / 2];
        const char *mode = (p % 2) ? "noc" : "fixed";
        const PolicyPoint &pt = pts[p];
        double sec = pt.tgt.bestMs / 1e3;
        double mcycS = sec > 0 ? pt.tgt.sim.cycles / sec / 1e6 : 0.0;
        double mevS =
            sec > 0 ? pt.tgt.sim.hostEvents / sec / 1e6 : 0.0;
        for (int ph = 0; ph < telemetry::kNumHostPhases; ++ph)
            phaseAgg[ph] += pt.tgt.phase[ph];
        totalWake[0] += pt.tgt.sim.wakeups;
        totalSpur[0] += pt.tgt.sim.spuriousWakeups;
        totalWake[1] += pt.bcast.sim.wakeups;
        totalSpur[1] += pt.bcast.sim.spuriousWakeups;

        table.addRow({name, mode, std::to_string(pt.tgt.sim.cycles),
                      Table::fmt(pt.tgt.bestMs, 2),
                      Table::fmt(mcycS, 2), Table::fmt(mevS, 2),
                      std::to_string(pt.tgt.sim.wakeups),
                      Table::fmt(100.0 * ratio(pt.tgt.sim), 1),
                      Table::fmt(100.0 * ratio(pt.bcast.sim), 1),
                      Table::fmt(pt.rss / 1024.0, 0)});

        out.beginRow()
            .kv("workload", name)
            .kv("mode", mode)
            .kv("cycles", pt.tgt.sim.cycles)
            .kv("events", pt.tgt.sim.hostEvents)
            .kv("wakeups", pt.tgt.sim.wakeups)
            .kv("spurious", pt.tgt.sim.spuriousWakeups)
            .kv("bcast_wakeups", pt.bcast.sim.wakeups)
            .kv("bcast_spurious", pt.bcast.sim.spuriousWakeups)
            .kv("host_ms", pt.tgt.bestMs)
            .kv("bcast_host_ms", pt.bcast.bestMs)
            .kv("mcycles_per_s", mcycS)
            .kv("events_per_s", mevS * 1e6)
            .kv("spurious_ratio", ratio(pt.tgt.sim))
            .kv("bcast_spurious_ratio", ratio(pt.bcast.sim))
            .kv("peak_rss_kib", pt.rss);
        // Wall-time attribution for the targeted runs of this row.
        out.writer().key("host_profile").beginObject();
        out.writer().kv("samples", pt.tgt.phaseTotal);
        for (int ph = 0; ph < telemetry::kNumHostPhases; ++ph)
            out.writer().kv(telemetry::hostPhaseName(
                                static_cast<telemetry::HostPhase>(ph)),
                            pt.tgt.phase[ph]);
        out.writer().endObject();
        out.endRow();
    }
    std::printf("%s", table.str().c_str());

    auto pct = [](uint64_t spur, uint64_t wake) {
        return wake ? 100.0 * static_cast<double>(spur) /
                          static_cast<double>(wake)
                    : 0.0;
    };
    std::printf("\nspurious wakeups: targeted %.1f%% (%llu/%llu) vs "
                "broadcast %.1f%% (%llu/%llu)\n",
                pct(totalSpur[0], totalWake[0]),
                static_cast<unsigned long long>(totalSpur[0]),
                static_cast<unsigned long long>(totalWake[0]),
                pct(totalSpur[1], totalWake[1]),
                static_cast<unsigned long long>(totalSpur[1]),
                static_cast<unsigned long long>(totalWake[1]));

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

    // Region-parallel scaling curves (fixed-latency mode, targeted
    // wakeups): one point per (workload, sim-threads). Every point
    // must reproduce the sequential cycle count bit-exactly.
    banner("region-parallel event core scaling");
    const size_t nt = opt.scaleThreads.size();
    std::vector<Measure> scale(nw * nt);
    sweep(scale.size(), "perf-scale", opt.jobs, [&](size_t p) {
        size_t i = p / nt;
        int threads = opt.scaleThreads[p % nt];
        scale[p] = simulate(ws[i], rc, compiled[i], /*noc=*/false,
                            /*targeted=*/true, opt.reps, threads);
    });

    Table st({"app", "threads", "regions", "quanta", "cycles", "ms",
              "Mcyc/s", "Mev/s", "barrier%", "fallback"});
    out.section("scaling");
    for (size_t p = 0; p < scale.size(); ++p) {
        size_t i = p / nt;
        int threads = opt.scaleThreads[p % nt];
        const Measure &m = scale[p];
        const Measure &base = scale[i * nt]; // The sim-threads=1 point.
        if (m.sim.cycles != base.sim.cycles)
            fatal(opt.workloads[i], ": --sim-threads ", threads,
                  " diverged from sequential (", m.sim.cycles, " vs ",
                  base.sim.cycles, " cycles)");
        double sec = m.bestMs / 1e3;
        double mcycS = sec > 0 ? m.sim.cycles / sec / 1e6 : 0.0;
        double mevS = sec > 0 ? m.sim.hostEvents / sec / 1e6 : 0.0;
        st.addRow({opt.workloads[i], std::to_string(threads),
                   std::to_string(m.sim.simRegions),
                   std::to_string(m.sim.quanta),
                   std::to_string(m.sim.cycles),
                   Table::fmt(m.bestMs, 2), Table::fmt(mcycS, 2),
                   Table::fmt(mevS, 2),
                   Table::fmt(100.0 * m.sim.barrierWaitRatio, 1),
                   m.sim.parallelFallback ? m.sim.fallbackReason
                                          : "-"});
        out.beginRow()
            .kv("workload", opt.workloads[i])
            .kv("sim_threads", threads)
            .kv("sim_regions", m.sim.simRegions)
            .kv("quanta", m.sim.quanta)
            .kv("cycles", m.sim.cycles)
            .kv("events", m.sim.hostEvents)
            .kv("host_ms", m.bestMs)
            .kv("mcycles_per_s", mcycS)
            .kv("events_per_s", mevS * 1e6)
            .kv("barrier_wait_ratio", m.sim.barrierWaitRatio)
            .kv("parallel_fallback", m.sim.parallelFallback);
        if (m.sim.parallelFallback)
            out.kv("fallback_reason", m.sim.fallbackReason);
        out.endRow();
    }
    std::printf("%s", st.str().c_str());

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
