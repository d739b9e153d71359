/**
 * @file
 * sarac — command-line driver for the SARA toolchain. Compiles a
 * built-in workload (or a demo program), simulates it on the
 * Plasticine model, and reports the paper's metrics. The closest thing
 * to "running the compiler" a downstream user gets without writing
 * C++ against the Builder API.
 *
 * Usage:
 *   sarac <workload> [options]
 *   sarac --graph FILE [options]             (NN layer-graph frontend)
 *   sarac --batch [workload ...] [options]   (default: all workloads)
 *   sarac --list
 *
 * Options:
 *   --graph FILE       compile a sara-graph/v1 model description (see
 *                      examples/mlp.graph.json) instead of a built-in
 *                      workload: the layer graph is validated, lowered
 *                      to IR (a per-layer table shows the par splits),
 *                      and then flows through the same compile /
 *                      simulate / verify pipeline
 *   --par N            parallelization factor, 1-4096 (default 16)
 *   --scale N          problem-size multiplier, 1-1024 (default 1)
 *   --dram hbm2|ddr3   DRAM technology (default hbm2)
 *   --chip paper|vanilla|tiny
 *   --control cmmc|fsm vanilla-PC control scheme with fsm
 *   --partitioner bfs-fwd|bfs-bwd|dfs-fwd|dfs-bwd|solver
 *   --no-<opt>         disable one optimization: msr, rtelm, retime,
 *                      retime-m, xbar-elm, multibuffer, ctrl-reduction,
 *                      duplication
 *   --check            validate against the sequential interpreter
 *   --max-cycles N     simulator cycle budget (deadlock safety valve)
 *   --noc              simulate streams through the cycle-level NoC
 *                      model (per-link arbitration + backpressure)
 *                      instead of the fixed PnR latencies
 *   --noc-stats        print the per-link network utilization table
 *                      (implies --noc)
 *   --trace FILE       write a unified Chrome trace (compile phases +
 *                      every firing + DRAM counter tracks). In --batch
 *                      mode the same flag records the batch timeline
 *                      (one compile/run span per job) instead — N
 *                      simulator traces cannot share one file; run a
 *                      workload singly for its full simulator trace
 *                      (a one-line notice says so at batch start)
 *   --json FILE        write a machine-readable run report (single:
 *                      schema sara-run-report/v1; batch: sara-batch/v1)
 *   --dump-graph       print the VUDFG before simulating
 *   --units            print the per-unit activity table
 *   --stalls           print the per-unit stall-attribution table
 *   --counters         print the per-unit performance counters
 *                      (firings, busy/stall/idle, bytes, occupancy
 *                      peaks; router cells summarized) plus a text
 *                      heatmap of fabric utilization
 *
 * Fault injection & hang diagnosis:
 *   --inject SPEC      arm one fault model (repeatable). SPEC grammar:
 *                      kind[@prob][:site=S][:window=LO-HI][:count=N]
 *                      [:delay=D]; kinds: noc-delay, noc-dup,
 *                      stuck-credit, dram-timeout, dram-tail,
 *                      fifo-leak, artifact-flip, compile-fault
 *   --inject-seed N    seed for the injection hash (default 1); the
 *                      same seed replays a faulted run cycle-exactly
 *   --retries N        retry jobs failing with a transient error up to
 *                      N times, 0-100 (batch mode)
 *
 * Artifacts & caching:
 *   --cache            compile through the artifact cache at the
 *                      default location ($SARA_CACHE_DIR or
 *                      ~/.sara-cache)
 *   --cache-dir DIR    same, at DIR
 *   --emit-artifact F  serialize the compiled program to F
 *   --load-artifact F  simulate a saved artifact (skips compilation)
 *   --batch            run several workloads through the job scheduler
 *   -j N               batch worker threads, 1-256 (default: all
 *                      cores)
 *   --metrics          dump telemetry counters (cache hits/misses,
 *                      job stats) before exiting
 *   --help, -h         print the usage on stdout and exit 0
 *
 * Exit codes: 0 success; 1 verification/batch-job failure; 2 usage;
 * 3 invalid input or configuration; 4 internal error (a simulator hang
 * or an exhausted --max-cycles budget, classified from the wait-for
 * graph; with --json the FailureReport lands in the report file).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "artifact/cache.h"
#include "fault/failure.h"
#include "graph/graph.h"
#include "graph/lower.h"
#include "jobs/jobs.h"
#include "runtime/run.h"
#include "support/cli.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/table.h"
#include "support/telemetry.h"

using namespace sara;

namespace {

/** The usage after "usage: sarac " (see CliArgs). */
constexpr const char *kUsage =
    "<workload> [--par N] [--scale N] "
    "[--dram hbm2|ddr3] [--chip paper|vanilla|tiny]\n"
    "             [--control cmmc|fsm] [--partitioner ALG] "
    "[--no-OPT ...] [--check] [--max-cycles N] "
    "[--noc] [--noc-stats]\n"
    "             [--trace FILE] [--json FILE] "
    "[--dump-graph] [--units] [--stalls] [--counters]\n"
    "             [--cache] [--cache-dir DIR] "
    "[--emit-artifact FILE] [--load-artifact FILE]\n"
    "             [--inject SPEC ...] [--inject-seed N] "
    "[--retries 0-100]\n"
    "             [--metrics]\n"
    "       sarac --graph FILE [common options]\n"
    "       sarac --batch [workload ...] [-j 1-256] "
    "[common options]\n"
    "       sarac --list\n"
    "       sarac --help\n"
    "note: in --batch mode --trace records the batch "
    "timeline, not per-run simulator traces";

struct CliOptions
{
    std::vector<std::string> names; ///< Positional workload names.
    std::string graphFile;          ///< --graph model description.
    workloads::WorkloadConfig cfg;
    runtime::RunConfig rc;
    bool batch = false;
    int threads = 0;
    bool dumpGraph = false, unitTable = false, stallTable = false;
    bool nocStats = false, countersTable = false;
    bool metrics = false;
    std::string jsonFile;
    std::string cacheDir;
    bool useCache = false;
    std::string emitArtifact, loadArtifact;
    std::vector<fault::FaultSpec> faults;
    uint64_t injectSeed = 1;
    int retries = 0;
    /** Built from `faults` in realMain; also hangs off rc.sim.fault. */
    const fault::FaultInjector *injector = nullptr;
};

void
printReport(const workloads::Workload &w, const CliOptions &cli,
            const runtime::RunOutcome &r)
{
    std::printf("== %s (par %d, scale %d) ==\n", w.name.c_str(),
                cli.cfg.par, cli.cfg.scale);
    if (r.fromCache) {
        std::printf("compile: loaded from artifact%s%s\n",
                    r.artifactKey.empty() ? "" : " ",
                    r.artifactKey.c_str());
    } else {
        std::printf("compile:");
        for (const auto &span : r.compiled->phases) {
            if (span.depth == 0)
                continue; // Root span printed as the total below.
            std::printf(" %s %.1fms,", span.name.c_str(), span.durMs);
        }
        std::printf(" (total %.1fms)\n", r.compiled->totalMs());
    }
    std::printf("graph: %s\n",
                r.compiled->lowering.graph.summary().c_str());
    const auto &st = r.compiled->lowering.stats;
    std::printf("cmmc: %d tokens (%d credits), %d fwd edges pruned, "
                "%d bwd pruned; %d fifo-lowered, %d multibuffered, "
                "%d sharded, %d copy-elided\n",
                st.tokens, st.credits, st.forwardEdgesRemoved,
                st.backwardEdgesRemoved, st.fifoLoweredTensors,
                st.multibufferedTensors, st.shardedTensors,
                st.copyElidedBlocks);
    std::printf("resources: %s\n", r.compiled->resources.str().c_str());
    std::printf("runtime: %llu cycles (%.2f us @1GHz), %.1f GFLOPS, "
                "DRAM %.1f GB/s, compute util %.2f\n",
                static_cast<unsigned long long>(r.sim.cycles),
                r.timeUs(), r.gflops(), r.dramGBs(),
                r.sim.avgComputeUtilization);
    if (r.sim.noc.enabled) {
        const auto &n = r.sim.noc;
        std::printf("noc: %d links (peak %d streams/link), %llu flits "
                    "over %llu hops, %llu queue cycles, peak %llu in "
                    "flight, %llu producer stall cycles\n",
                    n.links, n.peakStreamLoad,
                    static_cast<unsigned long long>(n.flits),
                    static_cast<unsigned long long>(n.hops),
                    static_cast<unsigned long long>(n.queueCycles),
                    static_cast<unsigned long long>(n.peakInflight),
                    static_cast<unsigned long long>(
                        r.sim.stallTotals[static_cast<int>(
                            sim::StallCause::Network)]));
    }
    if (r.checked)
        std::printf("verification: %s\n", r.correct ? "PASS" : "FAIL");

    if (cli.unitTable) {
        Table t({"unit", "firings", "skips", "busy", "first", "last"});
        const auto &g = r.compiled->lowering.graph;
        for (const auto &u : g.units()) {
            const auto &s = r.sim.unitStats[u.id.index()];
            if (s.firings == 0 && s.skips == 0)
                continue;
            t.addRow({u.name, std::to_string(s.firings),
                      std::to_string(s.skips),
                      std::to_string(s.busyCycles),
                      std::to_string(s.firstFire),
                      std::to_string(s.lastFire)});
        }
        std::printf("%s", t.str().c_str());
    }

    if (cli.stallTable) {
        std::vector<std::string> header = {"unit", "busy"};
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            header.push_back(
                sim::stallCauseName(static_cast<sim::StallCause>(c)));
        header.push_back("done@");
        Table t(header);
        const auto &g = r.compiled->lowering.graph;
        for (const auto &u : g.units()) {
            const auto &s = r.sim.unitStats[u.id.index()];
            if (s.firings == 0 && s.skips == 0 && s.stallTotal() == 0)
                continue;
            std::vector<std::string> row = {
                u.name, std::to_string(s.busyCycles)};
            for (int c = 0; c < sim::kNumStallCauses; ++c)
                row.push_back(std::to_string(s.stallCycles[c]));
            row.push_back(std::to_string(s.doneAt));
            t.addRow(row);
        }
        std::vector<std::string> total = {"TOTAL", ""};
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            total.push_back(std::to_string(r.sim.stallTotals[c]));
        total.push_back(std::to_string(r.sim.cycles));
        t.addRow(total);
        std::printf("%s", t.str().c_str());
    }

    if (cli.countersTable)
        std::printf("%s", runtime::counterReport(cli.rc, r).c_str());

    if (cli.nocStats && r.sim.noc.enabled) {
        // Busiest links first; quiet links (no queueing) are elided.
        auto links = r.sim.noc.linkUse;
        std::stable_sort(links.begin(), links.end(),
                         [](const auto &a, const auto &b) {
                             return a.traversals > b.traversals;
                         });
        Table t({"link", "streams", "traversals", "wait-cycles",
                 "queue-peak"});
        int shown = 0;
        for (const auto &lu : links) {
            if (lu.traversals == 0 || shown >= 20)
                break;
            char buf[32];
            std::snprintf(buf, sizeof buf, "(%d,%d)%s", lu.link.x,
                          lu.link.y, dfg::linkDirName(lu.link.dir));
            t.addRow({buf, std::to_string(lu.streams),
                      std::to_string(lu.traversals),
                      std::to_string(lu.waitCycles),
                      std::to_string(lu.queueHighWater)});
            ++shown;
        }
        std::printf("-- noc links (top %d by traversals) --\n%s",
                    shown, t.str().c_str());
    }
}

/** Run a single workload end to end (the classic sarac flow). */
int
runSingle(CliOptions &cli)
{
    workloads::Workload w;
    if (!cli.graphFile.empty()) {
        graph::LayerGraph g = graph::loadGraphFile(cli.graphFile);
        graph::LowerOptions o;
        o.par = cli.cfg.par;
        o.scale = cli.cfg.scale;
        o.seed = cli.cfg.seed;
        graph::LowerResult lowered = graph::lowerGraph(g, o);
        std::printf("model %s\n", g.summary().c_str());
        Table t({"layer", "kind", "in", "out", "par", "split"});
        for (const auto &l : lowered.layers)
            t.addRow({l.name, l.kind, l.in.str(), l.out.str(),
                      std::to_string(l.par),
                      std::to_string(l.split.outer) + "x" +
                          std::to_string(l.split.inner)});
        std::printf("%s", t.str().c_str());
        w = std::move(lowered.workload);
    } else {
        w = workloads::buildByName(cli.names[0], cli.cfg);
    }

    std::unique_ptr<artifact::ArtifactCache> cache;
    std::unique_ptr<artifact::CachingCompiler> compiler;
    if (cli.useCache) {
        cache = std::make_unique<artifact::ArtifactCache>(cli.cacheDir);
        compiler = std::make_unique<artifact::CachingCompiler>(
            cache.get());
        cache->setFaultInjector(cli.injector);
        compiler->setFaultInjector(cli.injector);
        cli.rc.cachingCompiler = compiler.get();
        inform("artifact cache at ", cache->dir());
    }

    compiler::CompileResult loaded;
    if (!cli.loadArtifact.empty()) {
        try {
            artifact::LoadedArtifact art =
                artifact::readArtifactFile(cli.loadArtifact);
            std::string expect =
                artifact::contentKey(w.program, cli.rc.compiler);
            if (art.key != expect)
                warn("artifact ", cli.loadArtifact,
                     " was compiled from a different (workload, "
                     "options) pair; simulating it anyway");
            loaded = std::move(art.result);
            cli.rc.preCompiled = &loaded;
            inform("loaded artifact ", cli.loadArtifact);
        } catch (const artifact::ArtifactError &e) {
            warn("cannot load artifact: ", e.what(),
                 "; falling back to a fresh compile");
        }
    }

    runtime::RunOutcome r;
    try {
        r = runtime::runWorkload(w, cli.rc);
    } catch (const fault::HangError &e) {
        // Structured escalation: the classified FailureReport lands in
        // the JSON report file (when requested) before the panic
        // propagates to main's exit-code mapping (4).
        if (!cli.jsonFile.empty()) {
            std::FILE *f = std::fopen(cli.jsonFile.c_str(), "w");
            if (f) {
                const std::string doc = e.report().json();
                std::fwrite(doc.data(), 1, doc.size(), f);
                std::fputc('\n', f);
                std::fclose(f);
                inform("wrote failure report to ", cli.jsonFile);
            }
        }
        throw;
    }

    if (!cli.emitArtifact.empty()) {
        std::string key = r.artifactKey.empty()
                              ? artifact::contentKey(w.program,
                                                     cli.rc.compiler)
                              : r.artifactKey;
        artifact::writeArtifactFile(cli.emitArtifact, key, *r.compiled);
        inform("wrote artifact to ", cli.emitArtifact);
    }

    if (cli.dumpGraph)
        std::printf("%s\n", r.compiled->lowering.graph.str().c_str());
    printReport(w, cli, r);
    if (!cli.jsonFile.empty())
        runtime::writeJsonReport(cli.jsonFile, w, cli.rc, r);
    return r.checked && !r.correct ? 1 : 0;
}

/** Run a workload suite through the parallel job scheduler. */
int
runBatch(CliOptions &cli)
{
    std::vector<std::string> names = cli.names;
    if (names.empty())
        names = workloads::workloadNames();

    telemetry::Registry::global().setEnabled(true);

    std::unique_ptr<artifact::ArtifactCache> cache;
    if (cli.useCache)
        cache = std::make_unique<artifact::ArtifactCache>(cli.cacheDir);
    artifact::CachingCompiler compiler(cache.get());
    compiler.setFaultInjector(cli.injector);
    if (cache) {
        cache->setFaultInjector(cli.injector);
        inform("artifact cache at ", cache->dir());
    }

    if (!cli.rc.sim.traceFile.empty())
        warn("batch mode: --trace writes the batch timeline (one "
             "compile/run span per job) to ",
             cli.rc.sim.traceFile,
             "; per-run simulator traces are disabled — run a "
             "workload singly for its full simulator trace");

    struct Slot
    {
        workloads::Workload w;
        runtime::RunOutcome r;
        bool done = false;
    };
    std::vector<Slot> slots(names.size());

    std::vector<jobs::Job> batch;
    batch.reserve(names.size());
    for (size_t i = 0; i < names.size(); ++i) {
        batch.push_back({names[i], [&, i] {
            runtime::RunConfig rc = cli.rc; // Per-job copy.
            rc.cachingCompiler = &compiler;
            rc.sim.traceFile.clear(); // --trace traces the batch.
            Slot &slot = slots[i];
            slot.w = workloads::buildByName(names[i], cli.cfg);
            slot.r = runtime::runWorkload(slot.w, rc);
            slot.done = true;
            if (rc.check && !slot.r.correct)
                fatal("verification failed");
        }});
    }

    jobs::BatchOptions opt;
    opt.threads = cli.threads;
    opt.maxAttempts = cli.retries + 1;
    // In batch mode --trace means the batch timeline, not N simulator
    // traces racing on one file (the per-job RunConfig clears it).
    opt.traceFile = cli.rc.sim.traceFile;
    jobs::BatchReport report = jobs::runBatch(std::move(batch), opt);

    // Deterministic output: report in submission order.
    for (size_t i = 0; i < names.size(); ++i) {
        const auto &o = report.outcomes[i];
        if (o.status == jobs::JobOutcome::Status::Ok) {
            std::printf("%-8s %8.1fms %s%s\n", names[i].c_str(),
                        o.durMs,
                        runtime::summarize(slots[i].w, slots[i].r)
                            .c_str(),
                        slots[i].r.fromCache ? " [cached]" : "");
        } else {
            std::printf("%-8s %s (%s)\n", names[i].c_str(),
                        o.status == jobs::JobOutcome::Status::Failed
                            ? "FAILED"
                            : "CANCELLED",
                        o.error.c_str());
        }
    }
    auto &reg = telemetry::Registry::global();
    std::printf("batch: %d ok, %d failed, %d cancelled in %.1fms on "
                "%d threads; cache %llu hits / %llu misses\n",
                report.succeeded(), report.failed(),
                report.cancelled(), report.wallMs, report.threads,
                static_cast<unsigned long long>(
                    reg.counter("artifact.cache.hit")),
                static_cast<unsigned long long>(
                    reg.counter("artifact.cache.miss")));

    if (!cli.jsonFile.empty()) {
        json::Writer j;
        j.beginObject();
        j.kv("schema", "sara-batch/v1");
        j.kv("threads", report.threads);
        j.kv("wall_ms", report.wallMs);
        j.kv("cache_hits", reg.counter("artifact.cache.hit"));
        j.kv("cache_misses", reg.counter("artifact.cache.miss"));
        j.key("jobs").beginArray();
        for (size_t i = 0; i < names.size(); ++i) {
            const auto &o = report.outcomes[i];
            j.beginObject();
            j.kv("workload", names[i]);
            j.kv("status",
                 o.status == jobs::JobOutcome::Status::Ok ? "ok"
                 : o.status == jobs::JobOutcome::Status::Failed
                     ? "failed"
                     : "cancelled");
            j.kv("job_ms", o.durMs);
            if (slots[i].done) {
                j.kv("cycles", slots[i].r.sim.cycles);
                j.kv("gflops", slots[i].r.gflops());
                j.kv("from_cache", slots[i].r.fromCache);
            }
            j.endObject();
        }
        j.endArray();
        j.endObject();
        std::FILE *f = std::fopen(cli.jsonFile.c_str(), "w");
        if (!f)
            fatal("cannot write JSON report to ", cli.jsonFile);
        const std::string &doc = j.str();
        std::fwrite(doc.data(), 1, doc.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        inform("wrote batch report to ", cli.jsonFile);
    }
    return report.allOk() ? 0 : 1;
}

int
realMain(int argc, char **argv)
{
    CliArgs args(argc, argv, kUsage, "sarac");
    if (argc < 2)
        args.fail("no workload given");

    CliOptions cli;
    using compiler::PartitionAlgo;
    while (args.next()) {
        if (args.is("--list")) {
            for (const auto &name : workloads::allWorkloadNames())
                std::printf("%s\n", name.c_str());
            return 0;
        } else if (args.is("--graph")) {
            cli.graphFile = args.value();
        } else if (args.is("--batch")) {
            cli.batch = true;
        } else if (args.is("-j")) {
            cli.threads = args.number(jobs::BatchOptions::kMinThreads,
                                      jobs::BatchOptions::kMaxThreads);
        } else if (args.is("--par")) {
            cli.cfg.par = args.number(workloads::WorkloadConfig::kMinPar,
                                      workloads::WorkloadConfig::kMaxPar);
        } else if (args.is("--scale")) {
            cli.cfg.scale =
                args.number(workloads::WorkloadConfig::kMinScale,
                            workloads::WorkloadConfig::kMaxScale);
        } else if (args.is("--dram")) {
            cli.rc.dram = args.choice<dram::DramSpec>(
                {{"hbm2", dram::DramSpec::hbm2()},
                 {"ddr3", dram::DramSpec::ddr3()}});
        } else if (args.is("--chip")) {
            cli.rc.compiler.spec = args.choice<arch::PlasticineSpec>(
                {{"paper", arch::PlasticineSpec::paper()},
                 {"vanilla", arch::PlasticineSpec::vanilla()},
                 {"tiny", arch::PlasticineSpec::tiny()}});
        } else if (args.is("--control")) {
            cli.rc.compiler.control = args.choice<compiler::ControlScheme>(
                {{"cmmc", compiler::ControlScheme::Cmmc},
                 {"fsm", compiler::ControlScheme::HierarchicalFsm}});
        } else if (args.is("--partitioner")) {
            cli.rc.compiler.partitioner = args.choice<PartitionAlgo>(
                {{"bfs-fwd", PartitionAlgo::BfsFwd},
                 {"bfs-bwd", PartitionAlgo::BfsBwd},
                 {"dfs-fwd", PartitionAlgo::DfsFwd},
                 {"dfs-bwd", PartitionAlgo::DfsBwd},
                 {"solver", PartitionAlgo::Solver}});
        } else if (args.is("--no-msr")) {
            cli.rc.compiler.enableMsr = false;
        } else if (args.is("--no-rtelm")) {
            cli.rc.compiler.enableRtelm = false;
        } else if (args.is("--no-retime")) {
            cli.rc.compiler.enableRetime = false;
        } else if (args.is("--no-retime-m")) {
            cli.rc.compiler.enableRetimeM = false;
        } else if (args.is("--no-xbar-elm")) {
            cli.rc.compiler.enableXbarElm = false;
        } else if (args.is("--no-multibuffer")) {
            cli.rc.compiler.enableMultibuffer = false;
        } else if (args.is("--no-ctrl-reduction")) {
            cli.rc.compiler.enableControlReduction = false;
        } else if (args.is("--no-duplication")) {
            cli.rc.compiler.enableDuplication = false;
        } else if (args.is("--check")) {
            cli.rc.check = true;
        } else if (args.is("--max-cycles")) {
            cli.rc.sim.maxCycles = args.number<uint64_t>();
        } else if (args.is("--noc")) {
            cli.rc.sim.useNoc = true;
        } else if (args.is("--noc-stats")) {
            cli.rc.sim.useNoc = true;
            cli.nocStats = true;
        } else if (args.is("--inject")) {
            cli.faults.push_back(fault::parseFaultSpec(args.value()));
        } else if (args.is("--inject-seed")) {
            cli.injectSeed = args.number<uint64_t>();
        } else if (args.is("--retries")) {
            cli.retries = args.number(jobs::BatchOptions::kMinRetries,
                                      jobs::BatchOptions::kMaxRetries);
        } else if (args.is("--trace")) {
            cli.rc.sim.traceFile = args.value();
        } else if (args.is("--json")) {
            cli.jsonFile = args.value();
        } else if (args.is("--cache")) {
            cli.useCache = true;
        } else if (args.is("--cache-dir")) {
            cli.useCache = true;
            cli.cacheDir = args.value();
        } else if (args.is("--emit-artifact")) {
            cli.emitArtifact = args.value();
        } else if (args.is("--load-artifact")) {
            cli.loadArtifact = args.value();
        } else if (args.is("--metrics")) {
            cli.metrics = true;
            telemetry::Registry::global().setEnabled(true);
        } else if (args.is("--dump-graph")) {
            cli.dumpGraph = true;
        } else if (args.is("--units")) {
            cli.unitTable = true;
        } else if (args.is("--stalls")) {
            cli.stallTable = true;
        } else if (args.is("--counters")) {
            cli.countersTable = true;
        } else if (args.arg().starts_with("-")) {
            args.unknown();
        } else {
            cli.names.push_back(args.arg());
        }
    }

    if (cli.useCache)
        telemetry::Registry::global().setEnabled(true);

    std::unique_ptr<fault::FaultInjector> injector;
    if (!cli.faults.empty()) {
        injector = std::make_unique<fault::FaultInjector>(
            cli.faults, cli.injectSeed);
        cli.injector = injector.get();
        cli.rc.sim.fault = injector.get();
        inform("fault injection armed: ", cli.faults.size(),
               " spec(s), seed ", cli.injectSeed);
    }

    int rc;
    if (cli.batch) {
        if (!cli.graphFile.empty())
            args.fail("--graph is a single-run mode");
        rc = runBatch(cli);
    } else {
        if (cli.graphFile.empty() ? cli.names.size() != 1
                                  : !cli.names.empty())
            args.fail("expected one workload or --graph FILE");
        rc = runSingle(cli);
    }
    if (cli.metrics) {
        std::printf("-- telemetry --\n%s",
                    telemetry::Registry::global().str().c_str());
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    // Report failures through exit codes, not aborts: a --check
    // mismatch exits 1 (runSingle/runBatch), bad input exits 3, and
    // internal failures — a detected simulator deadlock or an
    // exhausted --max-cycles budget (classified livelock) — exit 4
    // after their diagnosis has been printed.
    try {
        return realMain(argc, argv);
    } catch (const FatalError &) {
        return 3; // fatal() already logged the message.
    } catch (const PanicError &) {
        return 4; // panic() already logged the diagnosis.
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sarac: %s\n", e.what());
        return 4;
    }
}
