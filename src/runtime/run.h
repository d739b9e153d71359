#ifndef SARA_RUNTIME_RUN_H
#define SARA_RUNTIME_RUN_H

/**
 * @file
 * Compile-and-simulate harness shared by the benchmark binaries and
 * the examples: runs a workload through the full SARA pipeline and the
 * cycle-level simulator, optionally validating against the sequential
 * interpreter, and summarizes the metrics the paper's tables report.
 * It also renders a run's reports: the `--json` run report and the
 * `--counters` per-unit table, both read straight from the compiled
 * graph's units (by id) and the simulator's own per-unit, per-stream
 * and per-link statistics.
 */

#include <memory>
#include <string>
#include <vector>

#include "artifact/cache.h"
#include "compiler/driver.h"
#include "dram/dram.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace sara::runtime {

struct RunConfig
{
    compiler::CompilerOptions compiler;
    dram::DramSpec dram = dram::DramSpec::hbm2();
    /** Validate final memory against the sequential interpreter. */
    bool check = false;
    sim::SimOptions sim;
    /**
     * Cache-aware compile front-end. When set, runWorkload probes the
     * artifact cache before invoking compileProgram and stores fresh
     * compiles back; identical in-flight compiles across batch threads
     * are deduplicated. Not owned — must outlive the run (shared by
     * every job of a batch).
     */
    artifact::CachingCompiler *cachingCompiler = nullptr;
    /**
     * Pre-compiled artifact to simulate instead of compiling (set by
     * `sarac --load-artifact`). Not owned: the RunOutcome borrows it,
     * so it must outlive the outcome. Takes precedence over
     * cachingCompiler.
     */
    const compiler::CompileResult *preCompiled = nullptr;
};

struct RunOutcome
{
    /** Never copied: shared with the compile cache, or borrowed from
     *  RunConfig::preCompiled. */
    std::shared_ptr<const compiler::CompileResult> compiled;
    sim::SimResult sim;
    bool checked = false;
    bool correct = true;
    bool fromCache = false;     ///< Compile served from the artifact cache.
    std::string artifactKey;    ///< Content key (empty: cache not used).

    /** Runtime at the 1 GHz Plasticine clock. */
    double timeUs() const
    {
        return static_cast<double>(sim.cycles) / 1e3;
    }
    double gflops() const
    {
        return sim.cycles
                   ? static_cast<double>(sim.flops) / sim.cycles
                   : 0.0; // flops/cycle == GFLOPS at 1 GHz.
    }
    double
    dramGBs() const
    {
        return sim.dramAchievedBytesPerCycle; // bytes/cycle == GB/s.
    }
};

/** Run one workload end to end. fatal()s on compile/sim errors. */
RunOutcome runWorkload(const workloads::Workload &w,
                       const RunConfig &config);

/** Final tensors, indexed by ir::TensorId. */
using Tensors = std::vector<std::vector<double>>;

/** The check's reference step: the sequential interpreter's final
 *  tensors for `program` (a compile result's) on `w`'s DRAM inputs. */
Tensors referenceTensors(const ir::Program &program,
                         const workloads::Workload &w);

/** The check's comparison step: every tensor the simulation produced
 *  (empty ones are skipped) has its reference's size and lies within
 *  1e-4 of it elementwise. */
bool matchesReference(const Tensors &simulated, const Tensors &reference);

/** One-line metric summary for reports. */
std::string summarize(const workloads::Workload &w, const RunOutcome &r);

/**
 * Machine-readable run report (schema "sara-run-report/v1"): compile
 * phase spans and pass stats, resource usage, per-cause stall totals,
 * per-unit activity, FIFO pressure, DRAM statistics, and the per-unit
 * performance counters (`sim.counters`: one block per engine, then one
 * per NoC router cell). This is the
 * payload behind `sarac --json` and the bench harness BENCH_*.json
 * trajectory files.
 */
std::string jsonReport(const workloads::Workload &w,
                       const RunConfig &config, const RunOutcome &r);

/**
 * The `sarac --counters` payload: one row per engine (firings, skips,
 * busy, stall and idle cycles, bytes moved, FIFO-occupancy peak), a
 * router summary line on NoC runs, and a text heatmap of fabric
 * utilization on `config`'s core grid. Deterministic: the rendering
 * is golden-checked in tests.
 */
std::string counterReport(const RunConfig &config, const RunOutcome &r);

/** Write jsonReport() to `path`; fatal()s when the file can't open. */
void writeJsonReport(const std::string &path,
                     const workloads::Workload &w, const RunConfig &config,
                     const RunOutcome &r);

} // namespace sara::runtime

#endif // SARA_RUNTIME_RUN_H
