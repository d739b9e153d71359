#ifndef SARA_WORKLOADS_WORKLOAD_H
#define SARA_WORKLOADS_WORKLOAD_H

/**
 * @file
 * The benchmark suite (paper Table IV): deep-learning (mlp, lstm,
 * snet), graph processing (pr), streaming (ms, bs, sort), decision
 * forests (rf), and the vanilla-Plasticine-comparison set (kmeans,
 * gda, logreg, sgd). Every workload is built as an IR program with a
 * tunable parallelization factor, plus the DRAM inputs it consumes and
 * metadata the benchmark harness and GPU model need.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/program.h"

namespace sara::workloads {

/** Build-time knobs. */
struct WorkloadConfig
{
    /** Accepted `par` and `scale` values (sarac flags and sarad
     *  requests alike). */
    static constexpr int kMinPar = 1, kMaxPar = 4096;
    static constexpr int kMinScale = 1, kMaxScale = 1024;

    /** Primary parallelization factor (split across the kernel's
     *  loops the way §IV-A describes: innermost vectorization first,
     *  then outer unrolling). */
    int par = 16;
    /** Problem-size multiplier (1 = default sizes, sized so that
     *  cycle-level simulation takes seconds, per §IV-a methodology). */
    int scale = 1;
    uint64_t seed = 42;
};

/** A constructed benchmark. */
struct Workload
{
    std::string name;
    ir::Program program;
    std::map<int32_t, std::vector<double>> dramInputs;

    /** Table IV characterization. */
    bool computeBound = true;
    /** Nominal FLOP count (for GFLOPS/throughput reporting). */
    double nominalFlops = 0.0;
    /** Elements processed (for throughput-per-element metrics). */
    double elements = 0.0;
};

Workload buildMlp(const WorkloadConfig &cfg);
Workload buildLstm(const WorkloadConfig &cfg);
Workload buildSnet(const WorkloadConfig &cfg);
Workload buildPr(const WorkloadConfig &cfg);
Workload buildBs(const WorkloadConfig &cfg);
Workload buildSort(const WorkloadConfig &cfg);
Workload buildRf(const WorkloadConfig &cfg);
Workload buildMs(const WorkloadConfig &cfg);
Workload buildKmeans(const WorkloadConfig &cfg);
Workload buildGda(const WorkloadConfig &cfg);
Workload buildLogreg(const WorkloadConfig &cfg);
Workload buildSgd(const WorkloadConfig &cfg);

/** Lookup by name (hand-built suite + graph-frontend models);
 *  fatal() on unknown names, listing the valid ones. */
Workload buildByName(const std::string &name, const WorkloadConfig &cfg);

/** fatal() with buildByName's message when `name` is not a workload
 *  buildByName accepts; builds nothing. */
void checkWorkloadName(const std::string &name);

/** The hand-built Table IV suite names in the canonical order (the
 *  set golden bench rows and the paper-figure sweeps are keyed to). */
std::vector<std::string> workloadNames();

/** The layer-graph frontend example models (src/graph/models.h). */
std::vector<std::string> graphWorkloadNames();

/** Suite + graph models: everything buildByName accepts. */
std::vector<std::string> allWorkloadNames();

} // namespace sara::workloads

#endif // SARA_WORKLOADS_WORKLOAD_H
