/**
 * @file
 * Table VI reproduction: SARA on Plasticine vs. a Tesla V100.
 *
 * The GPU side is the calibrated analytical roofline of
 * baseline/gpu_model.h (DESIGN.md substitution #3): the environment
 * has no GPU, so per-kernel-class efficiency factors stand in for
 * TensorFlow/cuDNN, GunRock, and CUDA measurements. The Plasticine
 * side is our cycle-level simulation at 1 GHz. The paper's shape:
 * 1.9x geo-mean for SARA; V100 wins absolute snet throughput but
 * loses area-normalized (Plasticine is 8.3x smaller); rf/ms/pr win
 * big on dataflow execution and flexible parallelism.
 */

#include "baseline/gpu_model.h"
#include "bench/bench_common.h"

using namespace sara;
using namespace sara::bench;

int
main(int argc, char **argv)
{
    parseNoFlags(argc, argv);
    banner("Table VI: SARA (Plasticine 20x20, 1 GHz, HBM2) vs Tesla "
           "V100 (analytical)");

    auto gpu = baseline::GpuSpec::v100();
    Table t({"app", "RDA us", "V100 us", "speedup", "area-norm",
             "GPU bound", "note"});
    std::vector<double> speedups;
    for (const std::string name :
         {"snet", "lstm", "pr", "bs", "sort", "rf", "ms"}) {
        workloads::WorkloadConfig cfg;
        cfg.par = name == "sort" ? 16 : 128;
        if (name == "bs")
            cfg.scale = 32;
        else if (name == "ms")
            cfg.scale = 8;
        else if (name == "snet" || name == "pr" || name == "rf")
            cfg.scale = 4;
        else if (name == "lstm" || name == "sort")
            cfg.scale = 2;
        auto w = workloads::buildByName(name, cfg);

        runtime::RunConfig rc;
        rc.compiler.spec = arch::PlasticineSpec::paper();
        rc.compiler.pnrIterations = 2000;
        auto r = runtime::runWorkload(w, rc);

        auto prof = baseline::profileFor(name);
        auto est = baseline::estimateGpu(gpu, prof, w.nominalFlops,
                                         nominalBytes(w));
        double speedup = est.timeUs / r.timeUs();
        speedups.push_back(speedup);
        double areaNorm = speedup * gpu.areaRatioVsPlasticine;
        t.addRow({name, Table::fmt(r.timeUs(), 1),
                  Table::fmt(est.timeUs, 1), Table::fmtX(speedup),
                  w.computeBound ? Table::fmtX(areaNorm) : "-",
                  est.computeBound ? "compute" : "memory", prof.note});
    }
    std::printf("%s", t.str().c_str());
    std::printf("geo-mean speedup: %.2fx (paper: 1.9x geo-mean over "
                "V100 at 12%% of the silicon area)\n",
                geomean(speedups));
    return 0;
}
