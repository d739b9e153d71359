/**
 * @file
 * Table V reproduction: SARA vs. the vanilla Plasticine compiler (PC)
 * on the PC-era benchmark set, same chip configuration, DDR3 DRAM.
 *
 * PC limitations modeled (paper §IV-C): hierarchical-FSM handshakes
 * routed through per-loop controller hubs (token latency doubled +
 * hub delay), full program-order serialization of accessors (no CMMC
 * peer-to-peer tokens, no control-reduction), a single write and read
 * accessor per VMU, and no memory partitioner — which caps the par
 * factor (unrolling would multiply accessors). SARA compiles the very
 * same programs with CMMC and all optimizations at a 4-8x larger par
 * factor.
 */

#include "baseline/pc_workloads.h"
#include "bench/bench_common.h"

using namespace sara;
using namespace sara::bench;

int
main(int argc, char **argv)
{
    parseNoFlags(argc, argv);
    banner("Table V: SARA vs vanilla Plasticine compiler (DDR3)");

    Table t({"app", "PC cycles", "SARA cycles", "speedup", "PC par",
             "SARA par"});
    std::vector<double> speedups;
    for (const std::string name : {"kmeans", "gda", "logreg", "sgd"}) {
        bool heavy = name == "kmeans" || name == "gda";
        // --- Vanilla PC: par limited to vectorization. ---
        workloads::WorkloadConfig pcCfg;
        pcCfg.par = 16;
        pcCfg.scale = heavy ? 4 : 2;
        auto pcW = baseline::buildPcByName(name, pcCfg);
        runtime::RunConfig pcRc;
        pcRc.compiler.spec = arch::PlasticineSpec::vanilla();
        pcRc.compiler.control = compiler::ControlScheme::HierarchicalFsm;
        pcRc.compiler.enableMsr = false;
        pcRc.compiler.enableRtelm = false;
        pcRc.compiler.enableControlReduction = false;
        pcRc.compiler.enableXbarElm = true; // PC also computed affine
                                            // addresses at the PMU.
        pcRc.dram = dram::DramSpec::ddr3();
        auto pc = runtime::runWorkload(pcW, pcRc);

        // --- SARA on the same program, larger par. ---
        workloads::WorkloadConfig saraCfg;
        saraCfg.par = heavy ? 256 : 64;
        saraCfg.scale = pcCfg.scale;
        auto saraW = baseline::buildPcByName(name, saraCfg);
        runtime::RunConfig saraRc;
        saraRc.compiler.spec = arch::PlasticineSpec::vanilla();
        saraRc.dram = dram::DramSpec::ddr3();
        auto sara = runtime::runWorkload(saraW, saraRc);

        double speedup = static_cast<double>(pc.sim.cycles) /
                         static_cast<double>(sara.sim.cycles);
        speedups.push_back(speedup);
        t.addRow({name, std::to_string(pc.sim.cycles),
                  std::to_string(sara.sim.cycles), Table::fmtX(speedup),
                  std::to_string(pcCfg.par),
                  std::to_string(saraCfg.par)});
    }
    std::printf("%s", t.str().c_str());
    std::printf("geo-mean speedup: %.2fx (paper: 4.9x geo-mean; "
                "kmeans/gda ~14x, logreg/sgd lower)\n",
                geomean(speedups));
    return 0;
}
