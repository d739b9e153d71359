/**
 * @file
 * Scaling study (the paper's headline result, §IV-A): compile the
 * single-batch mlp workload at increasing par factors and watch
 * performance scale across the 420 distributed units until on-chip
 * resources saturate.
 *
 *   ./build/examples/mlp_scaling [max_par]
 */

#include <cstdio>
#include <cstdlib>

#include "runtime/run.h"
#include "support/table.h"

using namespace sara;

int
main(int argc, char **argv)
{
    int maxPar = argc > 1 ? std::atoi(argv[1]) : 128;

    Table t({"par", "cycles", "speedup", "GFLOPS", "PCU", "PMU",
             "util"});
    double base = 0.0;
    for (int par = 1; par <= maxPar; par *= 2) {
        workloads::WorkloadConfig cfg;
        cfg.par = par;
        auto w = workloads::buildMlp(cfg);

        runtime::RunConfig rc;
        rc.compiler.spec = arch::PlasticineSpec::paper();
        rc.check = true; // Validate against the interpreter each run.
        auto r = runtime::runWorkload(w, rc);
        if (!r.correct) {
            std::fprintf(stderr, "verification failed at par %d\n", par);
            return 1;
        }
        if (base == 0.0)
            base = static_cast<double>(r.sim.cycles);
        t.addRow({std::to_string(par), std::to_string(r.sim.cycles),
                  Table::fmtX(base / r.sim.cycles),
                  Table::fmt(r.gflops(), 1),
                  std::to_string(r.compiled->resources.pcus),
                  std::to_string(r.compiled->resources.pmus),
                  Table::fmt(r.sim.avgComputeUtilization, 2)});
    }
    std::printf("%s", t.str().c_str());
    std::printf("\nEach row is verified against the sequential "
                "interpreter; speedup comes from spatially pipelining "
                "the CFG (CMMC) and unrolling the layer loops.\n");
    return 0;
}
