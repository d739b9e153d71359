#ifndef SARA_TESTS_HELPERS_H
#define SARA_TESTS_HELPERS_H

/**
 * @file
 * Shared test utilities: run a program through the full compiler and
 * simulator and compare final memory against the sequential
 * interpreter (the CMMC correctness oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "compiler/driver.h"
#include "dram/dram.h"
#include "ir/interp.h"
#include "ir/program.h"
#include "sim/simulator.h"
#include "support/digraph.h"

namespace sara::test {

struct E2EResult
{
    sim::SimResult sim;
    ir::InterpResult ref;
    compiler::CompileResult compiled;
};

/**
 * Compile `p`, simulate it, interpret it sequentially, and EXPECT all
 * tensor contents to match. DRAM tensors get the provided inputs.
 */
inline E2EResult
runAndCompare(const ir::Program &p, compiler::CompilerOptions opt,
              const std::map<int32_t, std::vector<double>> &dramInputs = {},
              double tol = 1e-6,
              dram::DramSpec dspec = dram::DramSpec::hbm2())
{
    E2EResult out;
    out.compiled = compiler::compile(p, opt);

    // Reference: interpret the post-unroll program (same op set).
    ir::Interpreter interp(out.compiled.program);
    for (const auto &[tid, data] : dramInputs)
        interp.setTensor(ir::TensorId(tid), data);
    out.ref = interp.run();

    sim::Simulator simulator(out.compiled.program,
                             out.compiled.lowering.graph, dspec);
    for (const auto &[tid, data] : dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    out.sim = simulator.run();

    const auto &prog = out.compiled.program;
    for (size_t t = 0; t < prog.numTensors(); ++t) {
        const auto &simT = out.sim.tensors[t];
        if (simT.empty())
            continue; // Optimized away (fifo-lowered scratchpads).
        const auto &refT = out.ref.tensors[t];
        EXPECT_EQ(simT.size(), refT.size())
            << "tensor " << prog.tensor(ir::TensorId(t)).name;
        if (simT.size() != refT.size())
            continue;
        int mismatches = 0;
        for (size_t i = 0; i < simT.size() && mismatches < 5; ++i) {
            if (std::abs(refT[i] - simT[i]) > tol)
                ++mismatches;
            EXPECT_NEAR(refT[i], simT[i], tol)
                << "tensor " << prog.tensor(ir::TensorId(t)).name
                << " index " << i;
        }
    }
    return out;
}

/** Options preset used by most semantics tests: tiny chip, all
 *  optimizations on. */
inline compiler::CompilerOptions
tinyOptions()
{
    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::tiny();
    opt.pnrIterations = 2000;
    return opt;
}

/**
 * The per-edge transitive reduction that Digraph's bitset closure
 * replaced, kept as an oracle: nodes by id, successors sorted, and
 * (u, v) goes whenever v stays reachable from u without the direct
 * edge.
 */
inline void
referenceTransitiveReduction(Digraph &g)
{
    for (size_t u = 0; u < g.size(); ++u) {
        std::vector<size_t> outs = g.succs(u);
        std::sort(outs.begin(), outs.end());
        for (size_t v : outs)
            if (g.reachable(u, v, /*skip_direct=*/true))
                g.removeEdge(u, v);
    }
}

} // namespace sara::test

#endif // SARA_TESTS_HELPERS_H
