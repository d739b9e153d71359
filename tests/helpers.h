#ifndef SARA_TESTS_HELPERS_H
#define SARA_TESTS_HELPERS_H

/**
 * @file
 * Shared test utilities: run a program through the full compiler and
 * simulator and compare final memory against the sequential
 * interpreter (the CMMC correctness oracle), and the algorithms that
 * faster ones replaced, kept as oracles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "compiler/analysis.h"
#include "compiler/cmmc.h"
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

/**
 * buildDepGraph's scan before the per-accessor address facts and the
 * block-pair memo, kept as an oracle: every accessor pair recomputes
 * both accessors' spans and lattices and rebuilds both blocks'
 * ancestries.
 */
inline compiler::DepGraph
referenceBuildDepGraph(const ir::Program &p,
                       const compiler::TensorAccess &ta,
                       const compiler::DepGraphOptions &options)
{
    using compiler::Accessor;
    const auto &acc = ta.accessors;
    compiler::DepGraph g;
    g.n = acc.size();

    auto shardOf = [&](size_t i) -> int {
        if (options.staticShard.empty())
            return 0;
        return options.staticShard[i];
    };
    auto sameShardPossible = [&](size_t i, size_t j) {
        int si = shardOf(i), sj = shardOf(j);
        if (si < 0 || sj < 0)
            return true;
        return si == sj;
    };

    for (size_t j = 0; j < acc.size(); ++j) {
        for (size_t i = 0; i < j; ++i) {
            const Accessor &a = acc[i];
            const Accessor &b = acc[j];
            bool conflict = a.isWrite || b.isWrite;
            bool rar = !a.isWrite && !b.isWrite && options.enforceRar &&
                       sameShardPossible(i, j);
            if (options.fullSerialize) {
                if (j == i + 1) {
                    g.edges.push_back({i, j, false, ir::CtrlId{}, 1});
                    ir::CtrlId loop =
                        compiler::innermostCommonLoop(p, a.block, b.block);
                    if (loop.valid())
                        g.edges.push_back({j, i, true, loop, 1});
                }
                continue;
            }
            if (!conflict && !rar)
                continue;
            bool disjoint =
                conflict && !rar && !compiler::mayAlias(p, a, b);
            if (disjoint)
                continue;
            if (!compiler::exclusiveClauses(p, a.block, b.block))
                g.edges.push_back({i, j, false, ir::CtrlId{}, 1});
            ir::CtrlId loop =
                compiler::innermostCommonLoop(p, a.block, b.block);
            if (loop.valid() &&
                (rar || compiler::lcdMayAlias(p, a, b, loop)))
                g.edges.push_back({j, i, true, loop, 1});
        }
    }
    return g;
}

/**
 * reduceDepGraph before backward edges were indexed by (loop, credit),
 * kept as an oracle: pass 2 scans every pair of backward edges.
 */
inline compiler::ReduceStats
referenceReduceDepGraph(compiler::DepGraph &g)
{
    using compiler::DepEdge;
    compiler::ReduceStats stats;

    Digraph fwd(g.n);
    for (const auto &e : g.edges)
        if (!e.backward)
            fwd.addEdge(e.src, e.dst);
    size_t before = fwd.numEdges();
    const Reachability reach = fwd.transitiveReduction();
    stats.forwardRemoved = static_cast<int>(before - fwd.numEdges());
    std::set<std::tuple<size_t, size_t, bool, int32_t>> seen;
    std::vector<DepEdge> dedup;
    size_t kept = 0;
    for (const auto &e : g.edges) {
        if (!e.backward && !fwd.hasEdge(e.src, e.dst))
            continue;
        ++kept;
        if (seen.emplace(e.src, e.dst, e.backward, e.loop.v).second)
            dedup.push_back(e);
    }
    stats.forwardRemoved += static_cast<int>(kept - dedup.size());
    g.edges = std::move(dedup);

    auto forwardReach = [&](size_t from, size_t to) {
        return from == to || reach.reaches(from, to);
    };
    for (size_t i = 0; i < g.edges.size(); ++i) {
        DepEdge &e = g.edges[i];
        if (!e.backward || e.pruned)
            continue;
        for (size_t j = 0; j < g.edges.size(); ++j) {
            if (j == i)
                continue;
            const DepEdge &alt = g.edges[j];
            if (!alt.backward || alt.pruned || alt.loop != e.loop ||
                alt.credit != e.credit)
                continue;
            if (forwardReach(e.src, alt.src) &&
                forwardReach(alt.dst, e.dst)) {
                e.pruned = true;
                ++stats.backwardRemoved;
                break;
            }
        }
    }
    std::vector<DepEdge> remaining;
    for (const auto &e : g.edges)
        if (!e.pruned)
            remaining.push_back(e);
    g.edges = std::move(remaining);
    return stats;
}

} // namespace sara::test

#endif // SARA_TESTS_HELPERS_H
