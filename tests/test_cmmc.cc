/**
 * @file
 * CMMC dependency-graph construction and control-reduction tests,
 * mirroring the paper's Fig. 5 scenarios: forward W->W/W->R/R->W (and
 * RAR) edges, exclusive-branch suppression, LCDs, transitive
 * reduction, and backward-edge pruning.
 */

#include <gtest/gtest.h>

#include "compiler/analysis.h"
#include "compiler/cmmc.h"
#include "compiler/unroll.h"
#include "ir/builder.h"
#include "support/digraph.h"
#include "support/rng.h"
#include "tests/helpers.h"
#include "tests/program_gen.h"
#include "workloads/workload.h"

namespace sara {
namespace {

using namespace ir;
using compiler::buildDepGraph;
using compiler::collectAccessors;
using compiler::DepEdge;
using compiler::DepGraph;
using compiler::DepGraphOptions;
using compiler::reduceDepGraph;
using compiler::ReduceStats;

/** W; R; R on one tensor inside a loop (Fig. 5c-like). */
TEST(DepGraph, WriteThenTwoReads)
{
    Program p;
    Builder b(p);
    auto m = p.addTensor("m", MemSpace::OnChip, 16);
    auto A = b.beginLoop("A", 0, 4);
    {
        auto L0 = b.beginLoop("w", 0, 16);
        b.beginBlock("W");
        b.write(m, b.iter(L0), b.iter(L0));
        b.endBlock();
        b.endLoop();
        auto L1 = b.beginLoop("r1", 0, 16);
        b.beginBlock("R1");
        auto v = b.read(m, b.iter(L1));
        b.write(p.addTensor("o1", MemSpace::OnChip, 16), b.iter(L1), v);
        b.endBlock();
        b.endLoop();
        auto L2 = b.beginLoop("r2", 0, 16);
        b.beginBlock("R2");
        auto v2 = b.read(m, b.iter(L2));
        b.write(p.addTensor("o2", MemSpace::OnChip, 16), b.iter(L2), v2);
        b.endBlock();
        b.endLoop();
    }
    b.endLoop();
    (void)A;

    auto access = collectAccessors(p);
    DepGraphOptions dgo;
    dgo.enforceRar = true;
    DepGraph g = buildDepGraph(p, access[m.index()], dgo);

    // Accessors: 0=W, 1=R1, 2=R2.
    EXPECT_TRUE(g.hasEdge(0, 1, false)); // W->R1 (RAW).
    EXPECT_TRUE(g.hasEdge(0, 2, false)); // W->R2.
    EXPECT_TRUE(g.hasEdge(1, 2, false)); // RAR (single read stream).
    EXPECT_TRUE(g.hasEdge(1, 0, true));  // LCD: W_{i+1} after R1_i.
    EXPECT_TRUE(g.hasEdge(2, 0, true));
    EXPECT_TRUE(g.hasEdge(2, 1, true)); // RAR LCD.

    auto stats = reduceDepGraph(g);
    // TR removes W->R2 (implied via W->R1->R2).
    EXPECT_FALSE(g.hasEdge(0, 2, false));
    EXPECT_TRUE(g.hasEdge(0, 1, false));
    EXPECT_TRUE(g.hasEdge(1, 2, false));
    EXPECT_EQ(stats.forwardRemoved, 1);
    // Backward pruning: R1->W subsumed by R1->...: path R1->? with one
    // backward edge of the same loop: R2->W exists with fwd R1->R2.
    EXPECT_GE(stats.backwardRemoved, 1);
    // Exactly one backward chain back to the writer must remain.
    int backToW = 0;
    for (const auto &e : g.edges)
        if (e.backward && e.dst == 0)
            ++backToW;
    EXPECT_EQ(backToW, 1);
}

/** Accesses in exclusive branch clauses have no forward dependency but
 *  keep LCDs (paper Fig. 5a/5b). */
TEST(DepGraph, ExclusiveClauses)
{
    Program p;
    Builder b(p);
    auto m = p.addTensor("m", MemSpace::OnChip, 16);
    auto A = b.beginLoop("A", 0, 4);
    b.beginBlock("c");
    auto cond = b.binary(OpKind::CmpEq, b.mod(b.iter(A), b.cst(2.0)),
                         b.cst(0.0));
    b.endBlock();
    b.beginBranch("C", cond);
    {
        auto D = b.beginLoop("D", 0, 16);
        b.beginBlock("Wb");
        b.write(m, b.iter(D), b.iter(D));
        b.endBlock();
        b.endLoop();
    }
    b.elseClause();
    {
        auto F = b.beginLoop("F", 0, 16);
        b.beginBlock("Rb");
        auto v = b.read(m, b.iter(F));
        b.write(p.addTensor("o", MemSpace::OnChip, 16), b.iter(F), v);
        b.endBlock();
        b.endLoop();
    }
    b.endBranch();
    b.endLoop();

    auto access = collectAccessors(p);
    DepGraphOptions dgo;
    dgo.enforceRar = true;
    DepGraph g = buildDepGraph(p, access[m.index()], dgo);
    // 0=W (then), 1=R (else): mutually exclusive -> no forward edge.
    EXPECT_FALSE(g.hasEdge(0, 1, false));
    // But LCDs across iterations of A in both directions.
    EXPECT_TRUE(g.hasEdge(1, 0, true));
}

/** Disjoint unrolled writers are not serialized. */
TEST(DepGraph, DisjointClonesNoEdges)
{
    Program p;
    Builder b(p);
    auto m = p.addTensor("m", MemSpace::OnChip, 64);
    // Two block-partitioned writers: [0,32) and [32,64).
    auto L0 = b.beginLoop("w0", 0, 32);
    b.beginBlock("W0");
    b.write(m, b.iter(L0), b.cst(1.0));
    b.endBlock();
    b.endLoop();
    auto L1 = b.beginLoop("w1", 32, 64);
    b.beginBlock("W1");
    b.write(m, b.iter(L1), b.cst(2.0));
    b.endBlock();
    b.endLoop();

    auto access = collectAccessors(p);
    DepGraph g = buildDepGraph(p, access[m.index()], {});
    EXPECT_TRUE(g.edges.empty());
}

/** Strided (lattice-disjoint) accesses are independent. */
TEST(MayAlias, LatticeDisjoint)
{
    Program p;
    Builder b(p);
    auto m = p.addTensor("m", MemSpace::OnChip, 64);
    auto L0 = b.beginLoop("a", 0, 16);
    b.beginBlock("A");
    b.write(m, b.mul(b.iter(L0), b.cst(4.0)), b.cst(1.0)); // 0,4,8,...
    b.endBlock();
    b.endLoop();
    auto L1 = b.beginLoop("bL", 0, 16);
    b.beginBlock("B");
    b.write(m, b.add(b.mul(b.iter(L1), b.cst(4.0)), b.cst(2.0)),
            b.cst(2.0)); // 2,6,10,...
    b.endBlock();
    b.endLoop();

    auto access = collectAccessors(p);
    const auto &acc = access[m.index()].accessors;
    ASSERT_EQ(acc.size(), 2u);
    EXPECT_FALSE(compiler::mayAlias(p, acc[0], acc[1]));
}

TEST(MayAlias, IndirectAlwaysAliases)
{
    Program p;
    Builder b(p);
    auto m = p.addTensor("m", MemSpace::OnChip, 64);
    auto idx = p.addTensor("idx", MemSpace::OnChip, 64);
    auto L = b.beginLoop("i", 0, 8);
    b.beginBlock("blk");
    auto a = b.read(idx, b.iter(L));
    b.write(m, a, b.cst(1.0));
    b.write(m, b.iter(L), b.cst(2.0));
    b.endBlock();
    b.endLoop();
    auto access = collectAccessors(p);
    const auto &acc = access[m.index()].accessors;
    ASSERT_EQ(acc.size(), 2u);
    EXPECT_TRUE(compiler::mayAlias(p, acc[0], acc[1]));
}

/** PC mode: full consecutive serialization regardless of aliasing. */
TEST(DepGraph, FullSerializeMode)
{
    Program p;
    Builder b(p);
    auto m = p.addTensor("m", MemSpace::OnChip, 64);
    auto L0 = b.beginLoop("w0", 0, 32);
    b.beginBlock("W0");
    b.write(m, b.iter(L0), b.cst(1.0));
    b.endBlock();
    b.endLoop();
    auto L1 = b.beginLoop("w1", 32, 64);
    b.beginBlock("W1");
    b.write(m, b.iter(L1), b.cst(2.0));
    b.endBlock();
    b.endLoop();

    auto access = collectAccessors(p);
    DepGraphOptions dgo;
    dgo.fullSerialize = true;
    DepGraph g = buildDepGraph(p, access[m.index()], dgo);
    EXPECT_TRUE(g.hasEdge(0, 1, false));
}

/** The reduction that the closure-based reduceDepGraph replaced, kept
 *  as an oracle: per-edge transitive reduction, quadratic dedup, and a
 *  DFS over the whole edge list per forward-reach query. */
ReduceStats
referenceReduce(DepGraph &g)
{
    ReduceStats stats;
    Digraph fwd(g.n);
    for (const auto &e : g.edges)
        if (!e.backward)
            fwd.addEdge(e.src, e.dst);
    size_t before = fwd.numEdges();
    test::referenceTransitiveReduction(fwd);
    stats.forwardRemoved = static_cast<int>(before - fwd.numEdges());
    std::vector<DepEdge> kept;
    for (const auto &e : g.edges)
        if (e.backward || fwd.hasEdge(e.src, e.dst))
            kept.push_back(e);
    std::vector<DepEdge> dedup;
    for (const auto &e : kept) {
        bool dup = false;
        for (const auto &k : dedup)
            if (k.src == e.src && k.dst == e.dst &&
                k.backward == e.backward && k.loop == e.loop)
                dup = true;
        if (!dup)
            dedup.push_back(e);
    }
    stats.forwardRemoved +=
        static_cast<int>(kept.size() - dedup.size());
    g.edges = std::move(dedup);

    auto forwardReach = [&](size_t from, size_t to) {
        if (from == to)
            return true;
        std::vector<bool> seen(g.n, false);
        std::vector<size_t> stack{from};
        seen[from] = true;
        while (!stack.empty()) {
            size_t cur = stack.back();
            stack.pop_back();
            if (cur == to)
                return true;
            for (const auto &e : g.edges) {
                if (e.backward || e.src != cur)
                    continue;
                if (!seen[e.dst]) {
                    seen[e.dst] = true;
                    stack.push_back(e.dst);
                }
            }
        }
        return false;
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

TEST(ReduceDepGraph, MatchesReferenceOnRandomGraphs)
{
    Rng rng(5);
    int forwardRemoved = 0, backwardRemoved = 0;
    for (int trial = 0; trial < 300; ++trial) {
        // Accessors in program order, forward edges earlier -> later,
        // backward edges later -> earlier on one of three loops with
        // credit 1 or 2. Some edges repeat, the repeat sometimes on
        // another loop or with another credit.
        DepGraph g;
        g.n = 1 + rng.index(trial < 250 ? 16 : 80);
        double density = g.n > 20 ? 6.0 / g.n : 0.4;
        auto randomLoop = [&] {
            return CtrlId(static_cast<int32_t>(rng.intIn(0, 2)));
        };
        auto addWithRepeats = [&](DepEdge e, double repeat) {
            g.edges.push_back(e);
            while (rng.chance(repeat)) {
                if (rng.chance(0.5))
                    e.loop = randomLoop();
                if (e.backward && rng.chance(0.5))
                    e.credit = static_cast<int>(rng.intIn(1, 2));
                g.edges.push_back(e);
            }
        };
        for (size_t j = 0; j < g.n; ++j) {
            for (size_t i = 0; i < j; ++i) {
                if (rng.chance(density)) {
                    DepEdge e{i, j, false, CtrlId{}, 1};
                    if (rng.chance(0.1))
                        e.loop = randomLoop();
                    addWithRepeats(e, 0.2);
                }
                if (rng.chance(density / 2))
                    addWithRepeats({j, i, true, randomLoop(),
                                    static_cast<int>(rng.intIn(1, 2))},
                                   0.15);
            }
        }
        DepGraph want = g;
        ReduceStats wantStats = referenceReduce(want);
        ReduceStats stats = reduceDepGraph(g);
        EXPECT_EQ(stats.forwardRemoved, wantStats.forwardRemoved)
            << "trial " << trial;
        EXPECT_EQ(stats.backwardRemoved, wantStats.backwardRemoved)
            << "trial " << trial;
        ASSERT_EQ(g.edges.size(), want.edges.size()) << "trial " << trial;
        for (size_t k = 0; k < g.edges.size(); ++k) {
            const DepEdge &a = g.edges[k], &b = want.edges[k];
            EXPECT_TRUE(a.src == b.src && a.dst == b.dst &&
                        a.backward == b.backward && a.loop == b.loop &&
                        a.credit == b.credit && a.pruned == b.pruned)
                << "trial " << trial << " edge " << k;
        }
        forwardRemoved += wantStats.forwardRemoved;
        backwardRemoved += wantStats.backwardRemoved;
    }
    // The random graphs exercise both passes.
    EXPECT_GT(forwardRemoved, 0);
    EXPECT_GT(backwardRemoved, 0);
}

/** Same edges in the same order, field by field. */
void
expectSameEdges(const DepGraph &got, const DepGraph &want,
                const std::string &where)
{
    ASSERT_EQ(got.edges.size(), want.edges.size()) << where;
    for (size_t k = 0; k < got.edges.size(); ++k) {
        const DepEdge &a = got.edges[k], &b = want.edges[k];
        ASSERT_TRUE(a.src == b.src && a.dst == b.dst &&
                    a.backward == b.backward && a.loop == b.loop &&
                    a.credit == b.credit && a.pruned == b.pruned)
            << where << " edge " << k;
    }
}

struct OracleTotals
{
    size_t edges = 0;
    int forwardRemoved = 0;
    int backwardRemoved = 0;
};

/**
 * buildDepGraph and reduceDepGraph against the scans they replaced
 * (tests/helpers.h) on every tensor of an unrolled program, under each
 * option set lowering can pass: no RAR; RAR with and without static
 * shards; full serialization. Reduction also runs with a deeper credit
 * (as multibuffering sets) on half of one loop's backward edges.
 */
void
checkAgainstReference(const Program &p, const std::string &label,
                      OracleTotals &totals)
{
    for (const auto &ta : collectAccessors(p)) {
        if (ta.accessors.empty())
            continue;
        std::vector<DepGraphOptions> optionSets(4);
        optionSets[1].enforceRar = true;
        optionSets[2].enforceRar = true;
        for (size_t i = 0; i < ta.accessors.size(); ++i)
            optionSets[2].staticShard.push_back(static_cast<int>(i % 3) - 1);
        optionSets[3].fullSerialize = true;
        for (size_t k = 0; k < optionSets.size(); ++k) {
            std::string where = label + " tensor " +
                                std::to_string(ta.tensor.v) +
                                " options " + std::to_string(k);
            DepGraph got = buildDepGraph(p, ta, optionSets[k]);
            DepGraph want =
                test::referenceBuildDepGraph(p, ta, optionSets[k]);
            expectSameEdges(got, want, where);
            totals.edges += got.edges.size();
            for (int credit : {1, 2}) {
                DepGraph r = got, rw = want;
                if (credit > 1) {
                    // Every other backward edge of the first one's loop,
                    // so that loop's edges split between two credits.
                    CtrlId loop;
                    for (const auto &e : got.edges)
                        if (e.backward && !loop.valid())
                            loop = e.loop;
                    for (DepGraph *g : {&r, &rw}) {
                        bool deeper = true;
                        for (auto &x : g->edges) {
                            if (!x.backward || x.loop != loop)
                                continue;
                            if (deeper)
                                x.credit = credit;
                            deeper = !deeper;
                        }
                    }
                }
                ReduceStats s = reduceDepGraph(r);
                ReduceStats sw = test::referenceReduceDepGraph(rw);
                EXPECT_EQ(s.forwardRemoved, sw.forwardRemoved) << where;
                EXPECT_EQ(s.backwardRemoved, sw.backwardRemoved) << where;
                expectSameEdges(r, rw,
                                where + " credit " + std::to_string(credit));
                totals.forwardRemoved += s.forwardRemoved;
                totals.backwardRemoved += s.backwardRemoved;
            }
        }
    }
}

TEST(DepGraph, MatchesReferenceScanOnWorkloads)
{
    OracleTotals totals;
    const int lanes = compiler::CompilerOptions{}.spec.pcu.lanes;
    for (const auto &name : workloads::allWorkloadNames()) {
        for (int par : {1, 4, 16, 32}) {
            workloads::WorkloadConfig cfg;
            cfg.par = par;
            Program p = workloads::buildByName(name, cfg).program;
            compiler::unrollProgram(p, lanes);
            checkAgainstReference(p, name + " par " + std::to_string(par),
                                  totals);
        }
    }
    EXPECT_GT(totals.edges, 0u);
    EXPECT_GT(totals.forwardRemoved, 0);
    EXPECT_GT(totals.backwardRemoved, 0);
}

TEST(DepGraph, MatchesReferenceScanOnGeneratedPrograms)
{
    OracleTotals totals;
    const int lanes = test::tinyOptions().spec.pcu.lanes;
    for (int seed = 1; seed <= 160; ++seed) {
        // The property suite's seed mapping; seeds 1-40 are its
        // programs.
        test::ProgramGen gen(static_cast<uint64_t>(seed) * 7919 + 13);
        Program p = gen.generate().program;
        compiler::unrollProgram(p, lanes);
        checkAgainstReference(p, "seed " + std::to_string(seed), totals);
    }
    EXPECT_GT(totals.edges, 0u);
    EXPECT_GT(totals.forwardRemoved, 0);
    EXPECT_GT(totals.backwardRemoved, 0);
}

/** levelAt implements the "done of the immediate child ancestor"
 *  rule. */
TEST(Levels, LcaDerivedRates)
{
    Program p;
    Builder b(p);
    auto A = b.beginLoop("A", 0, 2);
    auto Bl = b.beginLoop("B", 0, 3);
    auto C = b.beginLoop("C", 0, 4);
    auto blkC = b.beginBlock("blkC");
    b.endBlock();
    b.endLoop();
    b.endLoop();
    auto G = b.beginLoop("G", 0, 5);
    auto blkG = b.beginBlock("blkG");
    b.endBlock();
    b.endLoop();
    b.endLoop();

    // LCA(blkC, blkG) = A. blkC chain = [A,B,C]: level 1 (wrap of B).
    CtrlId lca = p.lca(blkC, blkG);
    EXPECT_EQ(lca, A);
    EXPECT_EQ(compiler::levelAt(p, blkC, lca), 1);
    EXPECT_EQ(compiler::levelAt(p, blkG, lca), 1);
    // Same-block tokens are per-firing (level == chain size).
    EXPECT_EQ(compiler::levelAt(p, blkC, blkC), 3);
    (void)Bl;
    (void)C;
    (void)G;
}

} // namespace
} // namespace sara
