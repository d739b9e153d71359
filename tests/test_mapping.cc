/**
 * @file
 * Resource-mapping tests: compute partitioning (constraints, legality,
 * rewrite correctness), global merging, retiming, the annealing
 * solver, and placement & routing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <set>

#include "compiler/merging.h"
#include "compiler/partition.h"
#include "compiler/pnr.h"
#include "ir/builder.h"
#include "solver/mip.h"
#include "support/digraph.h"
#include "support/rng.h"
#include "tests/helpers.h"

namespace sara {
namespace {

using namespace compiler;

PartitionProblem
chainProblem(int n, int maxOps)
{
    PartitionProblem prob;
    prob.n = n;
    prob.opCost.assign(n, 1);
    for (int i = 0; i + 1 < n; ++i)
        prob.edges.push_back({i, i + 1});
    prob.maxOps = maxOps;
    return prob;
}

TEST(Partition, TraversalRespectsOpLimit)
{
    auto prob = chainProblem(20, 6);
    for (auto algo : {PartitionAlgo::BfsFwd, PartitionAlgo::BfsBwd,
                      PartitionAlgo::DfsFwd, PartitionAlgo::DfsBwd}) {
        auto sol = partitionTraversal(prob, algo);
        EXPECT_TRUE(sol.feasible) << partitionAlgoName(algo);
        EXPECT_GE(sol.numPartitions, 4);
        bool ok = false;
        partitionCost(prob, sol.assign, &ok);
        EXPECT_TRUE(ok);
    }
}

TEST(Partition, CostDetectsViolations)
{
    auto prob = chainProblem(8, 4);
    std::vector<int> tooBig(8, 0); // All in one partition: 8 ops > 4.
    bool ok = true;
    partitionCost(prob, tooBig, &ok);
    EXPECT_FALSE(ok);

    // Cross-partition cycle: 0->1 in p0->p1 and an edge back.
    PartitionProblem cyc;
    cyc.n = 4;
    cyc.opCost.assign(4, 1);
    cyc.edges = {{0, 1}, {1, 2}, {2, 3}};
    std::vector<int> cycAssign = {0, 1, 0, 1};
    // p0 -> p1 (0->1), p1 -> p0 (1->2): cycle.
    ok = true;
    partitionCost(cyc, cycAssign, &ok);
    EXPECT_FALSE(ok);
}

TEST(Partition, DiamondRetimingCost)
{
    // A skewed diamond: a long chain and a direct edge reconverging.
    PartitionProblem prob;
    prob.n = 6;
    prob.opCost.assign(6, 1);
    prob.maxOps = 1; // One node per partition.
    prob.edges = {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 5}, {4, 5}};
    std::vector<int> assign = {0, 1, 2, 3, 4, 5};
    bool ok = false;
    double cost = partitionCost(prob, assign, &ok);
    EXPECT_TRUE(ok);
    // 6 partitions + alpha * (gap of edge 0->5 = depth 5 - 1 = 4).
    EXPECT_NEAR(cost, 6 + prob.alpha * 4, 1e-9);
}

/** The std::set version of partitionCost that PartitionEvaluator
 *  replaced, kept as an oracle. */
double
referenceCost(const PartitionProblem &prob, const std::vector<int> &assign,
              bool *feasible)
{
    bool ok = true;
    int parts = 0;
    for (int a : assign)
        parts = std::max(parts, a + 1);
    std::vector<int> ops(parts, 0), aux(parts, 0);
    std::vector<std::set<int>> inSrcs(parts);
    std::vector<std::set<int>> outNodes(parts);
    for (int i = 0; i < prob.n; ++i) {
        ops[assign[i]] += prob.opCost[i];
        if (prob.maxAux > 0)
            aux[assign[i]] += prob.auxCost[i];
    }
    for (const auto &[s, d] : prob.edges) {
        if (assign[s] == assign[d])
            continue;
        inSrcs[assign[d]].insert(s);
        outNodes[assign[s]].insert(s);
    }
    for (int pIdx = 0; pIdx < parts; ++pIdx) {
        if (ops[pIdx] > prob.maxOps ||
            static_cast<int>(inSrcs[pIdx].size()) > prob.maxIn ||
            static_cast<int>(outNodes[pIdx].size()) > prob.maxOut)
            ok = false;
        if (prob.maxAux > 0 && aux[pIdx] > prob.maxAux)
            ok = false;
    }
    std::vector<std::set<int>> succ(parts);
    std::vector<int> indeg(parts, 0);
    for (const auto &[s, d] : prob.edges) {
        int a = assign[s], b = assign[d];
        if (a != b && succ[a].insert(b).second)
            ++indeg[b];
    }
    std::deque<int> ready;
    for (int i = 0; i < parts; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);
    std::vector<int> depth(parts, 0);
    int seen = 0;
    while (!ready.empty()) {
        int cur = ready.front();
        ready.pop_front();
        ++seen;
        for (int nxt : succ[cur]) {
            depth[nxt] = std::max(depth[nxt], depth[cur] + 1);
            if (--indeg[nxt] == 0)
                ready.push_back(nxt);
        }
    }
    if (seen != parts)
        ok = false;
    double retime = 0.0;
    if (ok) {
        for (const auto &[s, d] : prob.edges) {
            int gap = depth[assign[d]] - depth[assign[s]];
            if (assign[s] != assign[d] && gap > 1)
                retime += gap - 1;
        }
    }
    if (feasible)
        *feasible = ok;
    return ok ? parts + prob.alpha * retime : 1e18;
}

TEST(Partition, EvaluatorMatchesSetBasedCost)
{
    Rng rng(9);
    int feasible = 0, infeasible = 0, cyclic = 0;
    for (int trial = 0; trial < 60; ++trial) {
        // Operand edges over a shuffled node order, appended in a
        // random order with repeats (an op reading one value twice),
        // the way partitionCompute builds them.
        PartitionProblem prob;
        prob.n = 1 + static_cast<int>(rng.index(40));
        std::vector<int> perm(prob.n);
        for (int i = 0; i < prob.n; ++i)
            perm[i] = i;
        for (int i = prob.n; i > 1; --i)
            std::swap(perm[i - 1], perm[rng.index(i)]);
        for (int j = 1; j < prob.n; ++j) {
            int fanIn = static_cast<int>(rng.intIn(0, 3));
            for (int k = 0; k < fanIn; ++k) {
                std::pair<int, int> e{perm[rng.index(j)], perm[j]};
                prob.edges.insert(
                    prob.edges.begin() + rng.index(prob.edges.size() + 1),
                    e);
            }
        }
        prob.opCost.resize(prob.n);
        for (int &c : prob.opCost)
            c = static_cast<int>(rng.intIn(0, 1));
        prob.maxOps = static_cast<int>(rng.intIn(2, 8));
        prob.maxIn = static_cast<int>(rng.intIn(1, 4));
        prob.maxOut = static_cast<int>(rng.intIn(1, 4));
        prob.alpha = 1.0 / std::min(prob.maxIn, prob.maxOut);
        if (rng.chance(0.5)) {
            prob.auxCost.resize(prob.n);
            for (int &c : prob.auxCost)
                c = static_cast<int>(rng.intIn(0, 2));
            prob.maxAux = static_cast<int>(rng.intIn(2, 6));
        }

        // One evaluator serves every assignment, as in the annealer:
        // contiguous chunks (mostly feasible), random labels with gaps
        // (often cyclic across partitions), and singletons.
        PartitionEvaluator eval(prob);
        for (int a = 0; a < 40; ++a) {
            std::vector<int> assign(prob.n);
            if (a % 3 == 0) {
                int chunk = static_cast<int>(rng.intIn(1, 6));
                for (int i = 0; i < prob.n; ++i)
                    assign[perm[i]] = i / chunk;
            } else if (a % 3 == 1) {
                int parts = static_cast<int>(rng.intIn(1, prob.n + 2));
                for (int &x : assign)
                    x = static_cast<int>(rng.index(parts));
            } else {
                for (int i = 0; i < prob.n; ++i)
                    assign[i] = i;
            }
            bool wantOk = false, gotOk = true, oneShotOk = true;
            double want = referenceCost(prob, assign, &wantOk);
            double got = eval(assign, &gotOk);
            EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                << "trial " << trial << " assignment " << a << ": " << got
                << " vs " << want;
            EXPECT_EQ(gotOk, wantOk) << "trial " << trial << " " << a;
            double oneShot = partitionCost(prob, assign, &oneShotOk);
            EXPECT_EQ(std::memcmp(&oneShot, &want, sizeof oneShot), 0);
            EXPECT_EQ(oneShotOk, wantOk);
            (wantOk ? feasible : infeasible) += 1;

            Digraph parts(*std::max_element(assign.begin(), assign.end()) +
                          1);
            for (const auto &[s, d] : prob.edges)
                if (assign[s] != assign[d])
                    parts.addEdge(assign[s], assign[d]);
            cyclic += parts.hasCycle();
        }
    }
    EXPECT_GT(feasible, 100);
    EXPECT_GT(infeasible, 100);
    EXPECT_GT(cyclic, 100); // Partition graphs with a cycle.
}

TEST(Partition, SolverNotWorseThanWarmStart)
{
    Rng rng(3);
    PartitionProblem prob;
    prob.n = 24;
    prob.opCost.assign(prob.n, 1);
    for (int i = 1; i < prob.n; ++i) {
        prob.edges.push_back({static_cast<int>(rng.index(i)), i});
        if (rng.chance(0.4))
            prob.edges.push_back({static_cast<int>(rng.index(i)), i});
    }
    auto warm = partitionTraversal(prob, PartitionAlgo::DfsFwd);
    solver::AnnealOptions ao;
    ao.iterations = 20000;
    ao.seed = 5;
    auto res = solver::anneal(
        prob.n, warm.assign,
        [&](const std::vector<int> &a, bool *f) {
            return partitionCost(prob, a, f);
        },
        ao);
    ASSERT_TRUE(res.feasible);
    EXPECT_LE(res.cost, warm.cost + 1e-9);
}

TEST(Partition, OversizedBlockIsSplitAndStaysCorrect)
{
    // A 24-op arithmetic chain in one hyperblock: must be partitioned
    // into >= 4 PCUs, and the program must still compute correctly.
    using namespace ir;
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 64);
    auto out = p.addTensor("out", MemSpace::Dram, 64);
    auto l = b.beginLoop("i", 0, 64, 1, 16);
    b.beginBlock("deep");
    OpId v = b.read(in, b.iter(l));
    for (int k = 0; k < 24; ++k)
        v = b.add(b.mul(v, b.cst(1.0 + k * 0.01)), b.cst(0.5));
    b.write(out, b.iter(l), v);
    b.endBlock();
    b.endLoop();

    std::vector<double> data(64);
    for (int i = 0; i < 64; ++i)
        data[i] = i * 0.25;
    auto r = test::runAndCompare(p, test::tinyOptions(), {{in.v, data}});
    EXPECT_GE(r.compiled.partitionsCreated, 3);
}

TEST(Merge, PacksSmallUnits)
{
    using namespace ir;
    // Many tiny sequential phases produce many small VCUs; merging
    // should pack them well below one PCU each.
    Program p;
    Builder b(p);
    auto out = p.addTensor("out", MemSpace::Dram, 16);
    ir::OpId prev;
    for (int i = 0; i < 12; ++i) {
        b.beginBlock("b" + std::to_string(i));
        ir::OpId v = prev.valid() ? b.add(prev, b.cst(1.0))
                                  : b.cst(0.0);
        prev = b.mul(v, b.cst(2.0));
        b.endBlock();
    }
    b.beginBlock("st");
    b.write(out, b.cst(0.0), prev);
    b.endBlock();

    auto r = test::runAndCompare(p, test::tinyOptions());
    EXPECT_GT(r.compiled.unitsMerged, 0);
    EXPECT_LT(r.compiled.resources.pcus, 13);
}

TEST(Pnr, AssignsDistinctCellsAndLatencies)
{
    using namespace ir;
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 256);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 256);
    auto out = p.addTensor("out", MemSpace::Dram, 256);
    auto l1 = b.beginLoop("l1", 0, 256, 1, 16);
    b.beginBlock("ld");
    b.write(buf, b.iter(l1), b.read(in, b.iter(l1)));
    b.endBlock();
    b.endLoop();
    auto l2 = b.beginLoop("l2", 0, 256, 1, 16);
    b.beginBlock("st");
    b.write(out, b.iter(l2), b.mul(b.read(buf, b.iter(l2)), b.cst(2.0)));
    b.endBlock();
    b.endLoop();

    auto r = compiler::compile(p, test::tinyOptions());
    const auto &g = r.lowering.graph;
    // Different groups must sit on different cells.
    std::map<int, std::pair<int, int>> cellOf;
    for (const auto &u : g.units()) {
        auto it = cellOf.find(u.mergedInto);
        if (it == cellOf.end()) {
            for (const auto &[grp, cell] : cellOf)
                EXPECT_FALSE(cell ==
                             std::make_pair(u.placeX, u.placeY))
                    << "two groups on one cell";
            cellOf[u.mergedInto] = {u.placeX, u.placeY};
        } else {
            EXPECT_EQ(it->second, std::make_pair(u.placeX, u.placeY));
        }
    }
    // Latencies: same-group streams are local; others >= minLatency.
    for (const auto &s : g.streams()) {
        if (g.unit(s.src).mergedInto == g.unit(s.dst).mergedInto)
            EXPECT_EQ(s.latency, 1);
        else
            EXPECT_GE(s.latency,
                      test::tinyOptions().spec.net.minLatency);
    }
}

TEST(Solver, AnnealFindsSingletonOptimum)
{
    // Independent nodes, capacity 4 each: optimum = ceil(n/4) parts.
    PartitionProblem prob;
    prob.n = 12;
    prob.opCost.assign(prob.n, 1);
    prob.maxOps = 4;
    std::vector<int> warm(prob.n);
    for (int i = 0; i < prob.n; ++i)
        warm[i] = i; // Singletons: cost 12.
    solver::AnnealOptions ao;
    ao.iterations = 50000;
    ao.lowerBound = 3;
    auto res = solver::anneal(
        prob.n, warm,
        [&](const std::vector<int> &a, bool *f) {
            return partitionCost(prob, a, f);
        },
        ao);
    ASSERT_TRUE(res.feasible);
    EXPECT_LE(res.cost, 3.5); // Within the 15% gap of optimum 3.
}

} // namespace
} // namespace sara
