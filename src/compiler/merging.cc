#include "compiler/merging.h"

#include <algorithm>
#include <map>
#include <set>

#include "solver/mip.h"
#include "support/digraph.h"
#include "support/logging.h"

namespace sara::compiler {

using dfg::PuType;
using dfg::VuId;
using dfg::VuKind;

namespace {

bool
countableLop(const dfg::LOp &lop)
{
    if (lop.isStreamIn())
        return false;
    return lop.kind != ir::OpKind::Const && lop.kind != ir::OpKind::Iter;
}

int
unitOps(const dfg::VUnit &u)
{
    int ops = 0;
    for (const auto &lop : u.lops)
        if (countableLop(lop))
            ++ops;
    return ops;
}

/** Compute-class: VCUs plus dynamic memory ports (crossbar clients). */
bool
isComputeClass(const dfg::VUnit &u)
{
    if (u.kind == VuKind::Compute)
        return true;
    return u.kind == VuKind::MemPort && u.dynamicBank;
}

} // namespace

PartitionProblem
buildMergeProblem(const dfg::Vudfg &graph, const CompilerOptions &options,
                  std::vector<VuId> *nodes)
{
    PartitionProblem prob;
    std::vector<int> nodeOf(graph.numUnits(), -1);
    for (const auto &u : graph.units()) {
        if (!isComputeClass(u))
            continue;
        nodeOf[u.id.index()] = prob.n++;
        if (nodes)
            nodes->push_back(u.id);
        prob.opCost.push_back(
            std::min(unitOps(u), options.spec.pcu.stages));
        prob.auxCost.push_back(u.chainSize());
    }
    // Do-while condition streams are loop feedback, not forward
    // dataflow; including them would make the merge problem cyclic.
    std::vector<bool> isFeedback(graph.numStreams(), false);
    for (const auto &u : graph.units())
        for (const auto &in : u.inputs)
            if (in.role == dfg::InputRole::WhileCond)
                isFeedback[in.stream.index()] = true;
    std::set<std::pair<int, int>> edgeSet;
    for (const auto &s : graph.streams()) {
        if (s.initTokens > 0 || s.src == s.dst ||
            isFeedback[s.id.index()])
            continue;
        int a = nodeOf[s.src.index()], b = nodeOf[s.dst.index()];
        if (a < 0 || b < 0 || a == b)
            continue;
        edgeSet.insert({a, b});
    }
    prob.edges.assign(edgeSet.begin(), edgeSet.end());
    prob.maxOps = options.spec.pcu.stages;
    prob.maxIn = options.spec.pcu.maxIn;
    prob.maxOut = options.spec.pcu.maxOut;
    prob.maxAux = options.spec.pcu.maxCounters;
    prob.alpha = 1.0 / std::min(prob.maxIn, prob.maxOut);
    return prob;
}

MergeReport
globalMerge(dfg::Vudfg &graph, const CompilerOptions &options)
{
    MergeReport report;
    int nextGroup = 0;

    // PMU groups: one per VMU; static ports join their VMU's group.
    std::map<int32_t, int> vmuGroup;
    for (auto &u : graph.units()) {
        if (u.kind == VuKind::Memory) {
            u.mergedInto = nextGroup++;
            u.assigned = PuType::Pmu;
            vmuGroup[u.id.v] = u.mergedInto;
            ++report.pmuGroups;
        }
    }
    for (auto &u : graph.units()) {
        if (u.kind == VuKind::MemPort && !u.dynamicBank) {
            u.mergedInto = vmuGroup.at(u.memUnit.v);
            u.assigned = PuType::Pmu;
        }
    }
    // AG groups: one engine per DRAM interface.
    for (auto &u : graph.units()) {
        if (u.kind == VuKind::Ag) {
            u.mergedInto = nextGroup++;
            u.assigned = PuType::AgIf;
            ++report.agGroups;
        }
    }

    // Compute-class packing.
    std::vector<VuId> nodes;
    PartitionProblem prob = buildMergeProblem(graph, options, &nodes);
    if (prob.n == 0)
        return report;

    PartitionSolution sol;
    bool cyclic = false;
    {
        // The compute-class subgraph can, in rare shapes, be cyclic
        // through do-while condition feedback; fall back to singleton
        // groups in that case.
        Digraph check(prob.n);
        for (const auto &[a, b] : prob.edges)
            check.addEdge(a, b);
        cyclic = check.hasCycle();
    }
    if (cyclic) {
        warn("compute-class unit graph is cyclic; merging skipped");
        sol.assign.resize(prob.n);
        for (int i = 0; i < prob.n; ++i)
            sol.assign[i] = i;
        sol.numPartitions = prob.n;
    } else if (options.partitioner == PartitionAlgo::Solver) {
        PartitionSolution warm =
            partitionTraversal(prob, PartitionAlgo::DfsFwd);
        int totalOps = 0;
        for (int c : prob.opCost)
            totalOps += c;
        solver::AnnealOptions ao;
        ao.iterations = options.solverIterations;
        ao.seed = options.solverSeed;
        ao.lowerBound =
            std::max(1, (totalOps + prob.maxOps - 1) / prob.maxOps);
        PartitionEvaluator cost(prob);
        auto res = solver::anneal(
            prob.n, warm.assign,
            [&](const std::vector<int> &a, bool *f) { return cost(a, f); },
            ao);
        sol.assign = res.feasible ? res.assign : warm.assign;
        sol.numPartitions = 0;
        for (int a : sol.assign)
            sol.numPartitions = std::max(sol.numPartitions, a + 1);
    } else {
        sol = partitionTraversal(prob, options.partitioner);
        if (!sol.feasible) {
            // Traversal is heuristic; fall back to singletons rather
            // than emit an illegal packing.
            for (int i = 0; i < prob.n; ++i)
                sol.assign[i] = i;
            sol.numPartitions = prob.n;
        }
    }

    std::vector<int> groupOf(sol.numPartitions, -1);
    std::vector<int> groupSize(sol.numPartitions, 0);
    for (int i = 0; i < prob.n; ++i)
        ++groupSize[sol.assign[i]];
    for (int i = 0; i < prob.n; ++i) {
        int part = sol.assign[i];
        if (groupOf[part] < 0) {
            groupOf[part] = nextGroup++;
            ++report.pcuGroups;
        }
        auto &u = graph.unit(nodes[i]);
        u.mergedInto = groupOf[part];
        u.assigned = PuType::Pcu;
        if (groupSize[part] > 1)
            ++report.unitsMerged;
    }
    return report;
}

} // namespace sara::compiler
