#include "compiler/partition.h"

#include <algorithm>
#include <deque>
#include <queue>
#include <map>
#include <set>

#include "solver/mip.h"
#include "support/logging.h"

namespace sara::compiler {

using dfg::InputRole;
using dfg::StreamId;
using dfg::StreamKind;
using dfg::VuId;
using dfg::VuKind;

const char *
partitionAlgoName(PartitionAlgo algo)
{
    switch (algo) {
      case PartitionAlgo::BfsFwd: return "bfs-fwd";
      case PartitionAlgo::BfsBwd: return "bfs-bwd";
      case PartitionAlgo::DfsFwd: return "dfs-fwd";
      case PartitionAlgo::DfsBwd: return "dfs-bwd";
      case PartitionAlgo::Solver: return "solver";
    }
    return "?";
}

double
partitionCost(const PartitionProblem &prob, const std::vector<int> &assign,
              bool *feasible)
{
    return PartitionEvaluator(prob)(assign, feasible);
}

PartitionEvaluator::PartitionEvaluator(const PartitionProblem &prob)
    : prob_(prob)
{
    succStart_.assign(prob.n + 1, 0);
    for (const auto &[s, d] : prob.edges)
        ++succStart_[s + 1];
    for (int i = 0; i < prob.n; ++i)
        succStart_[i + 1] += succStart_[i];
    succ_.resize(prob.edges.size());
    std::vector<int> fill(succStart_.begin(), succStart_.end() - 1);
    for (const auto &[s, d] : prob.edges)
        succ_[fill[s]++] = d;
}

double
PartitionEvaluator::operator()(const std::vector<int> &assign,
                               bool *feasible)
{
    const PartitionProblem &prob = prob_;
    auto fail = [&] {
        if (feasible)
            *feasible = false;
        return 1e18;
    };
    int parts = 0;
    for (int a : assign)
        parts = std::max(parts, a + 1);

    // Per-partition ops and arity: in-arity counts distinct external
    // source nodes, out-arity distinct nodes with an external dest.
    ops_.assign(parts, 0);
    aux_.assign(parts, 0);
    inArity_.assign(parts, 0);
    outArity_.assign(parts, 0);
    mark_.resize(std::max<size_t>(mark_.size(), parts), 0);
    edgeStart_.assign(parts + 1, 0);
    for (int i = 0; i < prob.n; ++i) {
        ops_[assign[i]] += prob.opCost[i];
        if (prob.maxAux > 0)
            aux_[assign[i]] += prob.auxCost[i];
        // Stamp each destination partition once per source node.
        ++stamp_;
        bool external = false;
        for (int k = succStart_[i]; k < succStart_[i + 1]; ++k) {
            int q = assign[succ_[k]];
            if (q == assign[i])
                continue;
            external = true;
            ++edgeStart_[assign[i] + 1];
            if (mark_[q] != stamp_) {
                mark_[q] = stamp_;
                ++inArity_[q];
            }
        }
        outArity_[assign[i]] += external;
    }
    for (int pIdx = 0; pIdx < parts; ++pIdx) {
        if (ops_[pIdx] > prob.maxOps || inArity_[pIdx] > prob.maxIn ||
            outArity_[pIdx] > prob.maxOut)
            return fail();
        if (prob.maxAux > 0 && aux_[pIdx] > prob.maxAux)
            return fail();
    }

    // Acyclicity across partitions + retiming gaps via partition
    // longest-path depths. A partition pair joined by several edges
    // appears several times in the CSR; the FIFO Kahn walk counts each
    // copy in and out, and longest-path depths do not depend on the
    // visit order.
    for (int pIdx = 0; pIdx < parts; ++pIdx)
        edgeStart_[pIdx + 1] += edgeStart_[pIdx];
    edgeDst_.resize(edgeStart_[parts]);
    cursor_.assign(edgeStart_.begin(), edgeStart_.end() - 1);
    indeg_.assign(parts, 0);
    for (const auto &[s, d] : prob.edges) {
        int a = assign[s], b = assign[d];
        if (a == b)
            continue;
        edgeDst_[cursor_[a]++] = b;
        ++indeg_[b];
    }
    depth_.assign(parts, 0);
    fifo_.clear();
    size_t head = 0;
    for (int pIdx = 0; pIdx < parts; ++pIdx)
        if (indeg_[pIdx] == 0)
            fifo_.push_back(pIdx);
    while (head < fifo_.size()) {
        int cur = fifo_[head++];
        for (int k = edgeStart_[cur]; k < edgeStart_[cur + 1]; ++k) {
            int nxt = edgeDst_[k];
            depth_[nxt] = std::max(depth_[nxt], depth_[cur] + 1);
            if (--indeg_[nxt] == 0)
                fifo_.push_back(nxt);
        }
    }
    if (static_cast<int>(fifo_.size()) != parts)
        return fail(); // Cycle across partitions.

    double retime = 0.0;
    for (const auto &[s, d] : prob.edges) {
        int gap = depth_[assign[d]] - depth_[assign[s]];
        if (assign[s] != assign[d] && gap > 1)
            retime += gap - 1;
    }
    if (feasible)
        *feasible = true;
    return parts + prob.alpha * retime;
}

namespace {

/** Topological order with a BFS (FIFO) or DFS (LIFO) ready list, on
 *  the forward or reversed graph. */
std::vector<int>
topoOrder(const PartitionProblem &prob, bool dfs, bool backward)
{
    std::vector<std::vector<int>> succ(prob.n);
    std::vector<int> indeg(prob.n, 0);
    for (auto [s, d] : prob.edges) {
        if (backward)
            std::swap(s, d);
        succ[s].push_back(d);
        ++indeg[d];
    }
    std::deque<int> ready;
    for (int i = 0; i < prob.n; ++i)
        if (indeg[i] == 0)
            ready.push_back(i);
    std::vector<int> order;
    order.reserve(prob.n);
    while (!ready.empty()) {
        int cur;
        if (dfs) {
            cur = ready.back();
            ready.pop_back();
        } else {
            cur = ready.front();
            ready.pop_front();
        }
        order.push_back(cur);
        for (int nxt : succ[cur])
            if (--indeg[nxt] == 0)
                ready.push_back(nxt);
    }
    SARA_ASSERT(static_cast<int>(order.size()) == prob.n,
                "partition problem graph has a cycle");
    if (backward)
        std::reverse(order.begin(), order.end());
    return order;
}

} // namespace

PartitionSolution
partitionTraversal(const PartitionProblem &prob, PartitionAlgo algo)
{
    bool dfs = algo == PartitionAlgo::DfsFwd ||
               algo == PartitionAlgo::DfsBwd;
    bool backward = algo == PartitionAlgo::BfsBwd ||
                    algo == PartitionAlgo::DfsBwd;
    if (algo == PartitionAlgo::Solver)
        dfs = true; // Warm start uses DfsFwd.

    std::vector<std::vector<int>> preds(prob.n);
    for (const auto &[s, d] : prob.edges)
        preds[d].push_back(s);

    auto order = topoOrder(prob, dfs, backward);

    PartitionSolution sol;
    sol.assign.assign(prob.n, -1);
    int current = 0;
    int ops = 0;
    int auxSum = 0;
    int nodes = 0;
    std::set<int> extSrcs;
    // Chunk total nodes so out-arity (<= nodes in chunk) stays legal.
    const int nodeCap = std::max(prob.maxOps, prob.maxOut);
    for (int idx : order) {
        std::set<int> added;
        for (int s : preds[idx])
            if (sol.assign[s] != current)
                added.insert(s);
        std::set<int> merged = extSrcs;
        merged.insert(added.begin(), added.end());
        int auxNeed = prob.maxAux > 0 ? prob.auxCost[idx] : 0;
        bool fits = ops + prob.opCost[idx] <= prob.maxOps &&
                    nodes + 1 <= nodeCap &&
                    static_cast<int>(merged.size()) <= prob.maxIn &&
                    (prob.maxAux == 0 ||
                     auxSum + auxNeed <= prob.maxAux);
        if (!fits && nodes > 0) {
            ++current;
            ops = 0;
            auxSum = 0;
            nodes = 0;
            extSrcs.clear();
            merged.clear();
            for (int s : preds[idx])
                merged.insert(s);
        }
        sol.assign[idx] = current;
        ops += prob.opCost[idx];
        auxSum += auxNeed;
        ++nodes;
        extSrcs = std::move(merged);
    }
    sol.numPartitions = prob.n ? current + 1 : 0;
    bool feasible = true;
    sol.cost = partitionCost(prob, sol.assign, &feasible);
    sol.feasible = feasible;
    return sol;
}

// ---------------------------------------------------------------------------
// Graph rewriting
// ---------------------------------------------------------------------------

namespace {

/** True for lops that occupy a PCU pipeline stage. */
bool
countable(const dfg::LOp &lop)
{
    if (lop.isStreamIn())
        return false;
    return lop.kind != ir::OpKind::Const && lop.kind != ir::OpKind::Iter;
}

/** Rewrites one oversized unit according to `assign`. */
void
rewriteUnit(dfg::Vudfg &g, VuId uid, const std::vector<int> &nodeOf,
            const std::vector<int> &lopOfNode,
            const std::vector<int> &assign, int parts,
            const CompilerOptions &opt)
{
    (void)lopOfNode;
    // Snapshot the original unit.
    dfg::VUnit orig = g.unit(uid);
    const int n = static_cast<int>(orig.lops.size());
    const int firing = orig.chainSize();
    const int vec = orig.vec();

    // Order partitions topologically (cross-partition edges must go
    // from lower to higher rank so forwarding streams are forward).
    std::vector<std::set<int>> psucc(parts);
    std::vector<int> pindeg(parts, 0);
    for (int i = 0; i < n; ++i) {
        if (nodeOf[i] < 0)
            continue;
        const auto &lop = orig.lops[i];
        for (int operand : {lop.a, lop.b, lop.c}) {
            if (operand < 0 || nodeOf[operand] < 0)
                continue;
            int a = assign[nodeOf[operand]], b = assign[nodeOf[i]];
            if (a != b && psucc[a].insert(b).second)
                ++pindeg[b];
        }
    }
    std::vector<int> firstPos(parts, INT32_MAX);
    for (int i = 0; i < n; ++i)
        if (nodeOf[i] >= 0)
            firstPos[assign[nodeOf[i]]] =
                std::min(firstPos[assign[nodeOf[i]]], i);
    std::vector<int> rank(parts, -1);
    {
        auto cmp = [&](int a, int b) { return firstPos[a] > firstPos[b]; };
        std::priority_queue<int, std::vector<int>, decltype(cmp)> ready(
            cmp);
        for (int i = 0; i < parts; ++i)
            if (pindeg[i] == 0)
                ready.push(i);
        int next = 0;
        while (!ready.empty()) {
            int cur = ready.top();
            ready.pop();
            rank[cur] = next++;
            for (int s : psucc[cur])
                if (--pindeg[s] == 0)
                    ready.push(s);
        }
        SARA_ASSERT(next == parts, "cyclic partition assignment");
    }

    // Create sub-units (index 0 reuses the original id).
    std::vector<VuId> units(parts);
    units[0] = uid;
    for (int k = 1; k < parts; ++k)
        units[k] = g.addUnit(VuKind::Compute,
                             orig.name + "_p" + std::to_string(k));
    for (int k = 0; k < parts; ++k) {
        auto &u = g.unit(units[k]);
        u.counters = orig.counters;
        if (k == 0) {
            u.lops.clear();
            u.inputs.clear();
            u.outputs.clear();
        }
    }

    // Map original lop -> (unit rank, new index); fill per-unit lops.
    std::vector<std::pair<int, int>> newLoc(n, {-1, -1});
    // Per unit: map of original input binding -> new binding index.
    std::vector<std::map<int, int>> bindingMap(parts);

    // Control inputs (Predicate/Bound/WhileCond) replicate to every
    // sub-unit; Operand inputs follow their StreamIn node.
    // First, figure out which partition each original input feeds.
    std::vector<int> operandPart(orig.inputs.size(), -1);
    for (int i = 0; i < n; ++i) {
        if (orig.lops[i].isStreamIn() && nodeOf[i] >= 0)
            operandPart[orig.lops[i].input] = rank[assign[nodeOf[i]]];
    }

    auto addInputTo = [&](int partRank, const dfg::InputBinding &ib,
                          bool retarget, StreamId sid) {
        auto &u = g.unit(units[partRank]);
        dfg::InputBinding nb = ib;
        nb.stream = sid;
        u.inputs.push_back(nb);
        if (retarget)
            g.stream(sid).dst = units[partRank];
        return static_cast<int>(u.inputs.size() - 1);
    };

    // Replicate/move original inputs.
    for (size_t bi = 0; bi < orig.inputs.size(); ++bi) {
        const auto &ib = orig.inputs[bi];
        if (ib.role == InputRole::Operand) {
            int pr = operandPart[bi];
            SARA_ASSERT(pr >= 0, "operand input without StreamIn node");
            int nbi = addInputTo(pr, ib, true, ib.stream);
            bindingMap[pr][static_cast<int>(bi)] = nbi;
        } else {
            // Control input: original stream to rank 0, clones to rest.
            int nbi = addInputTo(0, ib, true, ib.stream);
            bindingMap[0][static_cast<int>(bi)] = nbi;
            const auto &os = g.stream(ib.stream);
            for (int r = 1; r < parts; ++r) {
                StreamId sid = g.addStream(os.kind, os.src, units[r],
                                           os.name + "_p" +
                                               std::to_string(r));
                auto &s = g.stream(sid);
                s.pushLevel = os.pushLevel;
                s.popLevel = os.popLevel;
                s.vec = os.vec;
                s.depth = os.depth;
                s.initTokens = os.initTokens;
                // Source replicates its output binding.
                for (const auto &ob : g.unit(os.src).outputs) {
                    if (ob.stream == os.id) {
                        g.unit(os.src).outputs.push_back(
                            {sid, ob.level, ob.lop});
                        break;
                    }
                }
                int rbi = static_cast<int>(
                    g.unit(units[r]).inputs.size());
                g.unit(units[r]).inputs.push_back(
                    {sid, ib.role, ib.level, ib.expectTrue});
                bindingMap[r][static_cast<int>(bi)] = rbi;
            }
        }
    }

    // Fix counter bound binding indices per unit.
    for (int r = 0; r < parts; ++r) {
        auto &u = g.unit(units[r]);
        for (auto &c : u.counters) {
            auto remap = [&](int &slot) {
                if (slot < 0)
                    return;
                auto it = bindingMap[r].find(slot);
                SARA_ASSERT(it != bindingMap[r].end(),
                            "lost counter bound binding");
                slot = it->second;
            };
            remap(c.minInput);
            remap(c.stepInput);
            remap(c.maxInput);
            remap(c.whileCondInput);
        }
    }

    // Forwarding streams for cross-partition values.
    // forwarded[(origLop, partRank)] -> local index.
    std::map<std::pair<int, int>, int> forwarded;
    auto valueIn = [&](int origLop, int partRank) -> int {
        auto &[locRank, locIdx] = newLoc[origLop];
        if (locRank == partRank)
            return locIdx;
        const auto &src = orig.lops[origLop];
        // Rematerialize free sources locally.
        if (!src.isStreamIn() && (src.kind == ir::OpKind::Const ||
                                  src.kind == ir::OpKind::Iter)) {
            auto key = std::make_pair(origLop, partRank);
            auto it = forwarded.find(key);
            if (it != forwarded.end())
                return it->second;
            auto &u = g.unit(units[partRank]);
            dfg::LOp copy = src;
            copy.a = copy.b = copy.c = -1;
            u.lops.push_back(copy);
            int idx = static_cast<int>(u.lops.size() - 1);
            forwarded[key] = idx;
            return idx;
        }
        SARA_ASSERT(locRank >= 0, "cross-partition use before def");
        auto key = std::make_pair(origLop, partRank);
        auto it = forwarded.find(key);
        if (it != forwarded.end())
            return it->second;
        // Per-firing forwarding stream.
        StreamId sid = g.addStream(
            StreamKind::Data, units[locRank], units[partRank],
            orig.name + "_fw" + std::to_string(origLop) + "_" +
                std::to_string(partRank));
        auto &s = g.stream(sid);
        s.pushLevel = firing;
        s.popLevel = firing;
        s.vec = vec;
        s.depth = opt.spec.pcu.fifoDepth;
        g.unit(units[locRank]).outputs.push_back({sid, firing, locIdx});
        auto &du = g.unit(units[partRank]);
        du.inputs.push_back(
            {sid, InputRole::Operand, firing, true});
        dfg::LOp lop;
        lop.kind = ir::OpKind::Const;
        lop.input = static_cast<int>(du.inputs.size() - 1);
        du.lops.push_back(lop);
        int idx = static_cast<int>(du.lops.size() - 1);
        forwarded[key] = idx;
        return idx;
    };

    // Emit lops partition by partition, in original order.
    for (int r = 0; r < parts; ++r) {
        for (int i = 0; i < n; ++i) {
            if (nodeOf[i] < 0 || rank[assign[nodeOf[i]]] != r)
                continue;
            const auto &src = orig.lops[i];
            auto &u = g.unit(units[r]);
            dfg::LOp lop = src;
            if (src.isStreamIn()) {
                auto it = bindingMap[r].find(src.input);
                SARA_ASSERT(it != bindingMap[r].end(),
                            "StreamIn binding not mapped");
                lop.input = it->second;
            } else {
                if (src.a >= 0)
                    lop.a = valueIn(src.a, r);
                if (src.b >= 0)
                    lop.b = valueIn(src.b, r);
                if (src.c >= 0)
                    lop.c = valueIn(src.c, r);
            }
            u.lops.push_back(lop);
            newLoc[i] = {r, static_cast<int>(u.lops.size() - 1)};
        }
    }
    // Free lops (Const/Iter not in the node graph) are materialized on
    // demand by valueIn; resolve remaining references lazily now.
    for (int i = 0; i < n; ++i) {
        if (newLoc[i].first >= 0)
            continue;
        // Unassigned free lop: only legal if no one references it
        // anymore (operands were rematerialized); outputs may still
        // reference it though.
    }

    // Re-home original outputs to the partition holding the source.
    for (const auto &ob : orig.outputs) {
        int srcLop = ob.lop;
        int r = 0;
        int idx = -1;
        if (srcLop >= 0) {
            if (newLoc[srcLop].first < 0) {
                // Free lop never emitted: materialize in rank 0.
                idx = valueIn(srcLop, 0);
                r = 0;
            } else {
                r = newLoc[srcLop].first;
                idx = newLoc[srcLop].second;
            }
        }
        auto &u = g.unit(units[r]);
        u.outputs.push_back({ob.stream, ob.level, idx});
        g.stream(ob.stream).src = units[r];
    }
}

} // namespace

PartitionReport
partitionCompute(dfg::Vudfg &graph, const CompilerOptions &options)
{
    PartitionReport report;
    const auto &pcu = options.spec.pcu;
    size_t unitCount = graph.numUnits(); // New units are already legal.
    for (size_t ui = 0; ui < unitCount; ++ui) {
        VuId uid{ui};
        if (graph.unit(uid).kind != VuKind::Compute)
            continue;

        // Build the abstract problem: nodes = countable + StreamIn
        // lops (Const/Iter are rematerialized freely).
        const auto &u = graph.unit(uid);
        int countOps = 0;
        for (const auto &lop : u.lops)
            if (countable(lop))
                ++countOps;
        if (countOps <= pcu.stages)
            continue;

        std::vector<int> nodeOf(u.lops.size(), -1);
        std::vector<int> lopOfNode;
        for (size_t i = 0; i < u.lops.size(); ++i) {
            const auto &lop = u.lops[i];
            if (countable(lop) || lop.isStreamIn()) {
                nodeOf[i] = static_cast<int>(lopOfNode.size());
                lopOfNode.push_back(static_cast<int>(i));
            }
        }
        PartitionProblem prob;
        prob.n = static_cast<int>(lopOfNode.size());
        prob.maxOps = pcu.stages;
        prob.maxIn = pcu.maxIn;
        prob.maxOut = pcu.maxOut;
        prob.alpha = 1.0 / std::min(pcu.maxIn, pcu.maxOut);
        prob.opCost.resize(prob.n);
        for (int i = 0; i < prob.n; ++i)
            prob.opCost[i] =
                countable(u.lops[lopOfNode[i]]) ? 1 : 0;
        for (size_t i = 0; i < u.lops.size(); ++i) {
            if (nodeOf[i] < 0)
                continue;
            const auto &lop = u.lops[i];
            for (int operand : {lop.a, lop.b, lop.c})
                if (operand >= 0 && nodeOf[operand] >= 0)
                    prob.edges.push_back(
                        {nodeOf[operand], nodeOf[i]});
        }

        PartitionSolution sol;
        if (options.partitioner == PartitionAlgo::Solver) {
            PartitionSolution warm =
                partitionTraversal(prob, PartitionAlgo::DfsFwd);
            int totalOps = 0;
            for (int c : prob.opCost)
                totalOps += c;
            solver::AnnealOptions ao;
            ao.iterations = options.solverIterations;
            ao.seed = options.solverSeed;
            ao.lowerBound = (totalOps + prob.maxOps - 1) / prob.maxOps;
            PartitionEvaluator cost(prob);
            auto res = solver::anneal(
                prob.n, warm.assign,
                [&](const std::vector<int> &a, bool *f) { return cost(a, f); },
                ao);
            sol.assign = res.feasible ? res.assign : warm.assign;
            sol.numPartitions = 0;
            for (int a : sol.assign)
                sol.numPartitions = std::max(sol.numPartitions, a + 1);
            sol.cost = res.feasible ? res.cost : warm.cost;
            sol.feasible = res.feasible || warm.feasible;
        } else {
            sol = partitionTraversal(prob, options.partitioner);
        }
        SARA_ASSERT(sol.feasible, "infeasible partitioning for unit ",
                    graph.unit(uid).name);

        rewriteUnit(graph, uid, nodeOf, lopOfNode, sol.assign,
                    sol.numPartitions, options);
        ++report.unitsPartitioned;
        report.partitionsCreated += sol.numPartitions - 1;
    }
    graph.validate();
    return report;
}

} // namespace sara::compiler
