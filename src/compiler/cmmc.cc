#include "compiler/cmmc.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "support/digraph.h"
#include "support/logging.h"

namespace sara::compiler {

using namespace ir;

bool
DepGraph::hasEdge(size_t src, size_t dst, bool backward) const
{
    for (const auto &e : edges)
        if (e.src == src && e.dst == dst && e.backward == backward)
            return true;
    return false;
}

DepGraph
buildDepGraph(const Program &p, const TensorAccess &ta,
              const DepGraphOptions &options)
{
    const auto &acc = ta.accessors;
    DepGraph g;
    g.n = acc.size();

    auto shardOf = [&](size_t i) -> int {
        if (options.staticShard.empty())
            return 0;
        return options.staticShard[i];
    };
    auto sameShardPossible = [&](size_t i, size_t j) {
        int si = shardOf(i), sj = shardOf(j);
        if (si < 0 || sj < 0)
            return true; // A dynamic port touches every shard.
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
                // Vanilla PC: every consecutive accessor pair is
                // ordered via the hierarchical FSM.
                if (j == i + 1) {
                    g.edges.push_back({i, j, false, CtrlId{}, 1});
                    CtrlId loop = innermostCommonLoop(p, a.block, b.block);
                    if (loop.valid())
                        g.edges.push_back({j, i, true, loop, 1});
                }
                continue;
            }
            if (!conflict && !rar)
                continue;
            bool disjoint = conflict && !rar && !mayAlias(p, a, b);
            if (disjoint)
                continue;
            // Forward dependency unless the two accesses are mutually
            // exclusive for the same iteration (different clauses of a
            // common branch, Fig. 5b).
            if (!exclusiveClauses(p, a.block, b.block))
                g.edges.push_back({i, j, false, CtrlId{}, 1});
            // Backward LCD on the innermost common loop: accessor i in
            // the next iteration must wait for accessor j in this one.
            // RAR LCDs are a port-ordering constraint and apply
            // regardless of addresses; data LCDs are pruned when the
            // addresses provably never collide across iterations.
            CtrlId loop = innermostCommonLoop(p, a.block, b.block);
            if (loop.valid() &&
                (rar || lcdMayAlias(p, a, b, loop)))
                g.edges.push_back({j, i, true, loop, 1});
        }
    }
    return g;
}

ReduceStats
reduceDepGraph(DepGraph &g)
{
    ReduceStats stats;

    // --- Pass 1: transitive reduction of the forward DAG. ---
    Digraph fwd(g.n);
    for (const auto &e : g.edges)
        if (!e.backward)
            fwd.addEdge(e.src, e.dst);
    size_t before = fwd.numEdges();
    const Reachability reach = fwd.transitiveReduction();
    stats.forwardRemoved = static_cast<int>(before - fwd.numEdges());
    // Keep the surviving edges in their original order; of several
    // equal edges the first one wins.
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

    // --- Pass 2: backward-edge pruning. A backward edge (b -> a,
    // loop L, credit X) is subsumed when an alternative path from b to
    // a uses forward edges plus exactly one other backward edge with
    // the same loop and credit (paper §III-A3b). The reduction kept
    // the forward DAG's reachability, so pass 1's closure answers the
    // forward-path queries. ---
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

} // namespace sara::compiler
