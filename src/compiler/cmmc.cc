#include "compiler/cmmc.h"

#include <algorithm>
#include <map>
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

namespace {

/**
 * The control queries of a pair of blocks, answered once per block pair
 * from each block's ancestry, which is built once: exclusiveClauses,
 * and innermostCommonLoop with the loops enclosing it (which
 * lcdMayAlias also reads).
 */
class BlockPairs
{
  public:
    struct Answer
    {
        bool exclusive = false;
        CtrlId loop;
        /** Program::enclosingLoops(loop), when `loop` is valid. */
        const std::vector<CtrlId> *enclosing = nullptr;
    };

    BlockPairs(const Program &p, const std::vector<Accessor> &acc) : p_(p)
    {
        for (const auto &a : acc)
            blocks_.push_back(a.block);
        std::sort(blocks_.begin(), blocks_.end());
        blocks_.erase(std::unique(blocks_.begin(), blocks_.end()),
                      blocks_.end());
        for (const auto &a : acc)
            slot_.push_back(static_cast<size_t>(
                std::lower_bound(blocks_.begin(), blocks_.end(), a.block) -
                blocks_.begin()));
        for (CtrlId b : blocks_) {
            chains_.push_back(p.ancestry(b));
            branches_.push_back(branchAncestors(p, b));
        }
        // Four bytes per block pair: less than the edges that the
        // pairs can emit.
        memo_.assign(blocks_.size() * blocks_.size(), -1);
    }

    /** The answer for accessors i and j (in that order). */
    Answer
    of(size_t i, size_t j)
    {
        int32_t &m = memo_[slot_[i] * blocks_.size() + slot_[j]];
        if (m < 0) {
            size_t a = slot_[i], b = slot_[j];
            Answer ans;
            ans.exclusive = exclusiveClauses(branches_[a], branches_[b]);
            ans.loop = innermostCommonLoop(p_, chains_[a], chains_[b]);
            if (ans.loop.valid())
                ans.enclosing = &enclosingOf(ans.loop);
            m = static_cast<int32_t>(answers_.size());
            answers_.push_back(ans);
        }
        return answers_[static_cast<size_t>(m)];
    }

  private:
    const std::vector<CtrlId> &
    enclosingOf(CtrlId loop)
    {
        auto [it, fresh] = enclosing_.try_emplace(loop);
        if (fresh)
            it->second = p_.enclosingLoops(loop);
        return it->second;
    }

    const Program &p_;
    std::vector<CtrlId> blocks_; ///< Distinct blocks, sorted.
    std::vector<size_t> slot_;   ///< Accessor -> index into blocks_.
    /** Per block: Program::ancestry and branchAncestors. */
    std::vector<std::vector<CtrlId>> chains_;
    std::vector<std::vector<BranchAncestor>> branches_;
    std::vector<int32_t> memo_; ///< Block pair -> answers_ index.
    std::vector<Answer> answers_;
    std::map<CtrlId, std::vector<CtrlId>> enclosing_;
};

} // namespace

DepGraph
buildDepGraph(const Program &p, const TensorAccess &ta,
              const DepGraphOptions &options)
{
    const auto &acc = ta.accessors;
    DepGraph g;
    g.n = acc.size();
    BlockPairs pairs(p, acc);

    if (options.fullSerialize) {
        // Vanilla PC: every consecutive accessor pair is ordered via
        // the hierarchical FSM.
        for (size_t j = 1; j < acc.size(); ++j) {
            size_t i = j - 1;
            g.edges.push_back({i, j, false, CtrlId{}, 1});
            CtrlId loop = pairs.of(i, j).loop;
            if (loop.valid())
                g.edges.push_back({j, i, true, loop, 1});
        }
        return g;
    }

    std::vector<AddressFacts> facts;
    facts.reserve(acc.size());
    for (const auto &a : acc)
        facts.push_back(addressFacts(p, a));

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
            if (!conflict && !rar)
                continue;
            bool disjoint =
                conflict && !rar && !mayAlias(facts[i], facts[j]);
            if (disjoint)
                continue;
            const BlockPairs::Answer ctl = pairs.of(i, j);
            // Forward dependency unless the two accesses are mutually
            // exclusive for the same iteration (different clauses of a
            // common branch, Fig. 5b).
            if (!ctl.exclusive)
                g.edges.push_back({i, j, false, CtrlId{}, 1});
            // Backward LCD on the innermost common loop: accessor i in
            // the next iteration must wait for accessor j in this one.
            // RAR LCDs are a port-ordering constraint and apply
            // regardless of addresses; data LCDs are pruned when the
            // addresses provably never collide across iterations.
            if (ctl.loop.valid() &&
                (rar ||
                 lcdMayAlias(facts[i], facts[j], ctl.loop, *ctl.enclosing)))
                g.edges.push_back({j, i, true, ctl.loop, 1});
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

    // Candidates share the edge's loop and credit; each bucket lists
    // its edges in edge order, so the first match is the all-pairs
    // scan's.
    std::map<std::pair<CtrlId, int>, std::vector<size_t>> byLoopCredit;
    for (size_t i = 0; i < g.edges.size(); ++i)
        if (g.edges[i].backward)
            byLoopCredit[{g.edges[i].loop, g.edges[i].credit}].push_back(i);
    for (size_t i = 0; i < g.edges.size(); ++i) {
        DepEdge &e = g.edges[i];
        if (!e.backward || e.pruned)
            continue;
        for (size_t j : byLoopCredit[{e.loop, e.credit}]) {
            const DepEdge &alt = g.edges[j];
            if (j == i || alt.pruned)
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
