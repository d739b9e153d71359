#include "support/digraph.h"

#include <algorithm>
#include <queue>

#include "support/logging.h"

namespace sara {

void
Digraph::addEdge(size_t src, size_t dst, bool dedup)
{
    SARA_ASSERT(src < size() && dst < size(),
                "edge (", src, ",", dst, ") out of range ", size());
    if (dedup && hasEdge(src, dst))
        return;
    succs_[src].push_back(dst);
    preds_[dst].push_back(src);
}

void
Digraph::removeEdge(size_t src, size_t dst)
{
    auto &ss = succs_[src];
    auto it = std::find(ss.begin(), ss.end(), dst);
    if (it == ss.end())
        return;
    ss.erase(it);
    auto &ps = preds_[dst];
    ps.erase(std::find(ps.begin(), ps.end(), src));
}

bool
Digraph::hasEdge(size_t src, size_t dst) const
{
    const auto &ss = succs_[src];
    return std::find(ss.begin(), ss.end(), dst) != ss.end();
}

size_t
Digraph::numEdges() const
{
    size_t total = 0;
    for (const auto &ss : succs_)
        total += ss.size();
    return total;
}

std::optional<std::vector<size_t>>
Digraph::topoSort() const
{
    std::vector<size_t> indeg(size(), 0);
    for (size_t n = 0; n < size(); ++n)
        for (size_t s : succs_[n])
            ++indeg[s];

    // Min-heap on node id for a deterministic order.
    std::priority_queue<size_t, std::vector<size_t>, std::greater<>> ready;
    for (size_t n = 0; n < size(); ++n)
        if (indeg[n] == 0)
            ready.push(n);

    std::vector<size_t> order;
    order.reserve(size());
    while (!ready.empty()) {
        size_t n = ready.top();
        ready.pop();
        order.push_back(n);
        for (size_t s : succs_[n])
            if (--indeg[s] == 0)
                ready.push(s);
    }
    if (order.size() != size())
        return std::nullopt;
    return order;
}

std::vector<bool>
Digraph::reachableFrom(size_t src) const
{
    std::vector<bool> seen(size(), false);
    std::vector<size_t> stack{src};
    seen[src] = true;
    while (!stack.empty()) {
        size_t n = stack.back();
        stack.pop_back();
        for (size_t s : succs_[n]) {
            if (!seen[s]) {
                seen[s] = true;
                stack.push_back(s);
            }
        }
    }
    return seen;
}

bool
Digraph::reachable(size_t src, size_t dst, bool skip_direct) const
{
    std::vector<bool> seen(size(), false);
    std::vector<size_t> stack;
    for (size_t s : succs_[src]) {
        if (skip_direct && s == dst)
            continue;
        if (!seen[s]) {
            seen[s] = true;
            stack.push_back(s);
        }
    }
    while (!stack.empty()) {
        size_t n = stack.back();
        stack.pop_back();
        if (n == dst)
            return true;
        for (size_t s : succs_[n]) {
            if (!seen[s]) {
                seen[s] = true;
                stack.push_back(s);
            }
        }
    }
    return false;
}

Reachability
Digraph::transitiveReduction()
{
    auto order = topoSort();
    if (!order)
        panic("transitiveReduction requires a DAG");

    const size_t n = size();
    std::vector<size_t> pos(n);
    for (size_t i = 0; i < n; ++i)
        pos[(*order)[i]] = i;
    Reachability reach;
    reach.words_ = (n + 63) / 64;
    reach.bits_.assign(n * reach.words_, 0);

    // Walk the nodes in reverse topological order, so every successor's
    // closure row is complete before a predecessor reads it. Visit u's
    // distinct successors nearest first (ascending topological
    // position): a successor that an earlier one already reaches has a
    // path of length >= 2, so its direct edge is redundant; any path
    // u -> w -> ... -> v has w before v, so none is missed.
    std::vector<size_t> outs;
    std::vector<size_t> droppedBy(n, SIZE_MAX); // v -> u dropping (u, v).
    for (auto it = order->rbegin(); it != order->rend(); ++it) {
        const size_t u = *it;
        uint64_t *row = &reach.bits_[u * reach.words_];
        outs = succs_[u];
        std::sort(outs.begin(), outs.end(),
                  [&](size_t a, size_t b) { return pos[a] < pos[b]; });
        outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
        bool dropped = false;
        for (size_t v : outs) {
            if ((row[v / 64] >> (v % 64)) & 1) {
                droppedBy[v] = u;
                dropped = true;
                continue;
            }
            row[v / 64] |= uint64_t{1} << (v % 64);
            const uint64_t *vrow = &reach.bits_[v * reach.words_];
            for (size_t w = 0; w < reach.words_; ++w)
                row[w] |= vrow[w];
        }
        if (!dropped)
            continue;
        std::erase_if(succs_[u],
                      [&](size_t v) { return droppedBy[v] == u; });
        for (size_t v : outs)
            if (droppedBy[v] == u)
                std::erase(preds_[v], u);
    }
    return reach;
}

std::vector<size_t>
Digraph::scc() const
{
    // Iterative Tarjan.
    const size_t n = size();
    std::vector<size_t> comp(n, SIZE_MAX), low(n, 0), disc(n, SIZE_MAX);
    std::vector<bool> onStack(n, false);
    std::vector<size_t> stack;
    size_t timer = 0, ncomp = 0;

    struct Frame { size_t node; size_t child; };
    for (size_t root = 0; root < n; ++root) {
        if (disc[root] != SIZE_MAX)
            continue;
        std::vector<Frame> frames{{root, 0}};
        disc[root] = low[root] = timer++;
        stack.push_back(root);
        onStack[root] = true;
        while (!frames.empty()) {
            auto &[node, child] = frames.back();
            if (child < succs_[node].size()) {
                size_t next = succs_[node][child++];
                if (disc[next] == SIZE_MAX) {
                    disc[next] = low[next] = timer++;
                    stack.push_back(next);
                    onStack[next] = true;
                    frames.push_back({next, 0});
                } else if (onStack[next]) {
                    low[node] = std::min(low[node], disc[next]);
                }
            } else {
                if (low[node] == disc[node]) {
                    while (true) {
                        size_t w = stack.back();
                        stack.pop_back();
                        onStack[w] = false;
                        comp[w] = ncomp;
                        if (w == node)
                            break;
                    }
                    ++ncomp;
                }
                size_t done = node;
                frames.pop_back();
                if (!frames.empty()) {
                    size_t parent = frames.back().node;
                    low[parent] = std::min(low[parent], low[done]);
                }
            }
        }
    }
    return comp;
}

} // namespace sara
