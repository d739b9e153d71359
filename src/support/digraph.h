#ifndef SARA_SUPPORT_DIGRAPH_H
#define SARA_SUPPORT_DIGRAPH_H

/**
 * @file
 * A small generic directed-graph utility used throughout the compiler:
 * dependency graphs (control-reduction analysis), dataflow graphs
 * (partitioning), and the VUDFG all build on it.
 *
 * Nodes are dense integer ids [0, n). Edges are stored as adjacency
 * lists in both directions.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace sara {

/**
 * Reachability closure of a DAG, one bitset row per node:
 * reaches(src, dst) is true iff a path of >= 1 edge leads src -> dst.
 */
class Reachability
{
  public:
    bool
    reaches(size_t src, size_t dst) const
    {
        return (bits_[src * words_ + dst / 64] >> (dst % 64)) & 1;
    }

  private:
    friend class Digraph;
    size_t words_ = 0;
    std::vector<uint64_t> bits_;
};

/** Dense-id directed graph with forward and reverse adjacency. */
class Digraph
{
  public:
    Digraph() = default;
    explicit Digraph(size_t n) : succs_(n), preds_(n) {}

    /** Number of nodes. */
    size_t size() const { return succs_.size(); }

    /** Append a new node; returns its id. */
    size_t
    addNode()
    {
        succs_.emplace_back();
        preds_.emplace_back();
        return succs_.size() - 1;
    }

    /**
     * Add edge src -> dst. Duplicate edges are permitted unless
     * dedup is requested.
     */
    void addEdge(size_t src, size_t dst, bool dedup = true);

    /** Remove a single edge src -> dst if present. */
    void removeEdge(size_t src, size_t dst);

    bool hasEdge(size_t src, size_t dst) const;

    const std::vector<size_t> &succs(size_t n) const { return succs_[n]; }
    const std::vector<size_t> &preds(size_t n) const { return preds_[n]; }

    size_t numEdges() const;

    /**
     * Topological order of all nodes; std::nullopt if the graph has a
     * cycle. Ties are broken by node id for determinism.
     */
    std::optional<std::vector<size_t>> topoSort() const;

    /** True if the graph contains a directed cycle. */
    bool hasCycle() const { return !topoSort().has_value(); }

    /** Set of nodes reachable from src (including src). */
    std::vector<bool> reachableFrom(size_t src) const;

    /**
     * True if dst is reachable from src along a path of >= 1 edge,
     * optionally ignoring the direct edge src -> dst.
     */
    bool reachable(size_t src, size_t dst, bool skip_direct = false) const;

    /**
     * Transitive reduction for a DAG: removes every edge (u, v) (all
     * copies of it) for which an alternative path u -> ... -> v of
     * length >= 2 exists. Kept edges stay in adjacency order. Preserves
     * reachability (and hence any ordering the graph encodes), and
     * returns it: the closure costs O(E * n / 64) and is a by-product.
     * Panics if the graph is cyclic.
     */
    Reachability transitiveReduction();

    /** Strongly connected components; returns component id per node. */
    std::vector<size_t> scc() const;

  private:
    std::vector<std::vector<size_t>> succs_;
    std::vector<std::vector<size_t>> preds_;
};

} // namespace sara

#endif // SARA_SUPPORT_DIGRAPH_H
