#ifndef SARA_GRAPH_LOWER_H
#define SARA_GRAPH_LOWER_H

/**
 * @file
 * Lowering from a validated LayerGraph to SARA IR. Each layer becomes
 * a tiled loop nest built with ir::Builder, parallelized with the
 * standard §IV-A split (innermost vectorization up to the lane width,
 * remaining factor as outer spatial unroll — workloads/common.h), with
 * a per-layer par choice: node hint > global default, overridable per
 * sweep point through LowerOptions::parOverride.
 *
 * Data movement follows the hand-built workloads: graph inputs and
 * generated weights get DRAM tensors plus bulk staging loops into
 * on-chip buffers; activations between layers live in on-chip buffers
 * written by the producer nest and read by the consumer nest — the
 * compiler FIFO-lowers or multibuffers them into inter-layer streams;
 * declared graph outputs get DRAM store loops.
 */

#include <map>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "workloads/common.h"
#include "workloads/workload.h"

namespace sara::graph {

struct LowerOptions
{
    /** Default par factor for layers without a hint. */
    int par = 16;
    /** Problem-size multiplier for every graph input: the leading
     *  (batch / row) dimension of a rank-1 or rank-2 input, the height
     *  of a rank-3 [C, H, W] input (its channels must keep matching
     *  the conv weights). */
    int scale = 1;
    /** Seed for the generated weights and input data. */
    uint64_t seed = 42;
    /** Per-layer par override (sweeps); wins over the node hint. */
    std::map<std::string, int> parOverride;
};

/** How one layer was lowered (reported by `sarac --graph` and the
 *  bench_graph per-layer sweep). */
struct LoweredLayer
{
    std::string name;
    std::string kind;
    Shape in;   ///< First input's shape (empty for graph inputs).
    Shape out;
    int par = 1;
    workloads::ParSplit split;
};

struct LowerResult
{
    workloads::Workload workload;
    std::vector<LoweredLayer> layers; ///< Compute nodes, topo order.
};

/**
 * Lower `g` into a runnable workload. The graph is re-validated after
 * applying scale/par overrides, so callers can hand over graphs built
 * at different option sets. fatal()s with source-located diagnostics
 * on invalid graphs.
 */
LowerResult lowerGraph(const LayerGraph &g, const LowerOptions &opt);

} // namespace sara::graph

#endif // SARA_GRAPH_LOWER_H
