#ifndef SARA_COMPILER_PARTITION_H
#define SARA_COMPILER_PARTITION_H

/**
 * @file
 * Compute partitioning (paper §III-B1, Tables I-III): splitting a
 * VCU's local dataflow into sub-VCUs that satisfy the PCU constraints
 * (ops per unit, input/output arity with broadcast counting, no
 * cross-partition cycles), minimizing allocated partitions plus the
 * retiming cost of delay imbalance.
 *
 * The abstract problem (nodes/edges/costs) is exposed so the traversal
 * algorithms and the MIP-style solver can be compared head-to-head
 * (Fig. 11), independent of graph rewriting.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include "compiler/options.h"
#include "dfg/vudfg.h"

namespace sara::compiler {

/** Abstract partitioning instance (one VCU's dataflow DAG). */
struct PartitionProblem
{
    int n = 0;
    std::vector<std::pair<int, int>> edges; ///< src -> dst (a DAG).
    std::vector<int> opCost; ///< Countable ops per node (0 = free).
    int maxOps = 6;
    int maxIn = 6;
    int maxOut = 6;
    double alpha = 1.0 / 6; ///< Retiming cost multiplier (Table III).
    /** Optional second capacity (e.g. counter chains for merging). */
    std::vector<int> auxCost;
    int maxAux = 0; ///< 0 disables the aux constraint.
};

/** Assignment of nodes to partitions. */
struct PartitionSolution
{
    std::vector<int> assign;
    int numPartitions = 0;
    double cost = 0.0;
    bool feasible = true;
};

/** Cost of a solution (#partitions + alpha * retiming gaps);
 *  +inf-ish when constraints are violated. */
double partitionCost(const PartitionProblem &prob,
                     const std::vector<int> &assign, bool *feasible);

/**
 * partitionCost for one problem, evaluated again and again without
 * allocating: the evaluator owns the problem's node adjacency and the
 * per-partition scratch, which every call reuses (the solver calls it
 * once per annealing move). Returns exactly what partitionCost does.
 */
class PartitionEvaluator
{
  public:
    explicit PartitionEvaluator(const PartitionProblem &prob);

    double operator()(const std::vector<int> &assign, bool *feasible);

  private:
    const PartitionProblem &prob_;
    std::vector<int> succStart_, succ_; ///< Node successors (CSR).
    // Per-partition scratch.
    std::vector<int> ops_, aux_, inArity_, outArity_;
    std::vector<uint64_t> mark_; ///< Last source node stamp seen.
    uint64_t stamp_ = 0;
    std::vector<int> edgeStart_, edgeDst_, cursor_; ///< Partition CSR.
    std::vector<int> indeg_, depth_, fifo_;
};

/** Traversal-based algorithm: topological chunking in BFS/DFS order,
 *  forward or backward (paper §III-B1c). */
PartitionSolution partitionTraversal(const PartitionProblem &prob,
                                     PartitionAlgo algo);

/** Result of rewriting the whole graph. */
struct PartitionReport
{
    int unitsPartitioned = 0;
    int partitionsCreated = 0; ///< Extra units added.
};

/** Partition every oversized Compute unit in `graph` and rewrite it
 *  (new sub-units + per-firing forwarding streams + replicated
 *  control inputs). */
PartitionReport partitionCompute(dfg::Vudfg &graph,
                                 const CompilerOptions &options);

} // namespace sara::compiler

#endif // SARA_COMPILER_PARTITION_H
