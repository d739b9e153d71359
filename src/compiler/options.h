#ifndef SARA_COMPILER_OPTIONS_H
#define SARA_COMPILER_OPTIONS_H

/**
 * @file
 * Compiler configuration: the optimization toggles evaluated in
 * Fig. 10, the partitioning algorithm choices of Fig. 11, and the
 * control-scheme switch that implements the vanilla-Plasticine-
 * compiler baseline of Table V.
 */

#include <cstdint>

#include "arch/plasticine.h"

namespace sara::compiler {

/** Graph-partitioning algorithm (paper §III-B1). */
enum class PartitionAlgo : uint8_t {
    BfsFwd,  ///< Breadth-first, forward dataflow order.
    BfsBwd,  ///< Breadth-first, backward order.
    DfsFwd,  ///< Depth-first, forward order (re-sorted per partition).
    DfsBwd,  ///< Depth-first, backward order.
    Solver,  ///< MIP formulation (Table III), warm-started by DfsFwd.
};

const char *partitionAlgoName(PartitionAlgo algo);

/** Control paradigm for hierarchical pipelining. */
enum class ControlScheme : uint8_t {
    Cmmc,            ///< SARA: peer-to-peer tokens (paper §III-A).
    HierarchicalFsm, ///< Vanilla PC: per-loop controllers with
                     ///< enable/done handshakes routed through a hub.
};

/** All compiler knobs. */
struct CompilerOptions
{
    arch::PlasticineSpec spec = arch::PlasticineSpec::paper();
    ControlScheme control = ControlScheme::Cmmc;
    PartitionAlgo partitioner = PartitionAlgo::DfsFwd;

    // --- Optimizations (Fig. 10) ---
    /** msr: lower single-producer/single-consumer lock-step
     *  scratchpads to direct streams (input FIFOs). */
    bool enableMsr = true;
    /** rtelm: eliminate copy hyperblocks by wiring the source memory's
     *  read engine straight to the destination's write engine. */
    bool enableRtelm = true;
    /** retime: deepen FIFOs on imbalanced reconvergent paths
     *  (eliminates pipeline stalls at a resource cost). */
    bool enableRetime = true;
    /** retime-m: implement retiming buffers in PMUs (cheaper per
     *  element than chaining PCU FIFOs). */
    bool enableRetimeM = true;
    /** xbar-elm: duplicate affine address computation into the
     *  memory-side request engine instead of streaming addresses. */
    bool enableXbarElm = true;
    /** Credit relaxation: multibuffer producer/consumer tensors and
     *  raise the backward credit (paper §III-A1 "1+ initial credit"). */
    bool enableMultibuffer = true;
    /** Control-reduction analysis: transitive reduction + backward
     *  edge pruning (paper §III-A3). */
    bool enableControlReduction = true;
    /** Duplicate small read-shared buffers per consumer so PMU
     *  single-read-stream serialization does not defeat unrolling. */
    bool enableDuplication = true;

    int multibufferDepth = 4;

    // --- Solver ---
    uint64_t solverIterations = 200000; ///< LNS iteration budget.
    uint64_t solverSeed = 1;

    // --- PnR ---
    uint64_t pnrSeed = 1;
    int pnrIterations = 20000;
};

} // namespace sara::compiler

#endif // SARA_COMPILER_OPTIONS_H
