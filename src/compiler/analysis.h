#ifndef SARA_COMPILER_ANALYSIS_H
#define SARA_COMPILER_ANALYSIS_H

/**
 * @file
 * Shared compiler analyses:
 *  - accessor collection (program-ordered memory ops per tensor),
 *  - address disjointness (span + modular-lattice tests) used to prune
 *    false dependencies between unrolled accessors,
 *  - control-structure queries (LCA-derived stream rates, branch
 *    ancestry) that define CMMC push/pop levels.
 */

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "ir/affine.h"
#include "ir/program.h"

namespace sara::compiler {

/** One memory access site. */
struct Accessor
{
    ir::OpId op;
    ir::CtrlId block;
    ir::TensorId tensor;
    bool isWrite = false;
    /** Affine address (nullopt: indirect/gather). */
    std::optional<ir::AffineForm> form;
    /** Dense program-order index across all accessors of the tensor. */
    size_t index = 0;
};

/** All accessors of one tensor, in program order. */
struct TensorAccess
{
    ir::TensorId tensor;
    std::vector<Accessor> accessors;
};

/** Collect accessors for every tensor (indexed by tensor id). */
std::vector<TensorAccess> collectAccessors(const ir::Program &p);

/** Value lattice of an affine form: values lie in residue + gcd * Z. */
struct Lattice
{
    bool valid = false;
    int64_t gcd = 0; ///< 0: single value (residue only).
    int64_t residue = 0;
};

/**
 * What the alias tests read of one accessor's address, computed once
 * per accessor so that testing a pair allocates nothing.
 */
struct AddressFacts
{
    bool affine = false; ///< False: indirect/gather (aliases anything).
    int64_t base = 0;
    /** Nonzero coefficients, by loop. */
    std::vector<std::pair<ir::CtrlId, int64_t>> coeffs;
    /** Whole-iteration-space address range. */
    std::optional<std::pair<int64_t, int64_t>> span;
    Lattice lattice;
    /** The address is injective over the whole iteration space
     *  (constant-bound loops whose strides dominate the reach of the
     *  finer terms: mixed-radix dominance). */
    bool injective = false;

    /** Coefficient for a loop (0 when the address ignores it). */
    int64_t coeff(ir::CtrlId loop) const;
};

AddressFacts addressFacts(const ir::Program &p, const Accessor &a);

/**
 * Conservative may-alias: false only when the two accessors' address
 * sets are provably disjoint over their whole iteration spaces
 * (disjoint spans, or non-overlapping modular lattices).
 */
bool mayAlias(const AddressFacts &a, const AddressFacts &b);
bool mayAlias(const ir::Program &p, const Accessor &a, const Accessor &b);

/**
 * May-alias across *different iterations* of a loop (the test for
 * loop-carried dependencies). Identical affine forms whose coefficient
 * on the loop strictly dominates the reachable span of the deeper
 * terms can only collide within the same iteration — e.g. the classic
 * c[o] read-modify-write recurrence never conflicts across o.
 * `enclosing` is Program::enclosingLoops(loop).
 */
bool lcdMayAlias(const AddressFacts &a, const AddressFacts &b,
                 ir::CtrlId loop, const std::vector<ir::CtrlId> &enclosing);
bool lcdMayAlias(const ir::Program &p, const Accessor &a,
                 const Accessor &b, ir::CtrlId loop);

/**
 * Number of loops enclosing `block` that are at-or-above `scope`
 * (i.e. equal to it or an ancestor of it). This is the CMMC push/pop
 * level: the counter at this index wraps once per iteration of
 * `scope`'s enclosing round ("done of the immediate child ancestor",
 * paper §III-A1).
 */
int levelAt(const ir::Program &p, ir::CtrlId block, ir::CtrlId scope);

/** Branch ancestors of a node, outermost first, with clause polarity. */
struct BranchAncestor
{
    ir::CtrlId branch;
    bool inThen = true;
};
std::vector<BranchAncestor> branchAncestors(const ir::Program &p,
                                            ir::CtrlId node);

/**
 * True if a and b sit in different clauses of a common branch (their
 * executions are mutually exclusive for the same iteration of the
 * branch's scope — paper Fig. 5b).
 */
bool exclusiveClauses(const ir::Program &p, ir::CtrlId a, ir::CtrlId b);
/** The same on the two nodes' branchAncestors. */
bool exclusiveClauses(const std::vector<BranchAncestor> &a,
                      const std::vector<BranchAncestor> &b);

/** Innermost loop (or while) enclosing both nodes; invalid if none. */
ir::CtrlId innermostCommonLoop(const ir::Program &p, ir::CtrlId a,
                               ir::CtrlId b);
/** The same on the two nodes' Program::ancestry chains. */
ir::CtrlId innermostCommonLoop(const ir::Program &p,
                               const std::vector<ir::CtrlId> &a,
                               const std::vector<ir::CtrlId> &b);

/** True if any While node lies strictly between `scope` and `node`. */
bool whileBetween(const ir::Program &p, ir::CtrlId scope, ir::CtrlId node);

} // namespace sara::compiler

#endif // SARA_COMPILER_ANALYSIS_H
