#ifndef SARA_IR_INTERP_H
#define SARA_IR_INTERP_H

/**
 * @file
 * Sequential reference interpreter. Executes a program exactly in
 * program order — the semantics CMMC must be consistent with. Used as
 * the correctness oracle for the spatially pipelined simulation and by
 * workload self-checks.
 */

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ir/program.h"

namespace sara::ir {

/** Safety valve on the rounds of one do-while loop, shared by the
 *  interpreter and the simulator: past it the program is taken to be
 *  non-terminating. */
inline constexpr uint64_t kMaxWhileRounds = 1'000'000;

/** Final memory state after sequential execution. */
struct InterpResult
{
    /** Contents per tensor id (both on-chip and DRAM). */
    std::vector<std::vector<double>> tensors;
    /** Total hyperblock firings (one per innermost iteration). */
    uint64_t firings = 0;
    /** Total op executions (proxy for work). */
    uint64_t opsExecuted = 0;
};

/**
 * Evaluate a non-memory, non-reduce op kind over `lanes` lanes:
 * out[l] = kind(a[l], b[l], c[l]). Operands past the kind's arity are
 * not read. The one definition of scalar op semantics, shared by the
 * interpreter (one lane) and the simulator's datapath (all active lanes).
 */
void evalLanes(OpKind kind, const double *a, const double *b,
               const double *c, double *out, int lanes);

/** Scalar evaluation of a single non-memory, non-reduce op kind: the
 *  one-lane evalLanes over args[0..2]. */
inline double
evalScalar(OpKind kind, const double *args)
{
    double out;
    evalLanes(kind, &args[0], &args[1], &args[2], &out, 1);
    return out;
}

/** Executes `program` sequentially. */
class Interpreter
{
  public:
    explicit Interpreter(const Program &program);

    /** Pre-set DRAM tensor contents (defaults to zeros). */
    void setTensor(TensorId id, std::vector<double> data);

    /** Run to completion and return final memory state. */
    InterpResult run();

  private:
    void execCtrl(CtrlId id);
    void execBlock(const CtrlNode &block);
    double value(OpId id) const { return values_[id.index()]; }
    int64_t boundValue(const Bound &b) const;

    const Program &p_;
    std::vector<std::vector<double>> tensors_;
    std::vector<double> values_;
    std::vector<int64_t> iters_;
    std::vector<std::vector<OpId>> loopReduces_;
    uint64_t firings_ = 0;
    uint64_t opsExecuted_ = 0;
};

} // namespace sara::ir

#endif // SARA_IR_INTERP_H
