/**
 * @file
 * IR unit tests: builder structure, sequential interpreter semantics,
 * affine analysis, subtree cloning, the unroll pass (including
 * pre/post-unroll semantic equivalence), and the lane kernels of scalar
 * op evaluation against their per-scalar reference.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <array>
#include <cstring>
#include <limits>
#include <vector>

#include "compiler/unroll.h"
#include "ir/affine.h"
#include "ir/builder.h"
#include "ir/interp.h"
#include "support/logging.h"

namespace sara {
namespace {

using namespace ir;

TEST(Builder, StructureAndVerify)
{
    Program p;
    Builder b(p);
    auto t = p.addTensor("t", MemSpace::OnChip, 16);
    auto l = b.beginLoop("i", 0, 8);
    b.beginBlock("body");
    b.write(t, b.iter(l), b.cst(1.0));
    b.endBlock();
    b.endLoop();
    p.verify();
    EXPECT_EQ(p.blocksInOrder().size(), 1u);
    EXPECT_EQ(p.enclosingLoops(p.blocksInOrder()[0]).size(), 1u);
}

TEST(Builder, MismatchedScopesPanic)
{
    Program p;
    Builder b(p);
    b.beginLoop("i", 0, 4);
    EXPECT_THROW(b.endBranch(), PanicError);
}

TEST(Builder, NestedBranchElseTracking)
{
    Program p;
    Builder b(p);
    auto l = b.beginLoop("i", 0, 4);
    b.beginBlock("c");
    auto cond = b.binary(OpKind::CmpLt, b.iter(l), b.cst(2.0));
    b.endBlock();
    b.beginBranch("br", cond);
    b.beginBlock("then");
    b.endBlock();
    b.elseClause();
    b.beginBlock("else1");
    b.endBlock();
    b.beginBlock("else2");
    b.endBlock();
    b.endBranch();
    b.endLoop();
    const auto &br = p.ctrl(CtrlId(2)); // loop=1? find by kind instead
    CtrlId branch;
    p.forEachCtrl([&](const CtrlNode &n) {
        if (n.kind == CtrlKind::Branch)
            branch = n.id;
    });
    const auto &node = p.ctrl(branch);
    EXPECT_EQ(node.children.size(), 1u);
    EXPECT_EQ(node.elseChildren.size(), 2u);
    (void)br;
}

TEST(Interp, LoopAndReduce)
{
    Program p;
    Builder b(p);
    auto out = p.addTensor("out", MemSpace::OnChip, 1);
    auto l = b.beginLoop("i", 0, 10);
    b.beginBlock("body");
    auto s = b.reduce(OpKind::RedAdd, b.iter(l), l);
    b.endBlock();
    b.endLoop();
    b.beginBlock("st");
    b.write(out, b.cst(0.0), s);
    b.endBlock();

    Interpreter interp(p);
    auto r = interp.run();
    EXPECT_DOUBLE_EQ(r.tensors[out.index()][0], 45.0);
    EXPECT_EQ(r.firings, 11u);
}

TEST(Interp, BranchSelectsClause)
{
    Program p;
    Builder b(p);
    auto out = p.addTensor("out", MemSpace::OnChip, 8);
    auto l = b.beginLoop("i", 0, 8);
    b.beginBlock("c");
    auto even = b.binary(OpKind::CmpEq, b.mod(b.iter(l), b.cst(2.0)),
                         b.cst(0.0));
    b.endBlock();
    b.beginBranch("br", even);
    b.beginBlock("t");
    b.write(out, b.iter(l), b.cst(1.0));
    b.endBlock();
    b.elseClause();
    b.beginBlock("e");
    b.write(out, b.iter(l), b.cst(2.0));
    b.endBlock();
    b.endBranch();
    b.endLoop();

    auto r = Interpreter(p).run();
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(r.tensors[out.index()][i], i % 2 ? 2.0 : 1.0);
}

TEST(Interp, WhileTerminatesOnCondition)
{
    Program p;
    Builder b(p);
    auto out = p.addTensor("out", MemSpace::OnChip, 1);
    auto w = b.beginWhile("w");
    b.beginBlock("body");
    auto i = b.iter(w);
    b.write(out, b.cst(0.0), i);
    auto cont = b.binary(OpKind::CmpLt, i, b.cst(4.0));
    b.endBlock();
    b.endWhile(cont);
    auto r = Interpreter(p).run();
    // Runs for iter = 0..4 (continues while iter < 4, do-while).
    EXPECT_DOUBLE_EQ(r.tensors[out.index()][0], 4.0);
}

TEST(Interp, OutOfBoundsPanics)
{
    Program p;
    Builder b(p);
    auto t = p.addTensor("t", MemSpace::OnChip, 4);
    b.beginBlock("bad");
    b.write(t, b.cst(9.0), b.cst(1.0));
    b.endBlock();
    Interpreter interp(p);
    EXPECT_THROW(interp.run(), PanicError);
}

TEST(Affine, MatchAndSpan)
{
    Program p;
    Builder b(p);
    auto i = b.beginLoop("i", 0, 8);
    auto j = b.beginLoop("j", 0, 4);
    b.beginBlock("blk");
    // addr = 4*i + j + 3
    auto addr =
        b.add(b.add(b.mul(b.iter(i), b.cst(4.0)), b.iter(j)), b.cst(3.0));
    auto form = matchAffine(p, addr);
    ASSERT_TRUE(form.has_value());
    EXPECT_EQ(form->coeff(i), 4);
    EXPECT_EQ(form->coeff(j), 1);
    EXPECT_EQ(form->base, 3);
    auto span = affineSpan(p, *form, {i, j});
    ASSERT_TRUE(span.has_value());
    EXPECT_EQ(span->first, 3);
    EXPECT_EQ(span->second, 3 + 4 * 7 + 3);
    b.endBlock();
    b.endLoop();
    b.endLoop();
}

TEST(Affine, RejectsNonAffine)
{
    Program p;
    Builder b(p);
    auto t = p.addTensor("t", MemSpace::OnChip, 8);
    auto i = b.beginLoop("i", 0, 4);
    b.beginBlock("blk");
    EXPECT_FALSE(matchAffine(p, b.mul(b.iter(i), b.iter(i))).has_value());
    EXPECT_FALSE(matchAffine(p, b.mod(b.iter(i), b.cst(4.0))).has_value());
    EXPECT_FALSE(
        matchAffine(p, b.read(t, b.iter(i))).has_value());
    b.endBlock();
    b.endLoop();
}

TEST(Clone, SubtreeRemapsInternals)
{
    Program p;
    Builder b(p);
    auto t = p.addTensor("t", MemSpace::OnChip, 64);
    auto l = b.beginLoop("i", 0, 8);
    b.beginBlock("body");
    b.write(t, b.iter(l), b.iter(l));
    b.endBlock();
    b.endLoop();

    size_t opsBefore = p.numOps();
    CtrlId clone = p.cloneSubtree(l, p.root());
    EXPECT_GT(p.numOps(), opsBefore);
    // The clone's iter op must reference the cloned loop.
    const auto &cl = p.ctrl(clone);
    CtrlId cloneBlock = cl.children[0];
    for (OpId oid : p.ctrl(cloneBlock).ops) {
        const Op &o = p.op(oid);
        if (o.kind == OpKind::Iter) {
            EXPECT_EQ(o.ctrl, clone);
        }
    }
}

TEST(Unroll, VectorizesInnermost)
{
    Program p;
    Builder b(p);
    auto t = p.addTensor("t", MemSpace::OnChip, 64);
    auto l = b.beginLoop("i", 0, 64, 1, /*par=*/8);
    b.beginBlock("body");
    b.write(t, b.iter(l), b.iter(l));
    b.endBlock();
    b.endLoop();

    auto stats = compiler::unrollProgram(p, /*lanes=*/16);
    EXPECT_EQ(stats.vectorizedLoops, 1);
    EXPECT_EQ(stats.unrolledLoops, 0);
    EXPECT_EQ(p.ctrl(l).vec, 8);
    EXPECT_EQ(p.ctrl(l).par, 1);
}

TEST(Unroll, SplitsBeyondLanes)
{
    Program p;
    Builder b(p);
    auto t = p.addTensor("t", MemSpace::OnChip, 64);
    b.beginLoop("i", 0, 64, 1, /*par=*/32);
    b.beginBlock("body");
    // Re-fetch loop id: beginLoop returned it.
    b.endBlock();
    b.endLoop();
    // Write a fresh program properly (the above block was empty).
    Program q;
    Builder bq(q);
    auto tq = q.addTensor("t", MemSpace::OnChip, 64);
    auto lq = bq.beginLoop("i", 0, 64, 1, /*par=*/32);
    bq.beginBlock("body");
    bq.write(tq, bq.iter(lq), bq.iter(lq));
    bq.endBlock();
    bq.endLoop();

    auto stats = compiler::unrollProgram(q, 16);
    EXPECT_EQ(stats.unrolledLoops, 1);
    EXPECT_EQ(stats.clonesCreated, 2); // 32 = 2 clones x 16 lanes.
    (void)t;
}

TEST(Unroll, SemanticEquivalence)
{
    // Build the same program twice; unroll one; interpret both.
    auto build = [](Program &p, int par) {
        Builder b(p);
        auto in = p.addTensor("in", MemSpace::Dram, 64);
        auto out = p.addTensor("out", MemSpace::Dram, 64);
        auto acc = p.addTensor("acc", MemSpace::Dram, 1);
        auto l = b.beginLoop("i", 0, 64, 1, par);
        b.beginBlock("body");
        auto v = b.read(in, b.iter(l));
        b.write(out, b.iter(l), b.mul(v, b.cst(2.0)));
        auto s = b.reduce(OpKind::RedAdd, v, l);
        b.endBlock();
        b.endLoop();
        b.beginBlock("st");
        b.write(acc, b.cst(0.0), s);
        b.endBlock();
        return std::make_tuple(in, out, acc);
    };
    Program base, unrolled;
    auto [inB, outB, accB] = build(base, 1);
    auto [inU, outU, accU] = build(unrolled, 6); // Uneven chunks.
    compiler::unrollProgram(unrolled, 2);

    std::vector<double> data(64);
    for (int i = 0; i < 64; ++i)
        data[i] = i * 0.5;
    Interpreter ia(base), ib(unrolled);
    ia.setTensor(inB, data);
    ib.setTensor(inU, data);
    auto ra = ia.run();
    auto rb = ib.run();
    EXPECT_EQ(ra.tensors[outB.index()], rb.tensors[outU.index()]);
    EXPECT_DOUBLE_EQ(ra.tensors[accB.index()][0],
                     rb.tensors[accU.index()][0]);
}

TEST(Unroll, RejectsParallelWhile)
{
    Program p;
    Builder b(p);
    auto w = b.beginWhile("w");
    p.ctrl(w).par = 4;
    b.beginBlock("body");
    auto cont = b.cst(0.0);
    b.endBlock();
    b.endWhile(cont);
    EXPECT_THROW(compiler::unrollProgram(p, 16), FatalError);
}

TEST(ProgramOrder, ThenBeforeElse)
{
    Program p;
    Builder b(p);
    auto l = b.beginLoop("i", 0, 2);
    b.beginBlock("c");
    auto cond = b.cst(1.0);
    b.endBlock();
    b.beginBranch("br", cond);
    b.beginBlock("t");
    b.endBlock();
    b.elseClause();
    b.beginBlock("e");
    b.endBlock();
    b.endBranch();
    b.endLoop();
    (void)l;
    auto order = p.programOrder();
    CtrlId tBlk, eBlk;
    p.forEachCtrl([&](const CtrlNode &n) {
        if (n.name == "t")
            tBlk = n.id;
        if (n.name == "e")
            eBlk = n.id;
    });
    EXPECT_LT(order[tBlk.index()], order[eBlk.index()]);
}

// --- Lane kernels -----------------------------------------------------------

/** The per-scalar op switch that evalLanes replaced, kept as the
 *  oracle for the lane kernels. One edit: C leaves fmin/fmax of +0 and
 *  -0 unspecified, and the compiled switch returned the first operand,
 *  so the oracle pins that tie. */
double
referenceScalar(OpKind kind, const double *args)
{
    switch (kind) {
      case OpKind::Neg: return -args[0];
      case OpKind::Abs: return std::fabs(args[0]);
      case OpKind::Exp: return std::exp(args[0]);
      case OpKind::Log: return std::log(args[0]);
      case OpKind::Sqrt: return std::sqrt(args[0]);
      case OpKind::Sigmoid: return 1.0 / (1.0 + std::exp(-args[0]));
      case OpKind::Tanh: return std::tanh(args[0]);
      case OpKind::Relu: return args[0] > 0.0 ? args[0] : 0.0;
      case OpKind::Floor: return std::floor(args[0]);
      case OpKind::Not: return args[0] == 0.0 ? 1.0 : 0.0;
      case OpKind::Add: return args[0] + args[1];
      case OpKind::Sub: return args[0] - args[1];
      case OpKind::Mul: return args[0] * args[1];
      case OpKind::Div: return args[0] / args[1];
      case OpKind::Min:
        return args[0] == args[1] ? args[0] : std::fmin(args[0], args[1]);
      case OpKind::Max:
        return args[0] == args[1] ? args[0] : std::fmax(args[0], args[1]);
      case OpKind::Mod: return std::fmod(args[0], args[1]);
      case OpKind::And:
        return (args[0] != 0.0 && args[1] != 0.0) ? 1.0 : 0.0;
      case OpKind::Or:
        return (args[0] != 0.0 || args[1] != 0.0) ? 1.0 : 0.0;
      case OpKind::CmpLt: return args[0] < args[1] ? 1.0 : 0.0;
      case OpKind::CmpLe: return args[0] <= args[1] ? 1.0 : 0.0;
      case OpKind::CmpEq: return args[0] == args[1] ? 1.0 : 0.0;
      case OpKind::CmpNe: return args[0] != args[1] ? 1.0 : 0.0;
      case OpKind::CmpGt: return args[0] > args[1] ? 1.0 : 0.0;
      case OpKind::CmpGe: return args[0] >= args[1] ? 1.0 : 0.0;
      case OpKind::Select: return args[0] != 0.0 ? args[1] : args[2];
      case OpKind::Mac: return args[0] * args[1] + args[2];
      default:
        panic("referenceScalar: op ", opName(kind), " is not scalar");
    }
}

uint64_t
bitsOf(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

const OpKind kScalarKinds[] = {
    OpKind::Neg,   OpKind::Abs,   OpKind::Exp,    OpKind::Log,
    OpKind::Sqrt,  OpKind::Sigmoid, OpKind::Tanh, OpKind::Relu,
    OpKind::Floor, OpKind::Not,   OpKind::Add,    OpKind::Sub,
    OpKind::Mul,   OpKind::Div,   OpKind::Min,    OpKind::Max,
    OpKind::Mod,   OpKind::And,   OpKind::Or,     OpKind::CmpLt,
    OpKind::CmpLe, OpKind::CmpEq, OpKind::CmpNe,  OpKind::CmpGt,
    OpKind::CmpGe, OpKind::Select, OpKind::Mac};

TEST(EvalLanes, MatchesScalarReferenceBitForBit)
{
    using L = std::numeric_limits<double>;
    // Signed zeros, infinities, NaN, subnormals, negative Mod operands,
    // and Mac triples whose fused multiply-add rounds differently.
    const double tiny = 1.0 + std::ldexp(1.0, -30);
    const std::vector<double> values = {
        0.0, -0.0, L::infinity(), -L::infinity(), L::quiet_NaN(),
        L::denorm_min(), -L::denorm_min(), L::min() / 4, 1.5, -2.5, 3.0,
        -7.0, 0.1, 1e308, tiny, -(1.0 + std::ldexp(1.0, -29))};
    std::vector<std::array<double, 3>> triples;
    for (double a : values)
        for (double b : values)
            for (double c : values)
                triples.push_back({a, b, c});

    for (OpKind kind : kScalarKinds) {
        for (int lanes : {1, 3, 8, 16}) {
            std::vector<double> a(lanes), b(lanes), c(lanes), out(lanes);
            for (size_t t0 = 0; t0 < triples.size(); t0 += lanes) {
                for (int l = 0; l < lanes; ++l) {
                    const auto &t = triples[(t0 + l) % triples.size()];
                    a[l] = t[0];
                    b[l] = t[1];
                    c[l] = t[2];
                }
                evalLanes(kind, a.data(), b.data(), c.data(), out.data(),
                          lanes);
                for (int l = 0; l < lanes; ++l) {
                    const double args[3] = {a[l], b[l], c[l]};
                    const double want = referenceScalar(kind, args);
                    // Which NaN a two-NaN op propagates follows the
                    // operand order the compiler emits, so a NaN result
                    // matches any NaN; every other result, bit for bit.
                    auto same = [&](double got) {
                        return std::isnan(want) ? std::isnan(got)
                                                : bitsOf(got) == bitsOf(want);
                    };
                    ASSERT_TRUE(same(out[l]))
                        << opName(kind) << " lanes=" << lanes << " ("
                        << a[l] << ", " << b[l] << ", " << c[l]
                        << "): got " << out[l] << ", want " << want;
                    ASSERT_TRUE(same(evalScalar(kind, args)))
                        << opName(kind) << " evalScalar";
                }
            }
        }
    }
}

TEST(EvalLanes, MacRoundsTheProductBeforeTheAdd)
{
    // (1 + 2^-30)^2 = 1 + 2^-29 + 2^-60: the rounded product drops the
    // 2^-60 term, so a * b + c cancels to 0 while a fused multiply-add
    // keeps 2^-60.
    const double a = 1.0 + std::ldexp(1.0, -30);
    const double c = -(1.0 + std::ldexp(1.0, -29));
    ASSERT_NE(std::fma(a, a, c), 0.0);
    for (int lanes : {1, 3, 8, 16}) {
        std::vector<double> va(lanes, a), vc(lanes, c), out(lanes, 1.0);
        evalLanes(OpKind::Mac, va.data(), va.data(), vc.data(), out.data(),
                  lanes);
        for (int l = 0; l < lanes; ++l)
            EXPECT_EQ(bitsOf(out[l]), bitsOf(0.0)) << "lanes=" << lanes;
    }
}

TEST(EvalLanes, RejectsNonScalarKinds)
{
    double x[1] = {0.0}, out[1];
    for (OpKind kind : {OpKind::Const, OpKind::Iter, OpKind::Read,
                        OpKind::Write, OpKind::RedAdd})
        EXPECT_THROW(evalLanes(kind, x, x, x, out, 1), PanicError)
            << opName(kind);
}

} // namespace
} // namespace sara
