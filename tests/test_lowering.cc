/**
 * @file
 * Lowering decision tests: which tensors fifo-lower (msr), which
 * multibuffer, which shard, which blocks copy-elide (rtelm), how
 * indirect accesses stratify into request/response units — plus the
 * paper's Fig. 2 worked example checked end to end.
 */

#include <gtest/gtest.h>

#include "compiler/duplicate.h"
#include "compiler/lowering.h"
#include "compiler/unroll.h"
#include "ir/builder.h"
#include "tests/helpers.h"

namespace sara {
namespace {

using namespace ir;
using compiler::CompilerOptions;
using compiler::lowerToVudfg;

CompilerOptions
opts()
{
    CompilerOptions o;
    o.spec = arch::PlasticineSpec::tiny();
    return o;
}

/** Lock-step producer/consumer scratchpads become streams (msr). */
TEST(Lowering, MsrFifoLowersLockStepBuffer)
{
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 64);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 64);
    auto out = p.addTensor("out", MemSpace::Dram, 64);
    auto l1 = b.beginLoop("w", 0, 64);
    b.beginBlock("wr");
    b.write(buf, b.iter(l1), b.mul(b.read(in, b.iter(l1)), b.cst(3.0)));
    b.endBlock();
    b.endLoop();
    auto l2 = b.beginLoop("r", 0, 64);
    b.beginBlock("rd");
    b.write(out, b.iter(l2), b.add(b.read(buf, b.iter(l2)), b.cst(1.0)));
    b.endBlock();
    b.endLoop();

    auto low = lowerToVudfg(p, opts());
    EXPECT_EQ(low.stats.fifoLoweredTensors, 1);
    // No VMU was allocated for buf.
    for (const auto &u : low.graph.units()) {
        if (u.kind == dfg::VuKind::Memory) {
            EXPECT_NE(u.name, "vmu_buf");
        }
    }

    auto noMsr = opts();
    noMsr.enableMsr = false;
    auto low2 = lowerToVudfg(p, noMsr);
    EXPECT_EQ(low2.stats.fifoLoweredTensors, 0);
}

/** Mismatched iteration spaces must NOT fifo-lower. */
TEST(Lowering, MsrRejectsNonLockStep)
{
    Program p;
    Builder b(p);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 64);
    auto out = p.addTensor("out", MemSpace::OnChip, 64);
    auto l1 = b.beginLoop("w", 0, 64);
    b.beginBlock("wr");
    b.write(buf, b.iter(l1), b.iter(l1));
    b.endBlock();
    b.endLoop();
    // Reader sweeps twice per element: not injective lock-step.
    auto l2 = b.beginLoop("r", 0, 128);
    b.beginBlock("rd");
    b.write(out, b.mod(b.iter(l2), b.cst(64.0)),
            b.read(buf, b.mod(b.iter(l2), b.cst(64.0))));
    b.endBlock();
    b.endLoop();

    auto low = lowerToVudfg(p, opts());
    EXPECT_EQ(low.stats.fifoLoweredTensors, 0);
}

/** Tile buffers inside a pipeline loop get multibuffered. */
TEST(Lowering, MultibufferDecision)
{
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 256);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 32);
    auto out = p.addTensor("out", MemSpace::Dram, 256);
    auto t = b.beginLoop("t", 0, 8);
    auto l1 = b.beginLoop("w", 0, 32);
    b.beginBlock("wr");
    auto a = b.add(b.mul(b.iter(t), b.cst(32.0)), b.iter(l1));
    b.write(buf, b.iter(l1), b.read(in, a));
    b.endBlock();
    b.endLoop();
    // A second, non-lock-step reader (reverse order) defeats msr but
    // still multibuffers.
    auto l2 = b.beginLoop("r", 0, 32);
    b.beginBlock("rd");
    auto rev = b.sub(b.cst(31.0), b.iter(l2));
    auto a2 = b.add(b.mul(b.iter(t), b.cst(32.0)), b.iter(l2));
    b.write(out, a2, b.read(buf, rev));
    b.endBlock();
    b.endLoop();
    b.endLoop();

    auto low = lowerToVudfg(p, opts());
    EXPECT_EQ(low.stats.multibufferedTensors, 1);
    for (const auto &u : low.graph.units()) {
        if (u.kind == dfg::VuKind::Memory && u.name == "vmu_buf") {
            EXPECT_EQ(u.bufferDepth, opts().multibufferDepth);
        }
    }
}

/** Oversized tensors shard across PMUs (capacity partitioning). */
TEST(Lowering, CapacitySharding)
{
    Program p;
    Builder b(p);
    // tiny spec: 4096-word PMUs; 10000-word tensor needs 3 shards.
    auto buf = p.addTensor("buf", MemSpace::OnChip, 10000);
    auto out = p.addTensor("out", MemSpace::OnChip, 1);
    auto l1 = b.beginLoop("w", 0, 10000, 1, 16);
    b.beginBlock("wr");
    b.write(buf, b.iter(l1), b.iter(l1));
    b.endBlock();
    b.endLoop();
    auto l2 = b.beginLoop("r", 0, 10000, 1, 16);
    b.beginBlock("rd");
    auto s = b.reduce(OpKind::RedAdd, b.read(buf, b.iter(l2)), l2);
    b.endBlock();
    b.endLoop();
    b.beginBlock("st");
    b.write(out, b.cst(0.0), s);
    b.endBlock();

    compiler::unrollProgram(p, opts().spec.pcu.lanes);
    auto noMsr = opts();
    noMsr.enableMsr = false; // Keep the VMU so sharding is visible.
    auto low = lowerToVudfg(p, noMsr);
    EXPECT_GE(low.stats.shardedTensors, 1);
    int shards = 0;
    for (const auto &u : low.graph.units())
        if (u.kind == dfg::VuKind::Memory &&
            u.name.rfind("vmu_buf", 0) == 0)
            ++shards;
    EXPECT_GE(shards, 3);
}

/** Pure copy blocks elide their VCU (rtelm). */
TEST(Lowering, CopyElision)
{
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 64);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 64);
    auto out = p.addTensor("out", MemSpace::OnChip, 64);
    auto l1 = b.beginLoop("cp", 0, 64, 1, 16);
    b.beginBlock("copy");
    b.write(buf, b.iter(l1), b.read(in, b.iter(l1)));
    b.endBlock();
    b.endLoop();
    auto l2 = b.beginLoop("use", 0, 64, 1, 16);
    b.beginBlock("rd");
    b.write(out, b.iter(l2), b.mul(b.read(buf, b.iter(l2)), b.cst(2.0)));
    b.endBlock();
    b.endLoop();

    compiler::unrollProgram(p, opts().spec.pcu.lanes);
    auto withVmu = opts();
    withVmu.enableMsr = false; // A fifo-lowered buf needs no copy.
    auto low = lowerToVudfg(p, withVmu);
    EXPECT_GE(low.stats.copyElidedBlocks, 1);

    auto noRtelm = opts();
    noRtelm.enableMsr = false;
    noRtelm.enableRtelm = false;
    auto low2 = lowerToVudfg(p, noRtelm);
    EXPECT_EQ(low2.stats.copyElidedBlocks, 0);
}

/** Indirect addresses stream from request-slice units and stratify
 *  blocks into request/response stages (paper §III-A1). */
TEST(Lowering, IndirectChainsStratify)
{
    Program p;
    Builder b(p);
    auto idx = p.addTensor("idx", MemSpace::OnChip, 64);
    auto dat = p.addTensor("dat", MemSpace::OnChip, 64);
    auto out = p.addTensor("out", MemSpace::OnChip, 64);
    auto l = b.beginLoop("i", 0, 64);
    b.beginBlock("gather");
    auto a = b.read(idx, b.iter(l));       // Stage 0 (affine).
    auto v = b.read(dat, a);               // Stage 1 (streamed addr).
    b.write(out, b.iter(l), v);
    b.endBlock();
    b.endLoop();

    auto low = lowerToVudfg(p, opts());
    // There must be a request-slice unit feeding the gather port.
    bool foundReq = false, foundStage1 = false;
    for (const auto &u : low.graph.units()) {
        if (u.name.find("_req") != std::string::npos)
            foundReq = true;
        if (u.name.find("_s1") != std::string::npos)
            foundStage1 = true;
    }
    EXPECT_TRUE(foundReq);
    EXPECT_TRUE(foundStage1);
}

/** The unroller privatizes loop-local scratch per clone. */
TEST(Unroll, PrivatizesLoopLocalTensors)
{
    Program p;
    Builder b(p);
    auto out = p.addTensor("out", MemSpace::OnChip, 64);
    auto scratch = p.addTensor("scratch", MemSpace::OnChip, 4);
    auto n = b.beginLoop("n", 0, 64, 1, /*par=*/4); // 4 outer clones.
    {
        auto k = b.beginLoop("k", 0, 4);
        b.beginBlock("fill");
        b.write(scratch, b.iter(k), b.add(b.iter(n), b.iter(k)));
        b.endBlock();
        b.endLoop();
        auto k2 = b.beginLoop("k2", 0, 4);
        b.beginBlock("sum");
        auto s = b.reduce(OpKind::RedAdd,
                          b.read(scratch, b.iter(k2)), k2);
        b.endBlock();
        b.endLoop();
        b.beginBlock("wr");
        b.write(out, b.iter(n), s);
        b.endBlock();
    }
    b.endLoop();

    size_t tensorsBefore = p.numTensors();
    compiler::unrollProgram(p, 16);
    // par 64 with a nested body: 4 clones -> 3 private copies.
    EXPECT_EQ(p.numTensors(), tensorsBefore + 3);

    // And the unrolled program still matches sequential semantics.
    test::runAndCompare(p, test::tinyOptions());
}

/** Buffer duplication statistics and semantics. */
TEST(Duplicate, CopiesReadSharedBuffers)
{
    Program p;
    Builder b(p);
    auto lut = p.addTensor("lut", MemSpace::OnChip, 32);
    auto out = p.addTensor("out", MemSpace::OnChip, 128);
    auto l0 = b.beginLoop("fill", 0, 32, 1, 16);
    b.beginBlock("f");
    b.write(lut, b.iter(l0), b.mul(b.iter(l0), b.cst(3.0)));
    b.endBlock();
    b.endLoop();
    // Two separate consumers sweeping the whole LUT.
    for (int c = 0; c < 2; ++c) {
        auto l = b.beginLoop("c" + std::to_string(c), 0, 32, 1, 16);
        b.beginBlock("rd" + std::to_string(c));
        b.write(out, b.add(b.iter(l), b.cst(double(c * 32))),
                b.read(lut, b.iter(l)));
        b.endBlock();
        b.endLoop();
    }

    auto stats = compiler::duplicateReadShared(p, opts());
    EXPECT_EQ(stats.tensorsDuplicated, 1);
    EXPECT_EQ(stats.copiesCreated, 1);
    test::runAndCompare(p, test::tinyOptions());
}

/**
 * The paper's Fig. 2 program: a 3-level nest A(B(C,D,E), F, G) where
 * C writes m1/m2, D reads m1 & m3(?), etc. We build the structural
 * skeleton — five hyperblocks, intermediate tensors m1..m5 — and
 * assert the CMMC structure: one VCU per hyperblock, tokens only
 * between accessors of the same tensor, and sequential equivalence.
 */
TEST(PaperFig2, StructureAndSemantics)
{
    Program p;
    Builder b(p);
    auto m1 = p.addTensor("m1", MemSpace::OnChip, 16);
    auto m2 = p.addTensor("m2", MemSpace::OnChip, 16);
    auto m3 = p.addTensor("m3", MemSpace::OnChip, 16);
    auto m4 = p.addTensor("m4", MemSpace::OnChip, 16);
    auto m5 = p.addTensor("m5", MemSpace::Dram, 16);

    auto A = b.beginLoop("A", 0, 3);
    {
        auto B = b.beginLoop("B", 0, 2);
        {
            auto C = b.beginLoop("C", 0, 16);
            b.beginBlock("blkC");
            b.write(m1, b.iter(C), b.add(b.iter(A), b.iter(C)));
            b.endBlock();
            b.endLoop();
            auto D = b.beginLoop("D", 0, 16);
            b.beginBlock("blkD");
            b.write(m2, b.iter(D),
                    b.mul(b.read(m1, b.iter(D)), b.cst(2.0)));
            b.endBlock();
            b.endLoop();
            auto E = b.beginLoop("E", 0, 16);
            b.beginBlock("blkE");
            b.write(m3, b.iter(E),
                    b.add(b.read(m2, b.iter(E)), b.iter(B)));
            b.endBlock();
            b.endLoop();
        }
        b.endLoop();
        auto F = b.beginLoop("F", 0, 16);
        b.beginBlock("blkF");
        b.write(m4, b.iter(F),
                b.sub(b.read(m3, b.iter(F)), b.cst(1.0)));
        b.endBlock();
        b.endLoop();
        auto G = b.beginLoop("G", 0, 16);
        b.beginBlock("blkG");
        b.write(m5, b.iter(G), b.read(m4, b.iter(G)));
        b.endBlock();
        b.endLoop();
    }
    b.endLoop();

    auto noOpt = opts();
    noOpt.enableMsr = false;   // Keep every VMU visible.
    noOpt.enableRtelm = false; // Keep every VCU visible.
    auto low = lowerToVudfg(p, noOpt);

    // One VCU per hyperblock.
    int vcus = 0, vmus = 0;
    for (const auto &u : low.graph.units()) {
        if (u.kind == dfg::VuKind::Compute)
            ++vcus;
        if (u.kind == dfg::VuKind::Memory)
            ++vmus;
    }
    EXPECT_EQ(vcus, 5);
    EXPECT_EQ(vmus, 4); // m1..m4 (m5 is DRAM).

    // Tokens only connect accessors of the same tensor: every token
    // stream's name carries the tensor, and both endpoints access it.
    for (const auto &s : low.graph.streams()) {
        if (s.kind != dfg::StreamKind::Token)
            continue;
        EXPECT_TRUE(s.name.find("m1") != std::string::npos ||
                    s.name.find("m2") != std::string::npos ||
                    s.name.find("m3") != std::string::npos ||
                    s.name.find("m4") != std::string::npos ||
                    s.name.find("m5") != std::string::npos)
            << s.name;
    }

    // And the full pipeline preserves sequential semantics.
    test::runAndCompare(p, test::tinyOptions());
}

} // namespace
} // namespace sara
