/**
 * @file
 * Runtime-harness and printer tests: runWorkload's check path and
 * metrics, the check's 1e-4 comparison, the shared compile result,
 * summarize() formatting, and golden-ish structure checks on the IR
 * and VUDFG textual dumps (documentation surfaces).
 */

#include <gtest/gtest.h>

#include "compiler/lowering.h"
#include "ir/builder.h"
#include "runtime/run.h"
#include "tests/helpers.h"

namespace sara {
namespace {

TEST(Runtime, RunWorkloadChecksAndMeasures)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildMs(cfg);

    sara::runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.compiler.pnrIterations = 500;
    rc.check = true;
    auto r = sara::runtime::runWorkload(w, rc);

    EXPECT_TRUE(r.checked);
    EXPECT_TRUE(r.correct);
    EXPECT_GT(r.sim.cycles, 0u);
    EXPECT_GT(r.gflops(), 0.0);
    EXPECT_GT(r.dramGBs(), 0.0);
    EXPECT_NEAR(r.timeUs(), r.sim.cycles / 1e3, 1e-9);

    std::string s = sara::runtime::summarize(w, r);
    EXPECT_NE(s.find("ms:"), std::string::npos);
    EXPECT_NE(s.find("GFLOPS"), std::string::npos);
    EXPECT_NE(s.find("PCU"), std::string::npos);
}

TEST(Runtime, MatchesReferenceWithinOneTenThousandth)
{
    using sara::runtime::matchesReference;
    const sara::runtime::Tensors ref = {{1.0, 2.0, 3.0}, {4.0}};
    EXPECT_TRUE(matchesReference(ref, ref));
    EXPECT_TRUE(matchesReference({{1.0, 2.0 + 5e-5, 3.0}, {4.0}}, ref));
    EXPECT_FALSE(matchesReference({{1.0, 2.0 + 2e-4, 3.0}, {4.0}}, ref));
    EXPECT_FALSE(matchesReference({{1.0, 2.0}, {4.0}}, ref));
    // An empty simulated tensor was optimized away: nothing to check.
    EXPECT_TRUE(matchesReference({{}, {4.0}}, ref));
}

TEST(Runtime, OutcomeSharesThePreCompiledResult)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 4;
    auto w = workloads::buildMs(cfg);
    sara::runtime::RunConfig rc;
    rc.compiler.pnrIterations = 200;
    auto first = sara::runtime::runWorkload(w, rc);
    rc.preCompiled = first.compiled.get();
    auto again = sara::runtime::runWorkload(w, rc);
    EXPECT_EQ(again.compiled.get(), first.compiled.get()); // Not a copy.
    EXPECT_EQ(again.sim.cycles, first.sim.cycles);
}

TEST(Runtime, TraceFileWritten)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildMs(cfg);
    sara::runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.compiler.pnrIterations = 200;
    rc.sim.traceFile = "/tmp/sara_test_trace.json";
    auto r = sara::runtime::runWorkload(w, rc);
    (void)r;
    std::FILE *f = std::fopen("/tmp/sara_test_trace.json", "r");
    ASSERT_NE(f, nullptr);
    char first = static_cast<char>(std::fgetc(f));
    std::fclose(f);
    EXPECT_EQ(first, '['); // Chrome-trace array.
    std::remove("/tmp/sara_test_trace.json");
}

TEST(Printers, ProgramDumpStructure)
{
    using namespace ir;
    Program p;
    Builder b(p);
    auto t = p.addTensor("mem", MemSpace::OnChip, 8);
    auto l = b.beginLoop("outer", 0, 4, 1, /*par=*/2);
    b.beginBlock("body");
    auto cond = b.binary(OpKind::CmpLt, b.iter(l), b.cst(2.0));
    b.endBlock();
    b.beginBranch("br", cond);
    b.beginBlock("then_b");
    b.write(t, b.cst(0.0), b.cst(1.0));
    b.endBlock();
    b.elseClause();
    b.beginBlock("else_b");
    b.endBlock();
    b.endBranch();
    b.endLoop();

    std::string s = p.str();
    EXPECT_NE(s.find("for outer [0:4:1] par=2"), std::string::npos);
    EXPECT_NE(s.find("if br"), std::string::npos);
    EXPECT_NE(s.find("else"), std::string::npos);
    EXPECT_NE(s.find("write mem"), std::string::npos);
    EXPECT_NE(s.find("cmplt"), std::string::npos);
}

TEST(Printers, VudfgDumpStructure)
{
    using namespace ir;
    Program p;
    Builder b(p);
    auto in = p.addTensor("in", MemSpace::Dram, 32);
    auto buf = p.addTensor("buf", MemSpace::OnChip, 32);
    auto out = p.addTensor("out", MemSpace::OnChip, 32);
    auto l1 = b.beginLoop("w", 0, 32);
    b.beginBlock("wr");
    b.write(buf, b.iter(l1), b.read(in, b.iter(l1)));
    b.endBlock();
    b.endLoop();
    auto l2 = b.beginLoop("r", 0, 32);
    b.beginBlock("rd");
    b.write(out, b.sub(b.cst(31.0), b.iter(l2)),
            b.read(buf, b.iter(l2)));
    b.endBlock();
    b.endLoop();

    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::tiny();
    opt.enableMsr = false;
    auto low = compiler::lowerToVudfg(p, opt);
    std::string s = low.graph.str();
    EXPECT_NE(s.find("VMU vmu_buf"), std::string::npos);
    EXPECT_NE(s.find("VCU"), std::string::npos);
    EXPECT_NE(s.find("token"), std::string::npos);
    EXPECT_NE(s.find("push@"), std::string::npos);
}

} // namespace
} // namespace sara
