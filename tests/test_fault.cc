/**
 * @file
 * Fault-injection and hang-diagnosis tests: the `--inject` spec
 * grammar, injector determinism (decisions are pure hashes of seed,
 * spec, site and cycle), the zero-overhead-when-off contract (a run
 * with no injector is cycle-identical to one with an empty plan),
 * seeded replay (same seed => same cycles, byte-identical
 * FailureReport), each fault model's observable effect, and the
 * wait-for-graph classifier: true deadlock vs starvation vs
 * injected-fault-induced hang.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "fault/failure.h"
#include "fault/fault.h"
#include "runtime/run.h"
#include "sim/simulator.h"
#include "support/logging.h"
#include "workloads/workload.h"

namespace sara {
namespace {

// --- Spec grammar ----------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar)
{
    fault::FaultSpec s = fault::parseFaultSpec(
        "noc-delay@0.25:site=(1,2)E:window=100-900:count=3:delay=8");
    EXPECT_EQ(s.kind, fault::FaultKind::NocDelay);
    EXPECT_DOUBLE_EQ(s.prob, 0.25);
    EXPECT_EQ(s.site, "(1,2)E");
    EXPECT_EQ(s.windowLo, 100u);
    EXPECT_EQ(s.windowHi, 900u);
    EXPECT_EQ(s.count, 3);
    EXPECT_EQ(s.delay, 8u);
}

TEST(FaultSpec, DefaultsAndOpenWindow)
{
    fault::FaultSpec s = fault::parseFaultSpec("stuck-credit:window=500-");
    EXPECT_EQ(s.kind, fault::FaultKind::StuckCredit);
    EXPECT_DOUBLE_EQ(s.prob, 1.0);
    EXPECT_EQ(s.windowLo, 500u);
    EXPECT_EQ(s.windowHi, UINT64_MAX);
    EXPECT_EQ(s.count, -1);
}

TEST(FaultSpec, EveryKindParses)
{
    const char *kinds[] = {"noc-delay",    "noc-dup",       "stuck-credit",
                           "dram-timeout", "dram-tail",     "fifo-leak",
                           "artifact-flip", "compile-fault",
                           "disk-short-write", "disk-enospc",
                           "sock-torn-write", "sock-drop"};
    for (const char *k : kinds)
        EXPECT_NO_THROW(fault::parseFaultSpec(k)) << k;
}

TEST(FaultSpec, HostLevelKindsRoundTripNames)
{
    auto sw = fault::parseFaultSpec("disk-short-write@0.5:count=2");
    EXPECT_EQ(sw.kind, fault::FaultKind::DiskShortWrite);
    EXPECT_DOUBLE_EQ(sw.prob, 0.5);
    EXPECT_EQ(sw.count, 2);
    auto en = fault::parseFaultSpec("disk-enospc");
    EXPECT_EQ(en.kind, fault::FaultKind::DiskEnospc);
    auto tw = fault::parseFaultSpec("sock-torn-write@0.1");
    EXPECT_EQ(tw.kind, fault::FaultKind::SockTornWrite);
    auto dr = fault::parseFaultSpec("sock-drop:site=conn-3");
    EXPECT_EQ(dr.kind, fault::FaultKind::SockDrop);
    EXPECT_EQ(dr.site, "conn-3");
    EXPECT_STREQ(fault::faultKindName(sw.kind), "disk-short-write");
    EXPECT_STREQ(fault::faultKindName(en.kind), "disk-enospc");
    EXPECT_STREQ(fault::faultKindName(tw.kind), "sock-torn-write");
    EXPECT_STREQ(fault::faultKindName(dr.kind), "sock-drop");
}

TEST(FaultSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(fault::parseFaultSpec(""), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("no-such-kind"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("noc-delay@2.5"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("noc-delay@nope"), FatalError);
    EXPECT_THROW(fault::parseFaultSpec("noc-delay:window=9-3"),
                 FatalError);
    EXPECT_THROW(fault::parseFaultSpec("noc-delay:bogus=1"), FatalError);
}

// --- Injector determinism --------------------------------------------------

TEST(FaultInjector, DecisionsAreSeedDeterministic)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("dram-tail@0.5:delay=100")};
    fault::FaultInjector a(plan, 42), b(plan, 42), c(plan, 43);
    bool anyDiffer = false;
    for (uint64_t cyc = 0; cyc < 2000; ++cyc) {
        EXPECT_EQ(a.dramTailLatency("ag0", cyc),
                  b.dramTailLatency("ag0", cyc));
        anyDiffer = anyDiffer || a.dramTailLatency("ag0", cyc) !=
                                     c.dramTailLatency("ag0", cyc);
    }
    EXPECT_TRUE(anyDiffer) << "different seeds never diverged";
}

TEST(FaultInjector, SiteFilterAndCountCap)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("fifo-leak@1.0:site=bufA:count=2")};
    fault::FaultInjector inj(plan, 1);
    EXPECT_FALSE(inj.fifoLeak("bufB_stream", 10));
    EXPECT_TRUE(inj.fifoLeak("bufA_stream", 10));
    EXPECT_TRUE(inj.fifoLeak("bufA_stream", 11));
    // Count cap: two strikes consumed, the third never fires.
    EXPECT_FALSE(inj.fifoLeak("bufA_stream", 12));
    EXPECT_EQ(inj.totalInjections(), 2u);
}

TEST(FaultInjector, CompileFaultCountGatesRetries)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("compile-fault:count=2")};
    fault::FaultInjector inj(plan, 1);
    EXPECT_TRUE(inj.compileFault("key"));  // Attempt 1 fails.
    EXPECT_TRUE(inj.compileFault("key"));  // Attempt 2 fails.
    EXPECT_FALSE(inj.compileFault("key")); // Attempt 3 passes.
}

TEST(FaultInjector, HostFaultCountCapsAttempts)
{
    // Host-level kinds share compile-fault's attempt-sequence
    // semantics: every call advances the spec's attempt counter, so
    // `count` caps total strikes across retries, not per-site.
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("disk-enospc:count=1"),
        fault::parseFaultSpec("sock-drop:count=2")};
    fault::FaultInjector inj(plan, 7);
    EXPECT_TRUE(inj.diskEnospc("keyA"));   // Strike 1 — cap hit.
    EXPECT_FALSE(inj.diskEnospc("keyA"));
    EXPECT_FALSE(inj.diskEnospc("keyB"));
    EXPECT_TRUE(inj.sockDrop("conn-1"));
    EXPECT_TRUE(inj.sockDrop("conn-2"));
    EXPECT_FALSE(inj.sockDrop("conn-1"));
    EXPECT_EQ(inj.totalInjections(), 3u);
}

TEST(FaultInjector, HostFaultDecisionsAreSeedDeterministic)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("sock-torn-write@0.5")};
    fault::FaultInjector a(plan, 42), b(plan, 42), c(plan, 43);
    bool anyDiffer = false;
    for (int i = 0; i < 200; ++i) {
        std::string site = "conn-" + std::to_string(i % 7);
        bool da = a.sockTornWrite(site);
        EXPECT_EQ(da, b.sockTornWrite(site)) << i;
        anyDiffer = anyDiffer || da != c.sockTornWrite(site);
    }
    EXPECT_TRUE(anyDiffer) << "different seeds never diverged";
}

TEST(FaultInjector, ShortWriteKeepIsBoundedAndDeterministic)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("disk-short-write")};
    fault::FaultInjector inj(plan, 11), twin(plan, 11);
    for (size_t size : {2u, 3u, 17u, 4096u}) {
        size_t keep = inj.shortWriteKeep("key", size);
        EXPECT_GE(keep, 1u) << size;
        EXPECT_LT(keep, size) << size; // A short write always tears.
        EXPECT_EQ(keep, twin.shortWriteKeep("key", size)) << size;
    }
    // Degenerate sizes cannot be torn shorter.
    EXPECT_EQ(inj.shortWriteKeep("key", 1), 1u);
    EXPECT_EQ(inj.shortWriteKeep("key", 0), 0u);
}

// --- Classifier unit tests -------------------------------------------------

fault::WaitNode
node(const std::string &unit, const std::string &wants,
     const std::string &resource, int provider,
     bool providerFinished = false)
{
    fault::WaitNode n;
    n.unit = unit;
    n.wants = wants;
    n.resource = resource;
    n.provider = provider;
    n.providerFinished = providerFinished;
    return n;
}

TEST(Classify, CycleIsDeadlockWithExactCycle)
{
    // a -> b -> c -> b closes a 2-cycle {b, c}; a is outside it.
    std::vector<fault::WaitNode> blocked = {
        node("a", "data", "s_ab", 1),
        node("b", "credit", "s_bc", 2),
        node("c", "token", "s_cb", 1),
    };
    fault::FailureReport r =
        fault::classify(std::move(blocked), nullptr, 123);
    EXPECT_EQ(r.cls, fault::HangClass::Deadlock);
    EXPECT_EQ(r.atCycle, 123u);
    ASSERT_EQ(r.cycle.size(), 2u);
    EXPECT_EQ(r.cycle, (std::vector<int>{1, 2}));
    EXPECT_FALSE(r.seeded);
}

TEST(Classify, ChainToFinishedProviderIsStarvation)
{
    std::vector<fault::WaitNode> blocked = {
        node("a", "data", "s_ab", 1),
        node("b", "data", "s_done", -1, /*providerFinished=*/true),
    };
    fault::FailureReport r =
        fault::classify(std::move(blocked), nullptr, 55);
    EXPECT_EQ(r.cls, fault::HangClass::Starvation);
    EXPECT_TRUE(r.cycle.empty());
}

TEST(Classify, PermanentInjectionTakesPrecedenceOverCycle)
{
    // Even a closed wait cycle classifies as injected when a blocked
    // node's resource matches a permanent fault's site.
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("stuck-credit:site=(1,1)E")};
    fault::FaultInjector inj(plan, 7);
    ASSERT_GT(inj.stuckCredits("(1,1)E", 10), 0); // Log the strike.
    std::vector<fault::WaitNode> blocked = {
        node("a", "link-slot", "(1,1)E", 1),
        node("b", "credit", "s_ba", 0),
    };
    fault::FailureReport r = fault::classify(std::move(blocked), &inj, 99);
    EXPECT_EQ(r.cls, fault::HangClass::InjectedFault);
    EXPECT_EQ(r.culprit, "(1,1)E");
    EXPECT_TRUE(r.seeded);
    EXPECT_EQ(r.seed, 7u);
}

TEST(Classify, ReportJsonIsDeterministic)
{
    auto make = [] {
        std::vector<fault::WaitNode> blocked = {
            node("a", "data", "s_ab", 1),
            node("b", "token", "s_ba", 0),
        };
        blocked[0].stalls = {{"input-data", 100}};
        return fault::classify(std::move(blocked), nullptr, 77);
    };
    fault::FailureReport r1 = make(), r2 = make();
    EXPECT_EQ(r1.json(), r2.json());
    EXPECT_NE(r1.json().find("\"sara-failure-report/v1\""),
              std::string::npos);
    EXPECT_NE(r1.str().find("deadlock"), std::string::npos);
}

// --- End-to-end fault models -----------------------------------------------

struct CompiledWorkload
{
    workloads::Workload w;
    compiler::CompileResult compiled;
};

/** Compile once; individual tests re-simulate under different faults. */
CompiledWorkload &
sortWorkload()
{
    static CompiledWorkload *cw = [] {
        auto *out = new CompiledWorkload;
        workloads::WorkloadConfig cfg;
        cfg.par = 4;
        out->w = workloads::buildByName("sort", cfg);
        compiler::CompilerOptions opt;
        opt.spec = arch::PlasticineSpec::paper();
        opt.pnrIterations = 200;
        out->compiled = compiler::compile(out->w.program, opt);
        return out;
    }();
    return *cw;
}

runtime::RunOutcome
runSort(const sim::SimOptions &so, bool useNoc = false)
{
    auto &cw = sortWorkload();
    runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.sim = so;
    rc.sim.useNoc = useNoc;
    rc.preCompiled = &cw.compiled;
    return runtime::runWorkload(cw.w, rc);
}

TEST(FaultSim, ZeroOverheadWhenOff)
{
    // The acceptance bar for "injection disabled": a run with an
    // attached-but-empty injector is cycle-identical to a run with no
    // injector at all, on both the legacy and NoC timing models.
    fault::FaultInjector empty({}, 1);
    for (bool useNoc : {false, true}) {
        sim::SimOptions so;
        auto off = runSort(so, useNoc);
        so.fault = &empty;
        auto on = runSort(so, useNoc);
        EXPECT_EQ(off.sim.cycles, on.sim.cycles) << "useNoc=" << useNoc;
        EXPECT_EQ(off.sim.totalFirings, on.sim.totalFirings);
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            EXPECT_EQ(off.sim.stallTotals[c], on.sim.stallTotals[c])
                << "cause " << c << " useNoc=" << useNoc;
        EXPECT_EQ(empty.totalInjections(), 0u);
    }
}

TEST(FaultSim, SameSeedReplaysCycleIdentical)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("dram-tail@0.5:delay=100")};
    fault::FaultInjector a(plan, 7), b(plan, 7), c(plan, 9);
    sim::SimOptions so;
    so.fault = &a;
    auto r1 = runSort(so);
    so.fault = &b;
    auto r2 = runSort(so);
    so.fault = &c;
    auto r3 = runSort(so);
    EXPECT_EQ(r1.sim.cycles, r2.sim.cycles);
    EXPECT_EQ(r1.sim.totalFirings, r2.sim.totalFirings);
    EXPECT_EQ(a.totalInjections(), b.totalInjections());
    // A different seed lands different strikes (cycle counts may or
    // may not coincide, but the decision stream must not).
    EXPECT_NE(a.totalInjections(), 0u);
    auto la = a.injections(), lc = c.injections();
    EXPECT_TRUE(la.size() != lc.size() ||
                !std::equal(la.begin(), la.end(), lc.begin(),
                            [](const auto &x, const auto &y) {
                                return x.cycle == y.cycle &&
                                       x.site == y.site;
                            }));
}

TEST(FaultSim, DramTailSlowsTheRun)
{
    auto clean = runSort({});
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("dram-tail@1.0:delay=200")};
    fault::FaultInjector inj(plan, 1);
    sim::SimOptions so;
    so.fault = &inj;
    auto faulted = runSort(so);
    EXPECT_GT(faulted.sim.cycles, clean.sim.cycles);
    EXPECT_GT(inj.totalInjections(), 0u);
    // Functional results are untouched by timing faults.
    ASSERT_EQ(faulted.sim.tensors.size(), clean.sim.tensors.size());
    for (size_t t = 0; t < clean.sim.tensors.size(); ++t)
        EXPECT_EQ(faulted.sim.tensors[t], clean.sim.tensors[t]);
}

TEST(FaultSim, FifoLeakSlowsTheRun)
{
    auto clean = runSort({});
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("fifo-leak@1.0")};
    fault::FaultInjector inj(plan, 1);
    sim::SimOptions so;
    so.fault = &inj;
    auto faulted = runSort(so);
    EXPECT_GT(inj.totalInjections(), 0u);
    EXPECT_GE(faulted.sim.cycles, clean.sim.cycles);
    ASSERT_EQ(faulted.sim.tensors.size(), clean.sim.tensors.size());
    for (size_t t = 0; t < clean.sim.tensors.size(); ++t)
        EXPECT_EQ(faulted.sim.tensors[t], clean.sim.tensors[t]);
}

TEST(FaultSim, NocDelayAndDupKeepResultsCorrect)
{
    auto clean = runSort({}, /*useNoc=*/true);
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("noc-delay@0.2:delay=6"),
        fault::parseFaultSpec("noc-dup@0.1")};
    fault::FaultInjector inj(plan, 3);
    sim::SimOptions so;
    so.fault = &inj;
    auto faulted = runSort(so, /*useNoc=*/true);
    EXPECT_GT(inj.totalInjections(), 0u);
    EXPECT_GE(faulted.sim.cycles, clean.sim.cycles);
    // Duplicated flits must deliver exactly once: same firing count,
    // same tensors.
    EXPECT_EQ(faulted.sim.totalFirings, clean.sim.totalFirings);
    ASSERT_EQ(faulted.sim.tensors.size(), clean.sim.tensors.size());
    for (size_t t = 0; t < clean.sim.tensors.size(); ++t)
        EXPECT_EQ(faulted.sim.tensors[t], clean.sim.tensors[t]);
}

// --- Hang classification, end to end ---------------------------------------

TEST(HangDiagnosis, StuckCreditHangIsClassifiedInjected)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("stuck-credit@1.0:window=500-:delay=64")};
    auto runOnce = [&plan] {
        fault::FaultInjector inj(plan, 1);
        sim::SimOptions so;
        so.fault = &inj;
        std::string json;
        try {
            runSort(so, /*useNoc=*/true);
        } catch (const fault::HangError &e) {
            EXPECT_EQ(e.report().cls, fault::HangClass::InjectedFault);
            EXPECT_FALSE(e.report().culprit.empty());
            // The culprit is a NoC link site: "(x,y)DIR".
            EXPECT_EQ(e.report().culprit.front(), '(');
            EXPECT_TRUE(e.report().seeded);
            EXPECT_NE(e.report().str().find("injected-fault-induced"),
                      std::string::npos);
            json = e.report().json();
        }
        return json;
    };
    std::string j1 = runOnce();
    ASSERT_FALSE(j1.empty()) << "stuck-credit hang did not trigger";
    // Seeded replay: byte-identical structured report.
    EXPECT_EQ(j1, runOnce());
}

TEST(HangDiagnosis, DramTimeoutHangIsClassifiedInjected)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("dram-timeout@1.0:count=1")};
    fault::FaultInjector inj(plan, 1);
    sim::SimOptions so;
    so.fault = &inj;
    bool hung = false;
    try {
        runSort(so);
    } catch (const fault::HangError &e) {
        hung = true;
        EXPECT_EQ(e.report().cls, fault::HangClass::InjectedFault);
        EXPECT_FALSE(e.report().culprit.empty());
        EXPECT_FALSE(e.report().blocked.empty());
    }
    EXPECT_TRUE(hung) << "dropped DRAM response did not hang the run";
}

/** Sabotaged CMMC credits: a genuine protocol hang, no injector. */
compiler::CompileResult
sabotagedSgd(workloads::Workload &w)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 4;
    w = workloads::buildByName("sgd", cfg);
    compiler::CompilerOptions opt;
    opt.pnrIterations = 200;
    auto compiled = compiler::compile(w.program, opt);
    bool sabotaged = false;
    for (auto &s : compiled.lowering.graph.streams())
        if (s.initTokens > 0) {
            s.initTokens = 0;
            sabotaged = true;
            break;
        }
    EXPECT_TRUE(sabotaged);
    return compiled;
}

TEST(HangDiagnosis, GenuineHangIsNotBlamedOnInjection)
{
    workloads::Workload w;
    auto compiled = sabotagedSgd(w);
    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             dram::DramSpec::hbm2());
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    bool hung = false;
    try {
        simulator.run();
    } catch (const fault::HangError &e) {
        hung = true;
        const fault::FailureReport &r = e.report();
        // No injector attached: must be deadlock or starvation, never
        // injected-fault-induced, and never an unclassified panic.
        EXPECT_NE(r.cls, fault::HangClass::InjectedFault);
        EXPECT_FALSE(r.seeded);
        EXPECT_FALSE(r.blocked.empty());
        if (r.cls == fault::HangClass::Deadlock)
            EXPECT_GE(r.cycle.size(), 2u) << "deadlock without a cycle";
    }
    EXPECT_TRUE(hung);
}

TEST(HangDiagnosis, HangErrorIsAPanicError)
{
    // The exit-code contract: HangError must be catchable as
    // PanicError so sarac's existing catch chain maps it to exit 4.
    workloads::Workload w;
    auto compiled = sabotagedSgd(w);
    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             dram::DramSpec::hbm2());
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    EXPECT_THROW(simulator.run(), PanicError);
}

TEST(HangDiagnosis, HangMessageIncludesStallHistograms)
{
    // The hang message names what each blocked engine waits on and
    // carries its stall-cause histogram.
    workloads::Workload w;
    auto compiled = sabotagedSgd(w);
    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             dram::DramSpec::hbm2());
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    try {
        simulator.run();
        FAIL() << "sabotaged graph did not hang";
    } catch (const PanicError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("waiting on"), std::string::npos);
        EXPECT_NE(msg.find("stalls:"), std::string::npos)
            << "hang message lost the stall histograms";
    }
}

} // namespace
} // namespace sara
