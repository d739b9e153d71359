/**
 * @file
 * Per-unit performance-counter tests: the reconciliation invariant
 * (the run report's counter blocks sum to the global stall, firing,
 * wakeup and NoC accounting exactly, for every workload on both timing
 * models at par 8 and 32), the golden-checked `--counters` rendering,
 * the flight-recorder ring, the failure-report timeline it feeds, and
 * a host-profiler smoke test.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fault/fault.h"
#include "runtime/run.h"
#include "support/flight.h"
#include "support/hostprof.h"
#include "support/json.h"
#include "workloads/workload.h"

namespace sara {
namespace {

using namespace telemetry;

// ---------------------------------------------------------------------------
// Reconciliation: the run report's per-unit counters re-key the global
// accounting exactly, one block per engine, including the outer-unrolled
// clones that share a name above par 16.
// ---------------------------------------------------------------------------

uint64_t
num(const json::Value &v, const std::string &key)
{
    return static_cast<uint64_t>(v.at(key).num);
}

void
expectReconciled(const std::string &name, int par, bool useNoc)
{
    workloads::WorkloadConfig cfg;
    cfg.par = par;
    auto w = workloads::buildByName(name, cfg);
    runtime::RunConfig rc;
    rc.sim.useNoc = useNoc;
    auto r = runtime::runWorkload(w, rc);
    json::Value report = json::parse(runtime::jsonReport(w, rc, r));
    const json::Value &sim = report.at("sim");
    std::string label = name + " par " + std::to_string(par) +
                        (useNoc ? "/noc" : "/fixed");

    std::vector<const json::Value *> engines, routers;
    for (const json::Value &b : sim.at("counters").arr)
        (b.at("kind").str == "router" ? routers : engines).push_back(&b);
    size_t engineUnits = 0;
    for (const auto &u : r.compiled->lowering.graph.units())
        engineUnits += u.kind != dfg::VuKind::Memory;
    ASSERT_EQ(engines.size(), engineUnits) << label;

    // Per-cause stall sums over the engine blocks == sim.stalls, and
    // firings sum to total_firings.
    for (const auto &[cause, total] : sim.at("stalls").obj) {
        uint64_t sum = 0;
        for (const json::Value *b : engines)
            sum += num(b->at("counters"), "stall." + cause);
        EXPECT_EQ(sum, static_cast<uint64_t>(total.num))
            << label << ": stall." << cause;
    }
    uint64_t firings = 0, busy = 0, unitBusy = 0;
    for (const json::Value *b : engines) {
        firings += num(b->at("counters"), "firings");
        busy += num(b->at("counters"), "busy");
    }
    for (const json::Value &u : sim.at("units").arr)
        unitBusy += num(u, "busy");
    EXPECT_EQ(firings, num(sim, "total_firings")) << label;
    EXPECT_EQ(busy, unitBusy) << label;

    // Engine blocks bound their unit's lifetime: busy + stalls + idle
    // covers the whole run for every block.
    for (const json::Value *b : engines) {
        uint64_t sum = 0;
        for (const auto &[k, v] : b->at("counters").obj)
            if (k == "busy" || k == "idle" || k.rfind("stall.", 0) == 0)
                sum += static_cast<uint64_t>(v.num);
        EXPECT_EQ(sum, num(sim, "cycles")) << label << ": "
                                           << b->at("id").str;
    }

    // Wakeup-class tallies sum to the aggregates.
    const json::Value &host = sim.at("host");
    uint64_t wake = 0, spur = 0;
    for (const auto &[cls, v] : host.at("wakeup_classes").obj) {
        wake += num(v, "wakeups");
        spur += num(v, "spurious");
        EXPECT_LE(num(v, "spurious"), num(v, "wakeups")) << label;
    }
    EXPECT_EQ(wake, num(host, "wakeups")) << label;
    EXPECT_EQ(spur, num(host, "spurious_wakeups")) << label;

    // Router blocks re-key the NoC link telemetry exactly.
    if (useNoc) {
        uint64_t traversals = 0, waits = 0, links = 0;
        for (const json::Value *b : routers) {
            traversals += num(b->at("counters"), "traversals");
            waits += num(b->at("counters"), "wait_cycles");
            links += num(b->at("counters"), "links");
        }
        const json::Value &noc = sim.at("noc");
        EXPECT_EQ(traversals, num(noc, "hops")) << label;
        EXPECT_EQ(waits, num(noc, "queue_cycles")) << label;
        EXPECT_EQ(links, num(noc, "links")) << label;
    } else {
        EXPECT_TRUE(routers.empty()) << label;
    }
}

TEST(Reconcile, FixedLatencyAllWorkloads)
{
    for (int par : {8, 32})
        for (const auto &name : workloads::allWorkloadNames())
            expectReconciled(name, par, /*useNoc=*/false);
}

TEST(Reconcile, NocAllWorkloads)
{
    for (int par : {8, 32})
        for (const auto &name : workloads::allWorkloadNames())
            expectReconciled(name, par, /*useNoc=*/true);
}

// ---------------------------------------------------------------------------
// Golden rendering: the `--counters` payload is deterministic.
// ---------------------------------------------------------------------------

void
expectGoldenCounters(const std::string &file, bool useNoc)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    runtime::RunConfig rc;
    rc.sim.useNoc = useNoc;
    auto r = runtime::runWorkload(w, rc);
    std::string got = runtime::counterReport(rc, r);

    std::string golden = std::string(GOLDEN_DIR) + "/" + file;
    if (std::getenv("SARA_UPDATE_GOLDEN")) {
        std::ofstream out(golden);
        out << got;
        GTEST_SKIP() << "regenerated " << golden;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in.good()) << "missing golden file " << file
                           << " (regenerate with SARA_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "counter report drifted; regenerate tests/golden/" << file
        << " if the change is intentional";

    // Two renders of the same run are byte-identical.
    EXPECT_EQ(got, runtime::counterReport(rc, r));
}

TEST(Render, GoldenCountersMs)
{
    expectGoldenCounters("counters_ms.txt", /*useNoc=*/false);
}

TEST(Render, GoldenCountersMsNoc)
{
    // The only rendering of the NoC `routers:` summary line.
    expectGoldenCounters("counters_ms_noc.txt", /*useNoc=*/true);
}

TEST(Render, HeatmapMarksPlacedUnits)
{
    // One Compute unit at (0,0), busy 50 of 100 cycles, on a 2x2 grid.
    auto compiled = std::make_shared<compiler::CompileResult>();
    dfg::Vudfg &g = compiled->lowering.graph;
    dfg::VuId id = g.addUnit(dfg::VuKind::Compute, "pcu_0");
    g.unit(id).placeX = 0;
    g.unit(id).placeY = 0;
    runtime::RunOutcome r;
    r.compiled = compiled;
    r.sim.cycles = 100;
    r.sim.unitStats.resize(1);
    r.sim.unitStats[0].busyCycles = 50;
    r.sim.unitStats[0].doneAt = 50;
    runtime::RunConfig rc;
    rc.compiler.spec.rows = 2;
    rc.compiler.spec.cols = 2;

    std::string out = runtime::counterReport(rc, r);
    EXPECT_NE(out.find("| pcu_0 | pcu  | (0,0) |"), std::string::npos)
        << out;
    EXPECT_NE(out.find("fabric utilization (busy cycles / 100 total, "
                       "2x2):"),
              std::string::npos)
        << out;
    // 50% busy renders ramp step 5 ('+'); the empty cells stay blank.
    EXPECT_NE(out.find("  1 |  |\n  0 |+ |\n"), std::string::npos)
        << out;
    EXPECT_EQ(out.find("routers:"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(Flight, RingWrapsKeepingNewestOldestFirst)
{
    FlightRecorder fr(4);
    EXPECT_TRUE(fr.enabled());
    EXPECT_EQ(fr.capacity(), 4u);
    for (int i = 0; i < 10; ++i)
        fr.record(FlightKind::Fire, static_cast<uint64_t>(i), i);
    EXPECT_EQ(fr.size(), 4u);
    EXPECT_EQ(fr.totalRecorded(), 10u);
    auto ev = fr.events();
    ASSERT_EQ(ev.size(), 4u);
    // The last four events, oldest first.
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(ev[i].at, static_cast<uint64_t>(6 + i));
        EXPECT_EQ(ev[i].a, 6 + i);
    }
}

TEST(Flight, PartialFillPreservesOrder)
{
    FlightRecorder fr(8);
    fr.record(FlightKind::Park, 5, 1, 2);
    fr.record(FlightKind::Wake, 7, 1, 0);
    auto ev = fr.events();
    ASSERT_EQ(ev.size(), 2u);
    EXPECT_EQ(ev[0].kind, FlightKind::Park);
    EXPECT_EQ(ev[0].b, 2);
    EXPECT_EQ(ev[1].kind, FlightKind::Wake);
}

TEST(Flight, CapacityZeroDisables)
{
    FlightRecorder fr(0);
    EXPECT_FALSE(fr.enabled());
    fr.record(FlightKind::Fire, 1, 1);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.totalRecorded(), 0u);
    EXPECT_TRUE(fr.events().empty());

    fr.reset(2); // Re-arm.
    EXPECT_TRUE(fr.enabled());
    fr.record(FlightKind::Fire, 1, 1);
    EXPECT_EQ(fr.size(), 1u);
}

TEST(Flight, KindNamesAreStable)
{
    EXPECT_STREQ(flightKindName(FlightKind::Fire), "fire");
    EXPECT_STREQ(flightKindName(FlightKind::LinkGrant), "link-grant");
    EXPECT_STREQ(flightKindName(FlightKind::Deliver), "deliver");
}

// ---------------------------------------------------------------------------
// Failure-report timeline (flight recorder -> exit-4 diagnostics).
// ---------------------------------------------------------------------------

TEST(Timeline, HangReportCarriesRecentEvents)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("dram-timeout@1.0:count=1")};
    fault::FaultInjector inj(plan, 1);
    workloads::WorkloadConfig cfg;
    cfg.par = 4;
    auto w = workloads::buildByName("sort", cfg);
    runtime::RunConfig rc;
    rc.check = false;
    rc.sim.fault = &inj;
    bool hung = false;
    try {
        runtime::runWorkload(w, rc);
    } catch (const fault::HangError &e) {
        hung = true;
        const fault::FailureReport &fr = e.report();
        ASSERT_FALSE(fr.timeline.empty())
            << "flight recorder produced no timeline";
        EXPECT_LE(fr.timeline.size(), size_t{256});
        // Events are cycle-ordered and name-resolved.
        for (size_t i = 1; i < fr.timeline.size(); ++i)
            EXPECT_LE(fr.timeline[i - 1].cycle, fr.timeline[i].cycle);
        for (const auto &ev : fr.timeline) {
            EXPECT_FALSE(ev.kind.empty());
            EXPECT_EQ(ev.detail.find('?'), std::string::npos)
                << ev.kind << " " << ev.detail;
        }
        // Both renderings carry the timeline.
        EXPECT_NE(fr.str().find("recent events (flight recorder"),
                  std::string::npos);
        EXPECT_NE(fr.json().find("\"timeline\""), std::string::npos);
        json::Value v = json::parse(fr.json());
        ASSERT_TRUE(v.at("timeline").isArray());
        EXPECT_EQ(v.at("timeline").arr.size(), fr.timeline.size());
        EXPECT_TRUE(v.has("timeline_dropped"));
    }
    EXPECT_TRUE(hung) << "dropped DRAM response did not hang the run";
}

// ---------------------------------------------------------------------------
// Host sampling profiler.
// ---------------------------------------------------------------------------

TEST(HostProf, DisabledMarkersAreNoOps)
{
    ASSERT_FALSE(HostProfiler::global().running());
    EXPECT_FALSE(HostProfiler::enabled());
    {
        ScopedPhase p(HostPhase::NocArb); // One branch, no effect.
    }
    EXPECT_EQ(HostProfiler::global().totalSamples(), 0u);
}

TEST(HostProf, SamplesLandInMarkedPhase)
{
    auto &prof = HostProfiler::global();
    prof.start(/*periodUs=*/100);
    ASSERT_TRUE(prof.running());
    prof.clearSamples();
    {
        // Hold one phase long enough for the sampler to see it.
        ScopedPhase p(HostPhase::Dram);
        volatile uint64_t sink = 0;
        auto t0 = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - t0 <
               std::chrono::milliseconds(50))
            sink = sink + 1;
    }
    prof.stop();
    EXPECT_FALSE(prof.running());
    EXPECT_GT(prof.totalSamples(), 0u)
        << "sampler thread took no samples in 50ms";
    EXPECT_GT(prof.samples(HostPhase::Dram), 0u);

    uint64_t sum = 0;
    for (int p = 0; p < kNumHostPhases; ++p)
        sum += prof.samples(static_cast<HostPhase>(p));
    EXPECT_EQ(sum, prof.totalSamples());

    prof.clearSamples();
    EXPECT_EQ(prof.totalSamples(), 0u);
}

TEST(HostProf, NestedScopesRestoreOuterPhase)
{
    auto &prof = HostProfiler::global();
    prof.start(/*periodUs=*/100000); // Slow sampler; we test the marks.
    {
        ScopedPhase outer(HostPhase::Dram);
        {
            ScopedPhase inner(HostPhase::NocArb);
            EXPECT_EQ(HostProfiler::exchangePhase(HostPhase::NocArb),
                      HostPhase::NocArb);
        }
        // Inner scope restored the outer phase.
        EXPECT_EQ(HostProfiler::exchangePhase(HostPhase::Dram),
                  HostPhase::Dram);
    }
    prof.stop();
}

} // namespace
} // namespace sara
