/**
 * @file
 * Per-unit performance-counter tests: CounterFile semantics and JSON
 * emission, the reconciliation invariant (counter sums over unit
 * blocks equal the global stall/wakeup accounting exactly, across the
 * full workload suite on both timing models), the golden-checked
 * `--counters` rendering, the flight-recorder ring, the failure-report
 * timeline it feeds, and a host-profiler smoke test.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "fault/fault.h"
#include "runtime/run.h"
#include "support/counters.h"
#include "support/flight.h"
#include "support/hostprof.h"
#include "support/json.h"
#include "workloads/workload.h"

namespace sara {
namespace {

using namespace telemetry;

// ---------------------------------------------------------------------------
// CounterFile.
// ---------------------------------------------------------------------------

TEST(CounterFile, SetAddGetAndInsertionOrder)
{
    CounterFile cf;
    EXPECT_TRUE(cf.empty());
    CounterBlock &b = cf.block("pcu_0");
    b.kind = "pcu";
    b.set("firings", 10);
    b.add("firings", 5);
    b.set("busy", 100);
    b.set("busy", 90); // Overwrite, not append.
    b.add("bytes", 64);
    EXPECT_EQ(b.get("firings"), 15u);
    EXPECT_EQ(b.get("busy"), 90u);
    EXPECT_EQ(b.get("bytes"), 64u);
    EXPECT_EQ(b.get("missing"), 0u);
    ASSERT_EQ(b.counters.size(), 3u);
    EXPECT_EQ(b.counters[0].first, "firings");
    EXPECT_EQ(b.counters[1].first, "busy");
    EXPECT_EQ(b.counters[2].first, "bytes");

    // block() is find-or-create; blocks keep insertion order.
    cf.block("ag_in").kind = "ag";
    EXPECT_EQ(&cf.block("pcu_0"), &cf.blocks()[0]);
    ASSERT_EQ(cf.size(), 2u);
    EXPECT_EQ(cf.blocks()[0].id, "pcu_0");
    EXPECT_EQ(cf.blocks()[1].id, "ag_in");
    EXPECT_NE(cf.find("ag_in"), nullptr);
    EXPECT_EQ(cf.find("nope"), nullptr);
    EXPECT_EQ(cf.findMutable("nope"), nullptr);
}

TEST(CounterFile, TotalsOverallAndPerKind)
{
    CounterFile cf;
    cf.block("a").kind = "pcu";
    cf.block("a").set("busy", 10);
    cf.block("b").kind = "ag";
    cf.block("b").set("busy", 7);
    cf.block("r").kind = "router";
    cf.block("r").set("busy", 100);
    EXPECT_EQ(cf.total("busy"), 117u);
    EXPECT_EQ(cf.total("busy", "pcu"), 10u);
    EXPECT_EQ(cf.total("busy", "ag"), 7u);
    EXPECT_EQ(cf.total("busy", "pmu"), 0u);
    EXPECT_EQ(cf.total("missing"), 0u);
}

TEST(CounterFile, WriteJsonParsesBack)
{
    CounterFile cf;
    CounterBlock &b = cf.block("pcu_3");
    b.kind = "pcu";
    b.x = 2;
    b.y = 5;
    b.set("firings", 42);
    b.set("stall.credit", 9);

    json::Writer w;
    cf.writeJson(w);
    json::Value v = json::parse(w.str());
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.arr.size(), 1u);
    const json::Value &blk = v.arr[0];
    EXPECT_EQ(blk.at("id").str, "pcu_3");
    EXPECT_EQ(blk.at("kind").str, "pcu");
    EXPECT_EQ(blk.at("x").num, 2.0);
    EXPECT_EQ(blk.at("y").num, 5.0);
    EXPECT_EQ(blk.at("counters").at("firings").num, 42.0);
    EXPECT_EQ(blk.at("counters").at("stall.credit").num, 9.0);
}

// ---------------------------------------------------------------------------
// Reconciliation: the counter file is a lossless re-keying of the
// global accounting — never a second bookkeeping that can drift.
// ---------------------------------------------------------------------------

void
expectReconciled(const std::string &name, bool useNoc)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName(name, cfg);
    runtime::RunConfig rc;
    rc.sim.useNoc = useNoc;
    auto r = runtime::runWorkload(w, rc);
    const CounterFile &cf = r.sim.counters;
    std::string label = name + (useNoc ? "/noc" : "/fixed");
    ASSERT_FALSE(cf.empty()) << label;

    // Per-cause stall sums over all unit blocks == global stallTotals.
    for (int c = 0; c < sim::kNumStallCauses; ++c) {
        std::string counter =
            std::string("stall.") +
            sim::stallCauseName(static_cast<sim::StallCause>(c));
        EXPECT_EQ(cf.total(counter), r.sim.stallTotals[c])
            << label << ": " << counter;
    }

    // Busy / firing totals match the per-unit stats and aggregates.
    uint64_t busy = 0;
    for (const auto &s : r.sim.unitStats)
        busy += s.busyCycles;
    EXPECT_EQ(cf.total("busy"), busy) << label;
    EXPECT_EQ(cf.total("firings"), r.sim.totalFirings) << label;

    // Engine blocks bound their unit's lifetime: busy + stalls + idle
    // covers the whole run for every block.
    for (const auto &b : cf.blocks()) {
        if (b.kind == "router")
            continue;
        uint64_t stall = 0;
        for (const auto &[k, v] : b.counters)
            if (k.rfind("stall.", 0) == 0)
                stall += v;
        EXPECT_EQ(b.get("busy") + stall + b.get("idle"), r.sim.cycles)
            << label << ": " << b.id;
    }

    // Wakeup-class tallies sum to the aggregates.
    uint64_t wake = 0, spur = 0;
    for (int c = 0; c < sim::kNumWakeClasses; ++c) {
        wake += r.sim.wakeupsByClass[c];
        spur += r.sim.spuriousByClass[c];
        EXPECT_LE(r.sim.spuriousByClass[c], r.sim.wakeupsByClass[c])
            << label;
    }
    EXPECT_EQ(wake, r.sim.wakeups) << label;
    EXPECT_EQ(spur, r.sim.spuriousWakeups) << label;

    // Router blocks re-key the NoC link telemetry exactly.
    if (useNoc) {
        EXPECT_EQ(cf.total("traversals", "router"), r.sim.noc.hops)
            << label;
        EXPECT_EQ(cf.total("wait_cycles", "router"),
                  r.sim.noc.queueCycles)
            << label;
        EXPECT_EQ(cf.total("links", "router"),
                  static_cast<uint64_t>(r.sim.noc.links))
            << label;
    } else {
        EXPECT_EQ(cf.total("traversals", "router"), 0u) << label;
    }
}

TEST(Reconcile, FixedLatencyAllWorkloads)
{
    for (const auto &name : workloads::workloadNames())
        expectReconciled(name, /*useNoc=*/false);
}

TEST(Reconcile, NocAllWorkloads)
{
    for (const auto &name : workloads::workloadNames())
        expectReconciled(name, /*useNoc=*/true);
}

// ---------------------------------------------------------------------------
// Golden rendering: the `--counters` payload is deterministic.
// ---------------------------------------------------------------------------

TEST(Render, GoldenCountersMs)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    runtime::RunConfig rc;
    auto r = runtime::runWorkload(w, rc);
    std::string got = renderCounterReport(
        r.sim.counters, rc.compiler.spec.rows, rc.compiler.spec.cols,
        r.sim.cycles);

    std::string golden = std::string(GOLDEN_DIR) + "/counters_ms.txt";
    if (std::getenv("SARA_UPDATE_GOLDEN")) {
        std::ofstream out(golden);
        out << got;
        GTEST_SKIP() << "regenerated " << golden;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in.good())
        << "missing golden file counters_ms.txt (regenerate with "
           "SARA_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "counter report drifted; regenerate tests/golden/"
           "counters_ms.txt if the change is intentional";

    // Two renders of the same run are byte-identical.
    EXPECT_EQ(got, renderCounterReport(r.sim.counters,
                                       rc.compiler.spec.rows,
                                       rc.compiler.spec.cols,
                                       r.sim.cycles));
}

TEST(Render, HeatmapMarksPlacedUnits)
{
    CounterFile cf;
    CounterBlock &b = cf.block("pcu_0");
    b.kind = "pcu";
    b.x = 0;
    b.y = 0;
    b.set("busy", 50);
    std::string map = renderHeatmap(cf, 2, 2, 100);
    // 50% busy renders ramp step 5 ('+'); empty cells stay blank.
    EXPECT_NE(map.find('+'), std::string::npos) << map;
    EXPECT_NE(map.find("fabric utilization"), std::string::npos);
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
