/**
 * @file
 * Interconnect subsystem tests: PnR route export (shape, contiguity,
 * dimension order), the estimator/model consistency contract
 * (`PnrReport::maxLinkLoad` == the NoC's static peak streams-per-link),
 * unit-level NoC behaviour (pipelined throughput, deterministic
 * round-robin arbitration, link-buffer admission), and the end-to-end
 * acceptance bar: `--noc` changes cycle counts on a dense workload,
 * the delta lands in `StallCause::Network` with exact accounting, and
 * two identical runs are cycle-identical.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <deque>
#include <vector>

#include "compiler/driver.h"
#include "compiler/pnr.h"
#include "noc/noc.h"
#include "runtime/run.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "workloads/workload.h"

namespace sara {
namespace {

compiler::CompilerOptions
paperOptions()
{
    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::paper();
    opt.pnrIterations = 200;
    return opt;
}

/** First stat named `key` on the "pnr" phase span (-1 when absent). */
double
pnrStat(const compiler::CompileResult &r, const std::string &key)
{
    for (const auto &s : r.phases)
        if (s.name == "pnr")
            return s.stat(key, -1.0);
    return -1.0;
}

// --- Route export ----------------------------------------------------------

TEST(NocRoutes, AreContiguousDimensionOrder)
{
    // Every inter-cell stream must carry the exact X-then-Y walk from
    // its source cell to its destination cell; co-located endpoints
    // carry no route.
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto opt = paperOptions();
    for (const auto &name : workloads::workloadNames()) {
        auto w = workloads::buildByName(name, cfg);
        auto r = compiler::compile(w.program, opt);
        const auto &g = r.lowering.graph;
        int routed = 0, hops = 0;
        for (const auto &s : g.streams()) {
            const auto &su = g.unit(s.src);
            const auto &du = g.unit(s.dst);
            if (su.mergedInto == du.mergedInto) {
                EXPECT_TRUE(s.route.empty())
                    << name << ": intra-cell stream " << s.name
                    << " has a route";
                continue;
            }
            int manhattan = std::abs(su.placeX - du.placeX) +
                            std::abs(su.placeY - du.placeY);
            ASSERT_EQ(static_cast<int>(s.route.size()), manhattan)
                << name << ": " << s.name;
            routed += manhattan > 0;
            hops += manhattan;
            int x = su.placeX, y = su.placeY;
            bool turned = false;
            for (const auto &link : s.route) {
                EXPECT_EQ(link.x, x) << name << ": " << s.name;
                EXPECT_EQ(link.y, y) << name << ": " << s.name;
                switch (link.dir) {
                case dfg::LinkDir::East:
                    EXPECT_FALSE(turned) << name << ": " << s.name
                                         << " turns back into X";
                    ++x;
                    break;
                case dfg::LinkDir::West:
                    EXPECT_FALSE(turned) << name << ": " << s.name
                                         << " turns back into X";
                    --x;
                    break;
                case dfg::LinkDir::South:
                    turned = true;
                    ++y;
                    break;
                case dfg::LinkDir::North:
                    turned = true;
                    --y;
                    break;
                }
            }
            EXPECT_EQ(x, du.placeX) << name << ": " << s.name;
            EXPECT_EQ(y, du.placeY) << name << ": " << s.name;
        }
        // The route inventory the compiler reported matches what the
        // graph actually carries.
        EXPECT_EQ(routed, static_cast<int>(pnrStat(r, "routed-streams")))
            << name;
        EXPECT_EQ(hops, static_cast<int>(pnrStat(r, "route-hops")))
            << name;
    }
}

TEST(NocRoutes, PeakStaticLoadMatchesPnrEstimate)
{
    // The estimator/model consistency contract: the congestion the
    // router planned around (PnrReport::maxLinkLoad) must equal the
    // peak streams-per-link the NoC measures when handed the same
    // routes. Both count every routed stream over directed links, so
    // any drift means one side changed its route model.
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto opt = paperOptions();
    for (const auto &name : workloads::workloadNames()) {
        auto w = workloads::buildByName(name, cfg);
        auto r = compiler::compile(w.program, opt);

        sim::Scheduler sched;
        noc::NocSpec spec;
        noc::NocModel model(sched, spec);
        for (const auto &s : r.lowering.graph.streams())
            model.registerStream(s);

        EXPECT_EQ(model.peakStreamLoad(),
                  static_cast<int>(pnrStat(r, "max-link-load")))
            << name;
    }
}

TEST(NocRoutes, PlaceAndRouteReportsPeakDirectly)
{
    // Same contract via the phase API (no span indirection): call the
    // router directly and compare its report against the model.
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildByName("mlp", cfg);
    auto opt = paperOptions();
    auto r = compiler::compile(w.program, opt);

    auto graph = r.lowering.graph; // Re-route a copy.
    auto report = compiler::placeAndRoute(graph, opt);

    sim::Scheduler sched;
    noc::NocModel model(sched, noc::NocSpec{});
    for (const auto &s : graph.streams())
        model.registerStream(s);
    EXPECT_EQ(model.peakStreamLoad(), report.maxLinkLoad);
    EXPECT_GT(report.routedStreams, 0);
    EXPECT_GT(report.totalRouteHops, 0);
}

// --- Unit-level network behaviour ------------------------------------------

/** Delivery recorder handed to NocModel as the ejection callback. */
struct Delivery
{
    sim::Scheduler *sched;
    std::vector<std::pair<int, uint64_t>> *log; ///< (stream, cycle).
    int stream;

    static void
    fire(void *p)
    {
        auto *d = static_cast<Delivery *>(p);
        d->log->emplace_back(d->stream, d->sched->now());
    }
};

dfg::Stream
routedStream(int id, std::vector<dfg::RouteLink> route,
             dfg::StreamKind kind = dfg::StreamKind::Data)
{
    dfg::Stream s;
    s.id = dfg::StreamId(id);
    s.name = "s" + std::to_string(id);
    s.kind = kind;
    s.route = std::move(route);
    return s;
}

TEST(NocModel, UncontendedStreamIsFullyPipelined)
{
    // A single stream on a 3-hop route: flits injected back to back
    // must sustain one delivery per cycle — the link buffers and
    // reserve-at-grant credits add latency, never bandwidth loss.
    sim::Scheduler sched;
    noc::NocSpec spec; // hop 2, eject 2, min 4, buffer 2.
    noc::NocModel model(sched, spec);
    auto s = routedStream(0, {{0, 0, dfg::LinkDir::East},
                              {1, 0, dfg::LinkDir::East},
                              {2, 0, dfg::LinkDir::South}});
    model.registerStream(s);
    ASSERT_TRUE(model.participates(s.id));

    std::vector<std::pair<int, uint64_t>> log;
    std::deque<Delivery> ctx;
    const int n = 10;
    for (int i = 0; i < n; ++i) {
        ctx.push_back({&sched, &log, 0});
        model.injectAt(s.id, static_cast<uint64_t>(i), Delivery::fire,
                       &ctx.back());
    }
    sched.run();

    ASSERT_EQ(log.size(), static_cast<size_t>(n));
    // Transit = 2 grant-to-grant hops * hopLatency + ejectLatency.
    EXPECT_EQ(log.front().second, 6u);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(log[i].second, static_cast<uint64_t>(6 + i)) << i;

    auto stats = model.stats();
    EXPECT_EQ(stats.flits, static_cast<uint64_t>(n));
    EXPECT_EQ(stats.hops, static_cast<uint64_t>(3 * n));
    EXPECT_EQ(model.inflight(), 0u);
}

TEST(NocModel, SharedLinkArbitratesRoundRobinDeterministically)
{
    // Two streams funnel through the same directed link. The link
    // grants one flit per cycle, round-robin over stream ids, so the
    // combined drain takes 2x as long as either stream alone and the
    // interleave is exactly alternating — run twice to pin down
    // determinism.
    auto runOnce = [] {
        sim::Scheduler sched;
        noc::NocSpec spec;
        noc::NocModel model(sched, spec);
        dfg::RouteLink shared{3, 3, dfg::LinkDir::South};
        auto a = routedStream(0, {shared});
        auto b = routedStream(1, {shared});
        model.registerStream(a);
        model.registerStream(b);
        EXPECT_EQ(model.peakStreamLoad(), 2);

        std::vector<std::pair<int, uint64_t>> log;
        std::deque<Delivery> ctx;
        const int n = 4;
        for (int i = 0; i < n; ++i) {
            ctx.push_back({&sched, &log, 0});
            model.injectAt(a.id, 0, Delivery::fire, &ctx.back());
            ctx.push_back({&sched, &log, 1});
            model.injectAt(b.id, 0, Delivery::fire, &ctx.back());
        }
        sched.run();
        EXPECT_EQ(model.stats().queueCycles, 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
        return log;
    };

    auto log = runOnce();
    ASSERT_EQ(log.size(), 8u);
    // Grants at cycles 0..7 alternate 0,1,0,1,...; ejection adds a
    // fixed tail (floored at minLatency), preserving the order.
    for (size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(log[i].first, static_cast<int>(i % 2)) << i;
    for (size_t i = 1; i < log.size(); ++i)
        EXPECT_LE(log[i - 1].second, log[i].second) << i;
    EXPECT_EQ(log.back().second, 9u); // Last grant at 7 + eject 2.

    EXPECT_EQ(runOnce(), log); // Cycle-identical replay.
}

TEST(NocModel, AdmissionGateReflectsFirstHopBuffer)
{
    // canAccept mirrors the first-hop input buffer: `kLinkBuffer` flits
    // enter immediately, then the producer must wait for a grant.
    sim::Scheduler sched;
    noc::NocSpec spec;
    noc::NocModel model(sched, spec);
    auto s = routedStream(7, {{0, 0, dfg::LinkDir::East},
                              {1, 0, dfg::LinkDir::East}});
    model.registerStream(s);

    std::vector<std::pair<int, uint64_t>> log;
    std::deque<Delivery> ctx;
    for (int i = 0; i < noc::kLinkBuffer; ++i) {
        EXPECT_TRUE(model.canAccept(s.id)) << i;
        ctx.push_back({&sched, &log, 7});
        model.inject(s.id, Delivery::fire, &ctx.back());
    }
    EXPECT_FALSE(model.canAccept(s.id));
    sched.run();
    EXPECT_TRUE(model.canAccept(s.id));
    EXPECT_EQ(log.size(), static_cast<size_t>(noc::kLinkBuffer));

    auto stats = model.stats();
    EXPECT_EQ(stats.links, 2);
    ASSERT_EQ(stats.linkUse.size(), 2u);
    EXPECT_EQ(stats.linkUse[0].traversals,
              static_cast<uint64_t>(noc::kLinkBuffer));
    EXPECT_GE(stats.linkUse[0].queueHighWater,
              static_cast<uint64_t>(noc::kLinkBuffer));
}

TEST(NocModel, UnroutedStreamsDoNotParticipate)
{
    sim::Scheduler sched;
    noc::NocSpec spec;
    noc::NocModel model(sched, spec);
    auto data = routedStream(0, {}); // Intra-cell: no route.
    auto token = routedStream(1, {{0, 0, dfg::LinkDir::East}},
                              dfg::StreamKind::Token);
    model.registerStream(data);
    model.registerStream(token);
    EXPECT_FALSE(model.participates(data.id));
    EXPECT_TRUE(model.participates(token.id)); // CMMC rides the NoC.
    EXPECT_TRUE(model.canAccept(data.id));

    // Under hierarchical-FSM control tokens keep their scalar latency.
    noc::NocSpec fsm;
    fsm.routeTokens = false;
    noc::NocModel fsmModel(sched, fsm);
    fsmModel.registerStream(token);
    EXPECT_FALSE(fsmModel.participates(token.id));
    // Static link load still counts every routed stream, so the
    // estimator contract holds regardless of the control scheme.
    EXPECT_EQ(fsmModel.peakStreamLoad(), 1);
}

// --- End-to-end acceptance -------------------------------------------------

TEST(NocSim, ContentionChangesCyclesAndIsFullyAttributed)
{
    // The acceptance bar for the subsystem: on a dense workload the
    // contended network changes the cycle count, the delta is visible
    // as StallCause::Network, and every engine's cycle accounting
    // still sums exactly.
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildByName("mlp", cfg);

    runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.compiler.pnrIterations = 200;
    auto legacy = runtime::runWorkload(w, rc);
    EXPECT_FALSE(legacy.sim.noc.enabled);
    EXPECT_EQ(legacy.sim.stallTotals[static_cast<int>(
                  sim::StallCause::Network)],
              0u);

    rc.sim.useNoc = true;
    rc.preCompiled = legacy.compiled.get(); // Same graph, contended network.
    auto noc = runtime::runWorkload(w, rc);

    EXPECT_TRUE(noc.sim.noc.enabled);
    EXPECT_GT(noc.sim.noc.flits, 0u);
    EXPECT_GT(noc.sim.noc.links, 0);
    EXPECT_NE(noc.sim.cycles, legacy.sim.cycles);
    EXPECT_GT(noc.sim.stallTotals[static_cast<int>(
                  sim::StallCause::Network)],
              0u);

    // Exact accounting: busy + attributed stalls == doneAt, per engine.
    std::array<uint64_t, sim::kNumStallCauses> sums{};
    const auto &g = noc.compiled->lowering.graph;
    for (const auto &u : g.units()) {
        const auto &s = noc.sim.unitStats[u.id.index()];
        if (s.firings == 0 && s.skips == 0 && s.stallTotal() == 0)
            continue; // Storage VMUs have no engine.
        EXPECT_EQ(s.busyCycles + s.stallTotal(), s.doneAt)
            << u.name << " has unattributed blocked cycles under --noc";
        EXPECT_LE(s.doneAt, noc.sim.cycles) << u.name;
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            sums[c] += s.stallCycles[c];
    }
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        EXPECT_EQ(sums[c], noc.sim.stallTotals[c])
            << "aggregate mismatch for cause "
            << sim::stallCauseName(static_cast<sim::StallCause>(c));

    // Functional results are untouched by the timing model.
    ASSERT_EQ(noc.sim.tensors.size(), legacy.sim.tensors.size());
    for (size_t t = 0; t < noc.sim.tensors.size(); ++t)
        EXPECT_EQ(noc.sim.tensors[t], legacy.sim.tensors[t])
            << "tensor " << t;
}

TEST(NocSim, RepeatedRunsAreCycleIdentical)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildByName("lstm", cfg);
    runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.compiler.pnrIterations = 200;
    rc.sim.useNoc = true;

    auto a = runtime::runWorkload(w, rc);
    auto b = runtime::runWorkload(w, rc);
    EXPECT_EQ(a.sim.cycles, b.sim.cycles);
    EXPECT_EQ(a.sim.totalFirings, b.sim.totalFirings);
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        EXPECT_EQ(a.sim.stallTotals[c], b.sim.stallTotals[c])
            << "stall cause " << c;
    EXPECT_EQ(a.sim.noc.flits, b.sim.noc.flits);
    EXPECT_EQ(a.sim.noc.hops, b.sim.noc.hops);
    EXPECT_EQ(a.sim.noc.queueCycles, b.sim.noc.queueCycles);
    EXPECT_EQ(a.sim.noc.peakInflight, b.sim.noc.peakInflight);
}

} // namespace
} // namespace sara
