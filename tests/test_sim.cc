/**
 * @file
 * Simulator component tests: scheduler ordering, FIFO latency and
 * in-order delivery, DRAM model bandwidth/row-buffer behaviour, and
 * timing-level properties of compiled programs (pipeline overlap,
 * branch skipping halving runtime — paper Fig. 4c).
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "dram/dram.h"
#include "fault/fault.h"
#include "ir/builder.h"
#include "runtime/run.h"
#include "sim/fifo.h"
#include "sim/task.h"
#include "tests/helpers.h"

namespace sara {
namespace {

using namespace sim;

TEST(Scheduler, OrdersEventsByTimeThenSeq)
{
    Scheduler sched;
    std::vector<int> log;
    struct Ctx
    {
        std::vector<int> *log;
        int id;
    };
    static auto fire = [](void *arg) {
        auto *c = static_cast<Ctx *>(arg);
        c->log->push_back(c->id);
    };
    Ctx a{&log, 1}, b{&log, 2}, c{&log, 3};
    sched.scheduleFnAt(fire, &b, 5);
    sched.scheduleFnAt(fire, &a, 2);
    sched.scheduleFnAt(fire, &c, 5);
    sched.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sched.now(), 5u);
}

/** Push one 1-lane element. */
void
pushValue(FifoState &f, double v)
{
    f.push(&v, 1);
}

TEST(Fifo, LatencyAndOrder)
{
    Scheduler sched;
    dfg::Stream spec;
    spec.name = "s";
    spec.kind = dfg::StreamKind::Data;
    spec.depth = 4;
    spec.latency = 3;
    FifoState f;
    f.init(sched, spec);

    const double two = 2.0;
    pushValue(f, 1.0);
    f.pushWithDelay(&two, 1, 10); // Arrives later.
    pushValue(f, 3.0);            // Must not overtake element 2.
    EXPECT_TRUE(f.empty());
    sched.run();
    ASSERT_EQ(f.occupancy(), 3u);
    EXPECT_DOUBLE_EQ(f.front()[0], 1.0);
    f.pop();
    EXPECT_DOUBLE_EQ(f.front()[0], 2.0);
    f.pop();
    EXPECT_DOUBLE_EQ(f.front()[0], 3.0);
}

TEST(Fifo, CreditWindowIsDepthPlusLatency)
{
    // A fully pipelined link holds `latency` elements in flight plus
    // `depth` in the destination FIFO.
    Scheduler sched;
    dfg::Stream spec;
    spec.depth = 2;
    spec.latency = 3;
    FifoState f;
    f.init(sched, spec);
    for (int i = 0; i < 5; ++i) {
        EXPECT_TRUE(f.hasSpace()) << i;
        pushValue(f, static_cast<double>(i));
    }
    EXPECT_FALSE(f.hasSpace());
}

TEST(Fifo, InitTokens)
{
    // A token stream keeps counts only: pre-filled credits are stored
    // at once, a pushed token arrives after the latency, and the window
    // never closes.
    Scheduler sched;
    dfg::Stream spec;
    spec.kind = dfg::StreamKind::Token;
    spec.initTokens = 2;
    spec.latency = 2;
    FifoState f;
    f.init(sched, spec);
    EXPECT_EQ(f.occupancy(), 2u);
    f.push();
    EXPECT_EQ(f.occupancy(), 3u);
    EXPECT_EQ(f.front().size, 0);
    f.pop();
    f.pop();
    EXPECT_TRUE(f.empty()); // The pushed token is still in flight.
    EXPECT_EQ(f.occupancy(), 1u);
    sched.run();
    EXPECT_EQ(sched.now(), 2u);
    f.pop();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.occupancy(), 0u);
    EXPECT_EQ(f.highWater(), 3u);
    EXPECT_EQ(f.pushes(), 1u);
    EXPECT_EQ(f.pops(), 3u);
    EXPECT_EQ(f.capacity(), UINT64_MAX);
}

TEST(Fifo, RingWrapsWithMixedElementWidths)
{
    // Full-width, partial and 1-lane elements cycle through a 4-slot
    // ring five times. The window refills as soon as a pop frees a
    // credit, so pops run with pushes still in flight; each pop must
    // see the lanes and the lane count its element was pushed with, in
    // push order.
    Scheduler sched;
    dfg::Stream spec;
    const uint64_t latency = 2;
    spec.name = "mixed";
    spec.vec = 4;
    spec.depth = 2;
    spec.latency = static_cast<int>(latency);
    FifoState f;
    f.init(sched, spec);
    ASSERT_EQ(f.capacity(), 4u);

    // Element i: 4, 3 or 1 lanes valued 10 * i + lane.
    auto element = [](int i) {
        std::vector<double> v(i % 3 == 0 ? 4 : i % 3 == 1 ? 3 : 1);
        for (size_t l = 0; l < v.size(); ++l)
            v[l] = 10.0 * i + static_cast<double>(l);
        return v;
    };
    const int n = 20;
    int pushed = 0, popped = 0;
    std::vector<uint64_t> pushAt;
    uint64_t cycle = 0, poppedWithInflight = 0;
    while (popped < n) {
        while (pushed < n && f.hasSpace()) {
            std::vector<double> v = element(pushed++);
            f.push(v.data(), static_cast<int>(v.size()));
            pushAt.push_back(sched.now());
        }
        sched.run(++cycle); // Deliver what is due by `cycle`.
        if (f.empty())
            continue;
        std::vector<double> want = element(popped);
        LaneView got = f.front();
        ASSERT_EQ(got.size, static_cast<int>(want.size())) << popped;
        for (int l = 0; l < got.size; ++l)
            EXPECT_DOUBLE_EQ(got[l], want[l]) << popped << " lane " << l;
        f.pop();
        ++popped;
        for (int i = popped; i < pushed; ++i) {
            if (pushAt[i] + latency > sched.now()) {
                ++poppedWithInflight; // Element i is still in flight.
                break;
            }
        }
    }
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.occupancy(), 0u);
    EXPECT_GT(poppedWithInflight, 0u);
    EXPECT_EQ(f.pushes(), static_cast<uint64_t>(n));
    EXPECT_EQ(f.pops(), static_cast<uint64_t>(n));
    EXPECT_EQ(f.highWater(), 4u);
}

TEST(Fifo, DataStreamInitTokensOutnumberingTheWindow)
{
    // Pre-filled credits may outnumber depth + latency: each reads as
    // an empty element, and the window reopens only once occupancy
    // drops below it.
    Scheduler sched;
    dfg::Stream spec;
    spec.name = "prefilled";
    spec.depth = 1;
    spec.latency = 1;
    spec.initTokens = 4;
    FifoState f;
    f.init(sched, spec);
    EXPECT_EQ(f.occupancy(), 4u);
    EXPECT_FALSE(f.hasSpace());
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(f.front().size, 0) << i;
        f.pop();
    }
    ASSERT_TRUE(f.hasSpace());
    pushValue(f, 7.0);
    f.pop();
    sched.run();
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front().size, 1);
    EXPECT_DOUBLE_EQ(f.front()[0], 7.0);
}

TEST(Fifo, PushWiderThanTheSlotPanics)
{
    // Slots are as wide as the widest of the producer's SIMD width and
    // the stream's vec; a wider push is a simulator bug, not a resize.
    Scheduler sched;
    dfg::Stream spec;
    spec.name = "narrow";
    spec.vec = 2;
    const double lanes[5] = {1, 2, 3, 4, 5};
    FifoState byVec;
    byVec.init(sched, spec);
    byVec.push(lanes, 2);
    EXPECT_THROW(byVec.push(lanes, 3), PanicError);
    FifoState byProducer;
    byProducer.init(sched, spec, /*width=*/4);
    byProducer.push(lanes, 4);
    EXPECT_THROW(byProducer.push(lanes, 5), PanicError);
}

// --- Credit-window edge cases ---------------------------------------------

/** Push `n` sequentially numbered elements, honouring credits. */
Task
creditedProducer(Scheduler &sched, FifoState &f, int n,
                 std::vector<uint64_t> &pushAt)
{
    for (int i = 0; i < n; ++i) {
        while (!f.hasSpace())
            co_await f.spaceCv.wait();
        pushValue(f, static_cast<double>(i));
        pushAt.push_back(sched.now());
    }
}

/** Pop `n` elements as they arrive. */
Task
creditedConsumer(Scheduler &sched, FifoState &f, int n,
                 std::vector<double> &got, std::vector<uint64_t> &popAt)
{
    for (int i = 0; i < n; ++i) {
        while (f.empty())
            co_await f.dataCv.wait();
        got.push_back(f.front()[0]);
        f.pop();
        popAt.push_back(sched.now());
    }
}

TEST(Fifo, CapacityOneStreamSerializesButNeverDrops)
{
    // depth 0 + latency 1 = a credit window of exactly one element:
    // the degenerate stream the retimer produces for tight backward
    // edges. Every push must wait for the previous element's credit,
    // so the pair advances in lock-step, one element per cycle.
    Scheduler sched;
    dfg::Stream spec;
    spec.name = "cap1";
    spec.depth = 0;
    spec.latency = 1;
    FifoState f;
    f.init(sched, spec);
    ASSERT_EQ(f.capacity(), 1u);

    std::vector<uint64_t> pushAt, popAt;
    std::vector<double> got;
    const int n = 5;
    Task prod = creditedProducer(sched, f, n, pushAt);
    Task cons = creditedConsumer(sched, f, n, got, popAt);
    sched.scheduleAt(prod.handle(), 0);
    sched.scheduleAt(cons.handle(), 0);
    sched.run();

    ASSERT_TRUE(prod.done());
    ASSERT_TRUE(cons.done());
    EXPECT_EQ(got, (std::vector<double>{0, 1, 2, 3, 4}));
    EXPECT_EQ(f.highWater(), 1u); // Never more than the one credit.
    for (int i = 0; i < n; ++i) {
        // Element i enters the wire the cycle element i-1's credit
        // returns and is consumed one latency later.
        EXPECT_EQ(pushAt[i], static_cast<uint64_t>(i)) << i;
        EXPECT_EQ(popAt[i], static_cast<uint64_t>(i + 1)) << i;
    }
}

TEST(Fifo, CreditReturnsTheSameCycleAsThePop)
{
    // A producer parked on a full window must be able to push in the
    // very cycle the consumer pops — a one-cycle credit bubble here
    // would desynchronize every engine pair in steady state.
    Scheduler sched;
    dfg::Stream spec;
    spec.name = "window";
    spec.depth = 2;
    spec.latency = 3;
    FifoState f;
    f.init(sched, spec);
    ASSERT_EQ(f.capacity(), 5u);

    std::vector<uint64_t> pushAt, popAt;
    std::vector<double> got;
    const int n = 6; // One more than the window.
    Task prod = creditedProducer(sched, f, n, pushAt);
    Task cons = creditedConsumer(sched, f, n, got, popAt);
    sched.scheduleAt(prod.handle(), 0);
    sched.scheduleAt(cons.handle(), 0);
    sched.run();

    ASSERT_TRUE(prod.done());
    ASSERT_TRUE(cons.done());
    // The window fills in cycle 0; the first element arrives (and is
    // popped) at `latency`, and the blocked sixth push lands in that
    // same cycle.
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(pushAt[i], 0u) << i;
    EXPECT_EQ(popAt[0], 3u);
    EXPECT_EQ(pushAt[5], popAt[0]);
    EXPECT_EQ(got, (std::vector<double>{0, 1, 2, 3, 4, 5}));
}

TEST(Fifo, BlockedProducerDrainsAfterStall)
{
    // Fill-then-drain recovery: with no consumer attached the producer
    // runs the window dry and the event queue drains with the
    // coroutine parked on spaceCv — exactly the shape the deadlock
    // detector reports. Popping from outside must wake it and the
    // stream must deliver everything, in order, with no lost credits.
    Scheduler sched;
    dfg::Stream spec;
    spec.name = "drain";
    spec.depth = 1;
    spec.latency = 1;
    FifoState f;
    f.init(sched, spec);
    ASSERT_EQ(f.capacity(), 2u);

    std::vector<uint64_t> pushAt;
    const int n = 8;
    Task prod = creditedProducer(sched, f, n, pushAt);
    sched.scheduleAt(prod.handle(), 0);
    sched.run();

    // Stalled: window full, producer parked, nothing scheduled.
    EXPECT_FALSE(prod.done());
    EXPECT_FALSE(f.hasSpace());
    EXPECT_TRUE(f.spaceCv.hasWaiters());
    EXPECT_TRUE(sched.idle());

    std::vector<double> got;
    while (got.size() < static_cast<size_t>(n)) {
        ASSERT_FALSE(f.empty()) << "drain starved at " << got.size();
        while (!f.empty()) {
            got.push_back(f.front()[0]);
            f.pop();
        }
        sched.run(); // Restart the producer off the returned credits.
    }
    ASSERT_TRUE(prod.done());
    EXPECT_FALSE(f.spaceCv.hasWaiters());
    EXPECT_EQ(got, (std::vector<double>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(f.pushes(), static_cast<uint64_t>(n));
    EXPECT_EQ(f.pops(), static_cast<uint64_t>(n));
}

TEST(Dram, SequentialStreamsSaturateBandwidth)
{
    auto spec = dram::DramSpec::hbm2();
    dram::DramModel model(spec);
    // Stream 1 MB sequentially from one channel's address range.
    uint64_t last = 0;
    for (uint64_t a = 0; a < (1u << 20); a += 64)
        last = std::max(last, model.access(a, 64, 0).completeAt);
    // All channels used via interleave; achieved BW near peak.
    double achieved = static_cast<double>(model.bytesTransferred()) /
                      static_cast<double>(last);
    EXPECT_GT(achieved, spec.totalGBs() * 0.5);
    EXPECT_GT(model.rowHits(), model.requests() / 2);
}

TEST(Dram, RandomAccessPaysRowMisses)
{
    auto spec = dram::DramSpec::hbm2();
    dram::DramModel seqM(spec), rndM(spec);
    uint64_t seqEnd = 0, rndEnd = 0;
    uint64_t state = 12345;
    for (int i = 0; i < 4096; ++i) {
        seqEnd = std::max(
            seqEnd, seqM.access(i * 64, 64, 0).completeAt);
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        uint64_t addr = (state >> 20) % (1u << 26);
        rndEnd = std::max(rndEnd,
                          rndM.access(addr * 64, 64, 0).completeAt);
    }
    EXPECT_LT(seqM.rowHits(), seqM.requests() + 1);
    EXPECT_GT(seqM.rowHits(), rndM.rowHits());
}

TEST(Dram, Ddr3MuchSlowerThanHbm)
{
    auto run = [](dram::DramSpec spec) {
        dram::DramModel m(spec);
        uint64_t end = 0;
        for (uint64_t a = 0; a < (1u << 22); a += 64)
            end = std::max(end, m.access(a, 64, 0).completeAt);
        return end;
    };
    uint64_t hbm = run(dram::DramSpec::hbm2());
    uint64_t ddr = run(dram::DramSpec::ddr3());
    EXPECT_GT(ddr, hbm * 10);
}

// ---------------------------------------------------------------------
// Timing-level properties of compiled programs.
// ---------------------------------------------------------------------

using namespace ir;
using test::runAndCompare;
using test::tinyOptions;

/** Two independent phases overlap under CMMC (ILP across the CFG). */
TEST(Timing, IndependentPhasesOverlap)
{
    auto build = [](Program &p, bool dependent) {
        Builder b(p);
        auto m1 = p.addTensor("m1", MemSpace::OnChip, 64);
        auto m2 = p.addTensor(dependent ? "m1b" : "m2",
                              MemSpace::OnChip, 64);
        auto o1 = p.addTensor("o1", MemSpace::OnChip, 64);
        auto o2 = p.addTensor("o2", MemSpace::OnChip, 64);
        auto l1 = b.beginLoop("p1", 0, 64);
        b.beginBlock("w1");
        b.write(m1, b.iter(l1), b.iter(l1));
        b.endBlock();
        b.endLoop();
        auto l2 = b.beginLoop("p2", 0, 64);
        b.beginBlock("r1");
        b.write(o1, b.iter(l2), b.read(m1, b.iter(l2)));
        b.endBlock();
        b.endLoop();
        // Second chain, on the same tensors when `dependent`.
        auto l3 = b.beginLoop("p3", 0, 64);
        b.beginBlock("w2");
        b.write(dependent ? m1 : m2, b.iter(l3),
                b.add(b.iter(l3), b.cst(1.0)));
        b.endBlock();
        b.endLoop();
        auto l4 = b.beginLoop("p4", 0, 64);
        b.beginBlock("r2");
        b.write(o2, b.iter(l4),
                b.read(dependent ? m1 : m2, b.iter(l4)));
        b.endBlock();
        b.endLoop();
    };
    Program indep, dep;
    build(indep, false);
    build(dep, true);
    auto opt = tinyOptions();
    opt.enableMsr = false; // Keep real VMUs so ordering matters.
    auto ri = runAndCompare(indep, opt);
    auto rd = runAndCompare(dep, opt);
    // Independent chains run concurrently; dependent ones serialize.
    EXPECT_LT(ri.sim.cycles * 3, rd.sim.cycles * 2);
}

/** Fig. 4c: exclusive branches overlap; runtime ~ NL/2 not NL. */
TEST(Timing, BranchClausesOverlap)
{
    const int64_t n = 16, m = 64;
    auto build = [&](Program &p, bool branched) {
        Builder b(p);
        auto mem = p.addTensor("mem", MemSpace::OnChip, m);
        auto out = p.addTensor("out", MemSpace::Dram, m);
        auto A = b.beginLoop("A", 0, n);
        b.beginBlock("cond");
        auto even = b.binary(OpKind::CmpEq,
                             b.mod(b.iter(A), b.cst(2.0)), b.cst(0.0));
        b.endBlock();
        if (branched) {
            b.beginBranch("C", even);
            auto D = b.beginLoop("D", 0, m);
            b.beginBlock("wr");
            b.write(mem, b.iter(D), b.add(b.iter(A), b.iter(D)));
            b.endBlock();
            b.endLoop();
            b.elseClause();
            auto F = b.beginLoop("F", 0, m);
            b.beginBlock("rd");
            b.write(out, b.iter(F), b.read(mem, b.iter(F)));
            b.endBlock();
            b.endLoop();
            b.endBranch();
        } else {
            // Both bodies every iteration (roughly 2x the work).
            auto D = b.beginLoop("D", 0, m);
            b.beginBlock("wr");
            b.write(mem, b.iter(D), b.add(b.iter(A), b.iter(D)));
            b.endBlock();
            b.endLoop();
            auto F = b.beginLoop("F", 0, m);
            b.beginBlock("rd");
            b.write(out, b.iter(F), b.read(mem, b.iter(F)));
            b.endBlock();
            b.endLoop();
        }
        b.endLoop();
    };
    Program branched, both;
    build(branched, true);
    build(both, false);
    auto rb = runAndCompare(branched, tinyOptions());
    auto ra = runAndCompare(both, tinyOptions());
    // The branched version executes each body on half the iterations.
    EXPECT_LT(rb.sim.cycles, ra.sim.cycles);
}

/** Multibuffering overlaps pipeline stages (paper §III-A1, 1+
 *  credits): disabling it serializes producer/consumer rounds. */
TEST(Timing, MultibufferOverlapsStages)
{
    auto build = [](Program &p) {
        Builder b(p);
        const int64_t tiles = 16, tile = 64;
        auto in = p.addTensor("in", MemSpace::Dram, tiles * tile);
        auto buf = p.addTensor("buf", MemSpace::OnChip, tile);
        auto out = p.addTensor("out", MemSpace::Dram, tiles * tile);
        auto t = b.beginLoop("t", 0, tiles);
        auto li = b.beginLoop("ld", 0, tile);
        b.beginBlock("load");
        auto a = b.add(b.mul(b.iter(t), b.cst(tile)), b.iter(li));
        b.write(buf, b.iter(li), b.read(in, a));
        b.endBlock();
        b.endLoop();
        auto si = b.beginLoop("st", 0, tile);
        b.beginBlock("store");
        auto a2 = b.add(b.mul(b.iter(t), b.cst(tile)), b.iter(si));
        b.write(out, a2, b.mul(b.read(buf, b.iter(si)), b.cst(2.0)));
        b.endBlock();
        b.endLoop();
        b.endLoop();
    };
    Program p1, p2;
    build(p1);
    build(p2);
    auto optOn = tinyOptions();
    optOn.enableMsr = false; // Force the VMU path.
    auto optOff = optOn;
    optOff.enableMultibuffer = false;
    auto on = runAndCompare(p1, optOn);
    auto off = runAndCompare(p2, optOff);
    EXPECT_GE(on.compiled.lowering.stats.multibufferedTensors, 1);
    EXPECT_LT(on.sim.cycles, off.sim.cycles);
}

/** Every blocked cycle must be attributed to exactly one cause: for
 *  every engine, busy + sum(stalls) == the cycle it finished, and no
 *  engine outlives the run. Checked across the full workload suite so
 *  any uninstrumented await path fails loudly. */
TEST(Stalls, EveryCycleIsAttributed)
{
    for (const auto &name : workloads::workloadNames()) {
        workloads::WorkloadConfig cfg;
        auto w = workloads::buildByName(name, cfg);
        runtime::RunConfig rc;
        auto r = runtime::runWorkload(w, rc);

        std::array<uint64_t, sim::kNumStallCauses> sums{};
        const auto &g = r.compiled->lowering.graph;
        for (const auto &u : g.units()) {
            const auto &s = r.sim.unitStats[u.id.index()];
            if (s.firings == 0 && s.skips == 0 && s.stallTotal() == 0)
                continue; // Storage VMUs have no engine.
            EXPECT_EQ(s.busyCycles + s.stallTotal(), s.doneAt)
                << name << ": " << u.name
                << " has unattributed blocked cycles";
            EXPECT_LE(s.doneAt, r.sim.cycles) << name << ": " << u.name;
            for (int c = 0; c < sim::kNumStallCauses; ++c)
                sums[c] += s.stallCycles[c];
        }
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            EXPECT_EQ(sums[c], r.sim.stallTotals[c])
                << name << ": aggregate mismatch for cause "
                << sim::stallCauseName(static_cast<sim::StallCause>(c));
    }
}

/** FIFO high-water marks stay within the credit window the compiler
 *  sized (occupancy above capacity would mean credits don't bound the
 *  buffer, i.e. the hardware FIFO would overflow). */
TEST(Stalls, FifoHighWaterWithinCapacity)
{
    workloads::WorkloadConfig cfg;
    auto w = workloads::buildByName("mlp", cfg);
    runtime::RunConfig rc;
    auto r = runtime::runWorkload(w, rc);
    ASSERT_FALSE(r.sim.fifoStats.empty());
    const auto &g = r.compiled->lowering.graph;
    bool anyNonZero = false;
    for (size_t i = 0; i < r.sim.fifoStats.size(); ++i) {
        const auto &fs = r.sim.fifoStats[i];
        EXPECT_LE(fs.highWater, fs.capacity)
            << g.stream(dfg::StreamId(i)).name;
        anyNonZero = anyNonZero || fs.highWater > 0;
    }
    EXPECT_TRUE(anyNonZero);
}

// ---------------------------------------------------------------------
// Cycle-identity goldens.
//
// The event core (scheduler, wakeup policy, FIFO internals) is free to
// change for host throughput, but simulated results must stay
// bit-identical. These counts were recorded after canonical end-of-cycle
// arbitration landed (same-cycle DRAM accesses and PMU port-bus grants
// resolve in unit-id order, making timing independent of host event
// order); any drift here means the event core changed *simulated*
// behaviour, not just its own speed. Each row also pins the host work
// the run did — scheduler events, wakeups and the spurious subset — so
// a refactor that keeps the cycles but reorders or adds wakeups shows
// up too.
// ---------------------------------------------------------------------

struct IdentityRow
{
    const char *name;
    uint64_t cycles;
    uint64_t hostEvents;
    uint64_t wakeups;
    uint64_t spuriousWakeups;
};

/** Run one workload (or graph model) at par 8 and compare every
 *  pinned counter. */
void
expectIdentity(const IdentityRow &row, bool noc)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName(row.name, cfg);
    runtime::RunConfig rc;
    rc.sim.useNoc = noc;
    auto r = runtime::runWorkload(w, rc);
    EXPECT_EQ(r.sim.cycles, row.cycles) << row.name;
    EXPECT_EQ(r.sim.hostEvents, row.hostEvents) << row.name;
    EXPECT_EQ(r.sim.wakeups, row.wakeups) << row.name;
    EXPECT_EQ(r.sim.spuriousWakeups, row.spuriousWakeups) << row.name;
}

TEST(CycleIdentity, FixedLatencyGoldens)
{
    // name, cycles, host events, wakeups, spurious wakeups.
    static constexpr IdentityRow kGolden[] = {
        {"mlp", 37335, 459387, 11167, 0},
        {"lstm", 10325, 125958, 3847, 0},
        {"snet", 10054, 78768, 1623, 0},
        {"pr", 2986, 62434, 5783, 0},
        {"bs", 365, 2702, 170, 0},
        {"sort", 7467, 19063, 3779, 0},
        {"rf", 4477, 352313, 3975, 0},
        {"ms", 1302, 9207, 1032, 0},
        {"kmeans", 2430, 23444, 1096, 0},
        {"gda", 19044, 45268, 7231, 0},
        {"logreg", 9778, 29355, 4106, 0},
        {"sgd", 4313, 17659, 2251, 0},
        {"mlp_graph", 4525, 33822, 1127, 0},
        {"transformer_cell", 1909, 18719, 1634, 0},
        {"resnet_block", 4558, 33738, 1078, 0},
    };
    for (const auto &row : kGolden)
        expectIdentity(row, /*noc=*/false);
}

TEST(CycleIdentity, NocGoldens)
{
    static constexpr IdentityRow kGolden[] = {
        {"mlp", 71004, 1239205, 88625, 12297},
        {"lstm", 15509, 308056, 48805, 859},
        {"snet", 10056, 103947, 1633, 4},
        {"pr", 6936, 131346, 16209, 2234},
        {"bs", 445, 8626, 879, 10},
        {"sort", 6903, 112843, 6115, 175},
        {"rf", 19773, 2436331, 177047, 15146},
        {"ms", 1310, 10851, 1042, 4},
        {"kmeans", 3066, 51935, 4992, 94},
        {"gda", 19035, 78227, 9608, 31},
        {"logreg", 9798, 52588, 5341, 21},
        {"sgd", 4309, 38678, 2225, 87},
        {"mlp_graph", 4538, 60723, 1253, 52},
        {"transformer_cell", 2190, 47817, 2151, 252},
        {"resnet_block", 4546, 51836, 1078, 0},
    };
    for (const auto &row : kGolden)
        expectIdentity(row, /*noc=*/true);
}

/** Seeded fault-injection replays must also stay cycle-exact: the
 *  injection hash keys off (site, cycle), so any event-order drift
 *  shows up here even when the fault-free runs happen to agree. */
TEST(CycleIdentity, InjectedReplayGoldens)
{
    struct Row
    {
        const char *workload;
        const char *spec;
        bool noc;
        uint64_t seed;
        uint64_t cycles;
    };
    static const Row kGolden[] = {
        {"ms", "dram-tail@0.5:delay=200", false, 1, 1850},
        {"ms", "dram-tail@0.5:delay=200", false, 2, 1902},
        {"ms", "dram-tail@0.5:delay=200", false, 3, 1902},
        {"ms", "fifo-leak@0.2", false, 1, 4111},
        {"mlp", "noc-delay@0.2:delay=8", true, 1, 96465},
    };
    for (const auto &row : kGolden) {
        workloads::WorkloadConfig cfg;
        cfg.par = 8;
        auto w = workloads::buildByName(row.workload, cfg);
        fault::FaultInjector inj({fault::parseFaultSpec(row.spec)},
                                 row.seed);
        runtime::RunConfig rc;
        rc.sim.useNoc = row.noc;
        rc.sim.fault = &inj;
        auto r = runtime::runWorkload(w, rc);
        EXPECT_EQ(r.sim.cycles, row.cycles)
            << row.workload << " " << row.spec << " seed " << row.seed;
    }
}

// ---------------------------------------------------------------------
// Memory bounds checks. The fire path resolves a firing's shard, buffer
// copy and base once and indexes lanes from there; every lane must
// still pass the per-lane bounds, in every build.
// ---------------------------------------------------------------------

/** Compile `name` at `par`, let `sabotage` edit the compiled program
 *  and graph, run, and return the message of the PanicError run()
 *  throws. DRAM inputs that no longer fit their tensor stay zero. */
std::string
sabotagedRunPanic(
    const std::string &name, int par,
    const std::function<void(ir::Program &, dfg::Vudfg &)> &sabotage)
{
    workloads::WorkloadConfig cfg;
    cfg.par = par;
    auto w = workloads::buildByName(name, cfg);
    compiler::CompilerOptions opt;
    opt.pnrIterations = 200;
    auto compiled = compiler::compile(w.program, opt);
    sabotage(compiled.program, compiled.lowering.graph);
    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             dram::DramSpec::hbm2());
    for (const auto &[tid, data] : w.dramInputs) {
        ir::TensorId id(tid);
        if (data.size() ==
            static_cast<size_t>(compiled.program.tensor(id).size))
            simulator.setDramTensor(id, data);
    }
    try {
        simulator.run();
    } catch (const PanicError &e) {
        return e.what();
    }
    ADD_FAILURE() << name << ": run() did not panic";
    return "";
}

/** Shrink to one word the DRAM tensor of the first AG accessing it in
 *  direction `dir`. */
void
shrinkAgTensor(ir::Program &p, dfg::Vudfg &g, dfg::AccessDir dir)
{
    for (const auto &u : g.units()) {
        if (u.kind == dfg::VuKind::Ag && u.dir == dir) {
            p.tensor(u.tensor).size = 1;
            return;
        }
    }
    FAIL() << "no AG in that direction";
}

TEST(MemoryChecks, DramAccessOutOfBoundsPanics)
{
    std::string why = sabotagedRunPanic(
        "ms", 4, [](ir::Program &p, dfg::Vudfg &g) {
            shrinkAgTensor(p, g, dfg::AccessDir::Read);
        });
    EXPECT_NE(why.find("DRAM read OOB"), std::string::npos) << why;
    why = sabotagedRunPanic("ms", 4, [](ir::Program &p, dfg::Vudfg &g) {
        shrinkAgTensor(p, g, dfg::AccessDir::Write);
    });
    EXPECT_NE(why.find("DRAM write OOB"), std::string::npos) << why;
}

TEST(MemoryChecks, ShardOffsetOutOfBoundsPanics)
{
    std::string why =
        sabotagedRunPanic("ms", 4, [](ir::Program &, dfg::Vudfg &g) {
            for (auto &u : g.units())
                if (u.kind == dfg::VuKind::Memory)
                    u.bufferSize = 1;
        });
    EXPECT_NE(why.find("shard offset OOB"), std::string::npos) << why;
}

TEST(MemoryChecks, StaticPortLeavingItsShardPanics)
{
    // lstm par 4 shards its weight buffer four ways, one static read
    // port per shard; moving a port to the next shard leaves every
    // address it issues outside its shard.
    std::string why =
        sabotagedRunPanic("lstm", 4, [](ir::Program &, dfg::Vudfg &g) {
            for (auto &u : g.units()) {
                if (u.kind != dfg::VuKind::MemPort || u.dynamicBank)
                    continue;
                const int shards = g.unit(u.memUnit).numShards;
                if (shards > 1) {
                    u.shardIndex = (u.shardIndex + 1) % shards;
                    return;
                }
            }
            FAIL() << "no static port on a sharded tensor";
        });
    EXPECT_NE(why.find("static port touched shard"), std::string::npos)
        << why;
}

/** A deadlocked run must still flush the trace before panicking —
 *  the timeline up to the hang is the diagnosis. */
TEST(Deadlock, FlushesTraceBeforePanic)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 4;
    auto w = workloads::buildByName("sgd", cfg);
    compiler::CompilerOptions opt;
    opt.pnrIterations = 200;
    auto compiled = compiler::compile(w.program, opt);

    // Sabotage the control graph: draining a backward credit stream's
    // initial tokens stops its consumer from ever firing.
    bool sabotaged = false;
    for (auto &s : compiled.lowering.graph.streams())
        if (s.initTokens > 0) {
            s.initTokens = 0;
            sabotaged = true;
            break;
        }
    ASSERT_TRUE(sabotaged);

    std::string path = testing::TempDir() + "deadlock_trace.json";
    std::remove(path.c_str());
    sim::SimOptions so;
    so.traceFile = path;
    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             dram::DramSpec::hbm2(), so);
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    EXPECT_THROW(simulator.run(), PanicError);

    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no trace written on deadlock";
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_GT(os.str().size(), 2u);
    EXPECT_EQ(os.str()[0], '[');
    EXPECT_EQ(os.str().back(), '\n');
    std::remove(path.c_str());
}

} // namespace
} // namespace sara
