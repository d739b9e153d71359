#include "sim/simulator.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <limits>

#include "ir/interp.h"
#include "support/hostprof.h"

namespace sara::sim {

using dfg::AccessDir;
using dfg::InputRole;
using dfg::StreamKind;
using dfg::VuKind;

namespace {

/** Max outstanding DRAM requests per AG. */
constexpr int kAgOutstanding = 64;

double
reduceIdentity(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::RedAdd: return 0.0;
      case ir::OpKind::RedMul: return 1.0;
      case ir::OpKind::RedMin:
        return std::numeric_limits<double>::infinity();
      case ir::OpKind::RedMax:
        return -std::numeric_limits<double>::infinity();
      default: panic("not a reduce op");
    }
}

double
reduceCombine(ir::OpKind kind, double acc, double v)
{
    switch (kind) {
      case ir::OpKind::RedAdd: return acc + v;
      case ir::OpKind::RedMul: return acc * v;
      case ir::OpKind::RedMin: return std::fmin(acc, v);
      case ir::OpKind::RedMax: return std::fmax(acc, v);
      default: panic("not a reduce op");
    }
}

/** Address lanes a PMU port or AG can issue in one firing. */
constexpr int kMaxLanes = 64;

/** std::llround(v), without the libm call for the integral values that
 *  addresses almost always are. */
int64_t
roundAddr(double v)
{
    if (std::fabs(v) < 0x1p63) {
        const auto i = static_cast<int64_t>(v);
        if (static_cast<double>(i) == v)
            return i;
    }
    return std::llround(v);
}

/** Extra cycles a PMU access pays for lanes colliding on a bank. */
uint64_t
bankConflictCycles(const int64_t *addrs, int lanes)
{
    // Vector accesses with unit stride are conflict-free; otherwise
    // lanes colliding on a bank (static sharding) or a shard (dynamic
    // banking) serialize.
    constexpr int pmuBanks = 16; // Matches arch::PmuSpec::banks.
    bool contiguous = true;
    for (int l = 1; l < lanes; ++l)
        if (addrs[l] != addrs[l - 1] + 1)
            contiguous = false;
    if (contiguous || lanes <= 1)
        return 0;
    int counts[pmuBanks] = {0};
    int maxCount = 1;
    for (int l = 0; l < lanes; ++l) {
        int bank = static_cast<int>(((addrs[l] % pmuBanks) + pmuBanks) %
                                    pmuBanks);
        maxCount = std::max(maxCount, ++counts[bank]);
    }
    return static_cast<uint64_t>(maxCount - 1);
}

bool
isArith(ir::OpKind kind)
{
    switch (kind) {
      case ir::OpKind::Const:
      case ir::OpKind::Iter:
        return false;
      default:
        return true;
    }
}

} // namespace

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::InputData: return "input-data";
      case StallCause::CmmcToken: return "cmmc-token";
      case StallCause::Credit: return "credit";
      case StallCause::DramLatency: return "dram-latency";
      case StallCause::BankConflict: return "bank-conflict";
      case StallCause::BusContention: return "bus-contention";
      case StallCause::Network: return "network";
    }
    return "?";
}

const char *
wakeClassName(WakeClass cls)
{
    switch (cls) {
      case WakeClass::FifoData: return "fifo-data";
      case WakeClass::FifoSpace: return "fifo-space";
      case WakeClass::NocInject: return "noc-inject";
      case WakeClass::Dram: return "dram";
    }
    return "?";
}

/** Per-tensor sharded storage group (all VMUs holding one tensor). */
struct Simulator::MemGroup
{
    ir::TensorId tensor;
    std::vector<dfg::VuId> shards; ///< Ordered by shardIndex.
    int64_t interleave = 1;
    int numShards = 1;

    struct ShardState
    {
        std::vector<std::vector<double>> buffers; ///< [depth][size]
        int lastWriteBuf = 0;
        uint64_t readBusFree = 0;
        uint64_t writeBusFree = 0;
    };
    std::vector<ShardState> state;
};

/**
 * The words one firing may touch without a per-lane lookup: address
 * `a` maps to `base[a - lo]` when `a - lo` lies in [0, size). Every
 * other address takes memWord(), which panics on the out-of-bounds
 * ones, so the window only ever accepts addresses memWord accepts.
 */
struct Simulator::MemWindow
{
    double *base = nullptr;
    int64_t lo = 0;
    uint64_t size = 0;

    /** The word `addr` names in the window, or null outside it. */
    double *
    word(int64_t addr) const
    {
        // Unsigned: an address below `lo` wraps far past `size`.
        const uint64_t off =
            static_cast<uint64_t>(addr) - static_cast<uint64_t>(lo);
        return off < size ? base + off : nullptr;
    }
};

/** Runtime state of one executing virtual unit. */
struct Simulator::Engine
{
    /** What structural resource the engine is parked on right now —
     *  the wait-for-graph edge source (blockReason is the human
     *  label, this is the machine-readable form). */
    enum class WaitKind : uint8_t {
        None,        ///< Running (or finished).
        StreamData,  ///< Consumer waiting for data/token on waitStream.
        StreamSpace, ///< Producer waiting for credit on waitStream.
        NetInject,   ///< Producer waiting for a NoC first-hop slot.
        DramWindow,  ///< AG at the outstanding-request limit.
        DramDrain,   ///< Store AG draining writes before a CMMC ack.
    };

    const dfg::VUnit *u = nullptr;
    int n = 0;   ///< Counter chain size.
    int vec = 1; ///< Innermost SIMD width.

    // Binding index tables per level 0..n (indices into u->inputs /
    // u->outputs). WhileCond bindings and the MemPort response output
    // are excluded from the generic tables.
    std::vector<std::vector<int>> inputsAt;
    std::vector<std::vector<int>> predsAt;
    std::vector<std::vector<int>> gatesAt;
    std::vector<std::vector<int>> outputsAt;
    std::vector<int> operandBindings; ///< All Operand-role inputs.
    std::vector<int> whileCondOf;     ///< Per level: binding idx or -1.

    // Runtime counter state.
    std::vector<int64_t> val, curMin, curStep, curMax;
    int activeLanes = 1;

    // Datapath lane values and reduction accumulators [lop * vec + lane];
    // `zeros` stands in for an absent operand.
    std::vector<double> lv;
    std::vector<double> redAcc;
    std::vector<double> zeros;
    /** PMU-port / AG read lanes, gathered before the credit wait. */
    std::vector<double> resp;

    // Memory / AG state.
    MemGroup *group = nullptr; ///< MemPort: its tensor's storage group.
    int bufPtr = 0;
    int outstanding = 0;
    CondVar agCv;
    Simulator *sim = nullptr; ///< The owning simulator.

    // Canonical end-of-cycle arbitration (Simulator::resolveArbitration):
    // same-cycle DRAM accesses and PMU port-bus grants are staged here
    // and resolved in unit-id order, so simulated timing depends only
    // on the dependency graph — never on the event interleave.
    CondVar arbCv;
    uint64_t arbResultAt = 0;    ///< Bus grant cycle / max DRAM completeAt.
    uint64_t *busSlot = nullptr; ///< Staged &readBusFree / &writeBusFree.
    uint64_t busExtra = 0;       ///< Bank-conflict cycles riding the grant.
    std::vector<std::pair<uint64_t, uint32_t>> stagedBursts; ///< addr,bytes

    // Stats and diagnostics.
    UnitStats stats;
    uint64_t flops = 0;
    int arithLops = 0;
    const char *blockReason = "not started";
    /** The stream or unit name the engine waits on (stable storage in
     *  the graph, so a park assigns no string). */
    const char *blockDetail = "";
    WaitKind waitKind = WaitKind::None;
    int32_t waitStream = -1; ///< StreamId index for Stream*/NetInject.
    bool finished = false;
    std::string error;

    Task task;

    void
    parkOn(WaitKind kind, int32_t stream, const char *why,
           const std::string &detail)
    {
        waitKind = kind;
        waitStream = stream;
        blockReason = why;
        blockDetail = detail.c_str();
        sim->flight_.record(telemetry::FlightKind::Park, sim->sched_.now(),
                            u->id.v, stream);
    }

    void
    unpark()
    {
        waitKind = WaitKind::None;
        waitStream = -1;
        blockReason = "";
    }
};

Simulator::Simulator(const ir::Program &program, const dfg::Vudfg &graph,
                     dram::DramSpec dramSpec, SimOptions options)
    : p_(program), g_(graph), opt_(options), dram_(std::move(dramSpec))
{
    g_.validate();

    if (opt_.useNoc) {
        noc_ = std::make_unique<noc::NocModel>(sched_, opt_.noc);
        noc_->setFaultInjector(opt_.fault);
        noc_->setFlightRecorder(&flight_);
        if (!opt_.traceFile.empty())
            noc_->traceLoad();
        for (size_t i = 0; i < g_.numStreams(); ++i)
            noc_->registerStream(g_.stream(dfg::StreamId(i)));
    }

    fifos_.resize(g_.numStreams());
    for (size_t i = 0; i < g_.numStreams(); ++i) {
        const auto &s = g_.stream(dfg::StreamId(i));
        // A producer pushes at most one lane per innermost SIMD lane.
        fifos_[i].init(sched_, s, s.src.valid() ? g_.unit(s.src).vec() : 1,
                       noc_.get(), opt_.fault, &flight_);
    }

    // Memory groups.
    for (const auto &u : g_.units()) {
        if (u.kind != VuKind::Memory)
            continue;
        auto &grp = groups_[u.tensor.v];
        grp.tensor = u.tensor;
        grp.interleave = u.shardInterleave;
        grp.numShards = u.numShards;
        grp.shards.push_back(u.id);
    }
    for (auto &[tid, grp] : groups_) {
        std::sort(grp.shards.begin(), grp.shards.end(),
                  [&](dfg::VuId a, dfg::VuId b) {
                      return g_.unit(a).shardIndex < g_.unit(b).shardIndex;
                  });
        SARA_ASSERT(static_cast<int>(grp.shards.size()) == grp.numShards,
                    "tensor ", tid, " group has ", grp.shards.size(),
                    " shards, expected ", grp.numShards);
        grp.state.resize(grp.shards.size());
        for (size_t s = 0; s < grp.shards.size(); ++s) {
            const auto &vmu = g_.unit(grp.shards[s]);
            grp.state[s].buffers.assign(
                vmu.bufferDepth,
                std::vector<double>(vmu.bufferSize, 0.0));
        }
    }

    // DRAM backing store.
    dramData_.resize(p_.numTensors());
    for (size_t t = 0; t < p_.numTensors(); ++t) {
        const auto &tensor = p_.tensor(ir::TensorId(t));
        if (tensor.space == ir::MemSpace::Dram)
            dramData_[t].assign(tensor.size, 0.0);
    }

    // Engines.
    engines_.resize(g_.numUnits());
    for (const auto &u : g_.units()) {
        if (u.kind == VuKind::Memory)
            continue;
        auto e = std::make_unique<Engine>();
        e->u = &u;
        e->n = u.chainSize();
        e->vec = u.vec();
        e->inputsAt.resize(e->n + 1);
        e->predsAt.resize(e->n + 1);
        e->gatesAt.resize(e->n + 1);
        e->outputsAt.resize(e->n + 1);
        e->whileCondOf.assign(e->n + 1, -1);
        for (size_t i = 0; i < u.inputs.size(); ++i) {
            const auto &in = u.inputs[i];
            if (in.role == InputRole::WhileCond) {
                SARA_ASSERT(in.level >= 1, "while cond at level 0");
                e->whileCondOf[in.level - 1] = static_cast<int>(i);
                continue;
            }
            e->inputsAt[in.level].push_back(static_cast<int>(i));
            if (in.role == InputRole::Predicate)
                e->predsAt[in.level].push_back(static_cast<int>(i));
            if (in.role == InputRole::Gate)
                e->gatesAt[in.level].push_back(static_cast<int>(i));
            if (in.role == InputRole::Operand)
                e->operandBindings.push_back(static_cast<int>(i));
        }
        for (size_t i = 0; i < u.outputs.size(); ++i) {
            if (u.kind != VuKind::Compute &&
                static_cast<int>(i) == u.respOutput)
                continue; // Pushed directly by apply.
            e->outputsAt[u.outputs[i].level].push_back(static_cast<int>(i));
        }
        e->val.assign(e->n, 0);
        e->curMin.assign(e->n, 0);
        e->curStep.assign(e->n, 1);
        e->curMax.assign(e->n, 0);
        e->lv.assign(u.lops.size() * e->vec, 0.0);
        e->redAcc.assign(u.lops.size() * e->vec, 0.0);
        e->zeros.assign(e->vec, 0.0);
        e->resp.assign(e->vec, 0.0);
        if (u.kind == VuKind::MemPort) {
            auto it = groups_.find(u.tensor.v);
            if (it != groups_.end())
                e->group = &it->second;
        }
        for (const auto &lop : u.lops) {
            if (ir::isReduceOp(lop.kind) || (!lop.isStreamIn() &&
                                             isArith(lop.kind)))
                ++e->arithLops;
        }
        e->agCv.bind(sched_);
        e->arbCv.bind(sched_);
        e->sim = this;
        engines_[u.id.index()] = std::move(e);
    }
}

Simulator::~Simulator() = default;

void
Simulator::setDramTensor(ir::TensorId id, std::vector<double> data)
{
    SARA_ASSERT(p_.tensor(id).space == ir::MemSpace::Dram,
                "setDramTensor on on-chip tensor ", p_.tensor(id).name);
    SARA_ASSERT(data.size() == static_cast<size_t>(p_.tensor(id).size),
                "tensor size mismatch");
    dramData_[id.index()] = std::move(data);
}

std::pair<size_t, int64_t>
Simulator::locate(const MemGroup &grp, int64_t logical) const
{
    // Block partitioning: shard s holds [s*interleave, (s+1)*interleave).
    if (grp.numShards == 1)
        return {0, logical};
    int64_t shard = std::min<int64_t>(logical / grp.interleave,
                                      grp.numShards - 1);
    return {static_cast<size_t>(shard), logical - shard * grp.interleave};
}

// ---------------------------------------------------------------------------
// The engine coroutine
// ---------------------------------------------------------------------------

/**
 * Awaiter for a stream's data. await_ready() tests the stream inline,
 * so a wait whose element has already arrived costs no suspension and
 * no event. A blocked wait parks wake() on the data CV; the awaiter
 * lives in the engine's coroutine frame, which pins its address. Each wake
 * does the per-wakeup bookkeeping, then re-parks or resumes the
 * coroutine in the same event.
 */
struct Simulator::DataWait
{
    DataWait(Simulator &sim, Engine &e, FifoState &f, StallCause cause,
             const char *why)
        : sim(sim), e(e), f(f), cause(cause), why(why)
    {
    }
    // A parked wait holds this awaiter's address.
    DataWait(const DataWait &) = delete;
    DataWait &operator=(const DataWait &) = delete;

    Simulator &sim;
    Engine &e;
    FifoState &f;
    StallCause cause;
    const char *why;
    uint64_t blockedAt = 0;
    std::coroutine_handle<> h;

    bool
    await_ready()
    {
        if (!f.empty()) {
            e.unpark();
            return true;
        }
        return false;
    }
    void
    await_suspend(std::coroutine_handle<> handle)
    {
        h = handle;
        park();
    }
    void await_resume() const noexcept {}

    void
    park()
    {
        e.parkOn(Engine::WaitKind::StreamData, f.spec().id.v, why,
                 f.spec().name);
        blockedAt = sim.sched_.now();
        f.dataCv.park(&DataWait::wake, this);
    }

    static void
    wake(void *p)
    {
        auto &w = *static_cast<DataWait *>(p);
        w.sim.noteWake(w.e, WakeClass::FifoData, w.f.empty());
        w.e.stats.stallCycles[static_cast<int>(w.cause)] +=
            w.sim.sched_.now() - w.blockedAt;
        if (w.await_ready())
            w.h.resume();
        else
            w.park();
    }
};

/**
 * Awaiter for a stream's credit, as DataWait. For a push on a NoC
 * stream (`admit`) the producer then stages its flit's first-hop
 * request and waits for the NoC's end-of-cycle pass to admit it. Each
 * gate has its own attribution, and the cycles blocked on each are
 * disjoint: the end-to-end credit window (consumer backpressure ->
 * `cause`, normally Credit) and first-hop admission (network
 * contention -> Network).
 */
struct Simulator::SpaceWait
{
    SpaceWait(Simulator &sim, Engine &e, FifoState &f, StallCause cause,
              const char *why, bool admit)
        : sim(sim), e(e), f(f), cause(cause), why(why),
          admit(admit && f.onNoc())
    {
    }
    // A parked wait holds this awaiter's address.
    SpaceWait(const SpaceWait &) = delete;
    SpaceWait &operator=(const SpaceWait &) = delete;

    Simulator &sim;
    Engine &e;
    FifoState &f;
    StallCause cause;
    const char *why;
    bool admit;
    uint64_t blockedAt = 0;
    std::coroutine_handle<> h;

    bool
    await_ready()
    {
        if (f.hasSpace() && !admit) {
            e.unpark();
            return true;
        }
        return false;
    }
    void
    await_suspend(std::coroutine_handle<> handle)
    {
        h = handle;
        park();
    }
    void await_resume() const noexcept {}

    /** Park on the credit, or with one in hand stage the flit. */
    void
    park()
    {
        blockedAt = sim.sched_.now();
        if (!f.hasSpace()) {
            e.parkOn(Engine::WaitKind::StreamSpace, f.spec().id.v, why,
                     f.spec().name);
            f.spaceCv.park(&SpaceWait::spaceWake, this);
            return;
        }
        e.parkOn(Engine::WaitKind::NetInject, f.spec().id.v, "link busy",
                 f.spec().name);
        f.stage(&SpaceWait::admitted, this);
    }

    static void
    spaceWake(void *p)
    {
        auto &w = *static_cast<SpaceWait *>(p);
        w.sim.noteWake(w.e, WakeClass::FifoSpace, !w.f.hasSpace());
        w.e.stats.stallCycles[static_cast<int>(w.cause)] +=
            w.sim.sched_.now() - w.blockedAt;
        if (w.await_ready())
            w.h.resume();
        else
            w.park();
    }

    /** The NoC admitted the staged flit: push now. */
    static void
    admitted(void *p)
    {
        auto &w = *static_cast<SpaceWait *>(p);
        w.sim.noteWake(w.e, WakeClass::NocInject, false);
        w.e.stats.stallCycles[static_cast<int>(StallCause::Network)] +=
            w.sim.sched_.now() - w.blockedAt;
        w.e.unpark();
        w.h.resume();
    }
};

Simulator::DataWait
Simulator::awaitNonEmpty(Engine &e, FifoState &f, StallCause cause,
                         const char *why)
{
    return DataWait(*this, e, f, cause, why);
}

Simulator::SpaceWait
Simulator::awaitSpace(Engine &e, FifoState &f, StallCause cause,
                      const char *why, bool admit)
{
    return SpaceWait(*this, e, f, cause, why, admit);
}

/**
 * One engine's whole run. The walk keeps its place in the counter
 * chain as a level index `k` over the counter state the Engine holds
 * (val, curMin, curStep, curMax) and repeats three steps until level 0
 * wraps:
 *   - enter level k: resolve bounds, read predicates, await gates; at
 *     the innermost level fire (operands, datapath, memory body), above
 *     it start the loop and descend on a first iteration;
 *   - wrap level k: push level-k outputs, pop level-k inputs, then the
 *     skip or fire epilogue;
 *   - climb: advance the loop at k - 1, then enter k again or wrap k - 1.
 */
Task
Simulator::runUnit(Engine &e)
{
    const auto &u = *e.u;
    const int n = e.n;
    int64_t addrs[kMaxLanes];
    try {
        int k = 0;
        for (bool done = false; !done;) {
            // Resolve dynamic bounds before reading predicates: bound
            // streams are produced unconditionally relative to this loop.
            if (k < n) {
                const auto &c = u.counters[k];
                e.curMin[k] = c.min;
                e.curStep[k] = c.step;
                e.curMax[k] = c.max;
                const std::pair<int, int64_t *> bounds[] = {
                    {c.minInput, &e.curMin[k]},
                    {c.stepInput, &e.curStep[k]},
                    {c.maxInput, &e.curMax[k]}};
                for (auto [bi, slot] : bounds) {
                    if (bi < 0)
                        continue;
                    auto &f = fifos_[u.inputs[bi].stream.index()];
                    co_await awaitNonEmpty(e, f, StallCause::InputData,
                                           "loop bound");
                    *slot = std::llround(f.front()[0]);
                }
            }

            // Branch predicates conditioning rounds of level k. All are
            // read (they are produced unconditionally); any mismatch
            // skips the round.
            bool skipped = false;
            for (int bi : e.predsAt[k]) {
                auto &f = fifos_[u.inputs[bi].stream.index()];
                co_await awaitNonEmpty(e, f, StallCause::InputData,
                                       "branch predicate");
                if ((f.front()[0] != 0.0) != u.inputs[bi].expectTrue)
                    skipped = true;
            }

            // CMMC gate tokens for this level must be present before the
            // round may proceed (popped at wrap); a skipped round waits
            // for them too, so forwarding preserves order.
            for (int bi : e.gatesAt[k]) {
                auto &f = fifos_[u.inputs[bi].stream.index()];
                co_await awaitNonEmpty(e, f, StallCause::CmmcToken,
                                       skipped ? "CMMC token (skip)"
                                               : "CMMC token");
            }

            uint64_t extraCycles = 0;
            if (!skipped && k < n) {
                if (startLoop(e, k)) {
                    ++k; // A first iteration descends.
                    continue;
                }
            } else if (!skipped) {
                // Fire. All operand inputs must be readable (front is
                // read per firing regardless of pop level).
                for (int bi : e.operandBindings) {
                    auto &f = fifos_[u.inputs[bi].stream.index()];
                    co_await awaitNonEmpty(e, f, StallCause::InputData,
                                           "operand");
                }
                evalLops(e);
                const int lanes = e.activeLanes;

                if (u.kind == VuKind::MemPort) {
                    SARA_ASSERT(e.group, u.name, ": no memory group");
                    // Every port firing moves one element per lane.
                    e.stats.bytesMoved += static_cast<uint64_t>(lanes) * 4;
                    laneAddrs(e, addrs);
                    extraCycles = bankConflictCycles(addrs, lanes);
                    // Port-bus contention: a PMU applies one read and one
                    // write vector per cycle (static ports only; dynamic
                    // groups pay conflicts). Same-cycle requests from
                    // sibling ports are granted by the end-of-cycle
                    // arbiter in unit-id order — a deterministic hardware
                    // arbiter — so the grant sequence is independent of
                    // the host event interleave.
                    if (!u.dynamicBank) {
                        auto &ss = e.group->state[u.shardIndex];
                        e.busSlot = (u.dir == AccessDir::Read)
                                        ? &ss.readBusFree
                                        : &ss.writeBusFree;
                        e.busExtra = extraCycles;
                        e.blockReason = "PMU bus";
                        e.blockDetail = u.name.c_str();
                        uint64_t blockedAt = sched_.now();
                        arbBus_.push_back(&e);
                        armArbiter();
                        co_await e.arbCv.wait();
                        if (e.arbResultAt > sched_.now())
                            co_await sched_.delay(e.arbResultAt - sched_.now());
                        e.stats.stallCycles[static_cast<int>(
                            StallCause::BusContention)] +=
                            sched_.now() - blockedAt;
                        e.blockReason = "";
                    }
                    if (u.dir == AccessDir::Read) {
                        readLanes(e, addrs);
                        auto &f =
                            fifos_[u.outputs[u.respOutput].stream.index()];
                        co_await awaitSpace(e, f, StallCause::Credit,
                                            "read response space");
                        f.push(e.resp.data(), lanes);
                    } else {
                        writeLanes(e, addrs);
                    }
                } else if (u.kind == VuKind::Ag) {
                    while (e.outstanding >= kAgOutstanding) {
                        e.parkOn(Engine::WaitKind::DramWindow, -1,
                                 "DRAM outstanding limit", u.name);
                        uint64_t blockedAt = sched_.now();
                        co_await e.agCv.wait();
                        noteWake(e, WakeClass::Dram,
                                 e.outstanding >= kAgOutstanding);
                        e.stats.stallCycles[static_cast<int>(
                            StallCause::DramLatency)] +=
                            sched_.now() - blockedAt;
                    }
                    e.unpark();

                    // Hand the bursts to the end-of-cycle DRAM arbiter:
                    // same-cycle accesses from different AGs hit the
                    // channel model in unit-id order regardless of the
                    // host event interleave. The engine suspends and
                    // resumes within the same cycle, so timing matches an
                    // AG that issued its request combinationally and got
                    // the arbitrated completion back.
                    laneAddrs(e, addrs);
                    stageBursts(e, addrs);
                    e.blockReason = "DRAM arbitration";
                    e.blockDetail = u.name.c_str();
                    arbDram_.push_back(&e);
                    armArbiter();
                    co_await e.arbCv.wait();
                    e.blockReason = "";
                    uint64_t completeAt = e.arbResultAt;

                    // Injected DRAM faults: a timeout drops this access's
                    // completion (and, for reads, the response element)
                    // forever; a tail spike just stretches the completion.
                    bool timedOut = false;
                    if (opt_.fault) {
                        const uint64_t now = sched_.now();
                        if (opt_.fault->dramTimeout(u.name, now))
                            timedOut = true;
                        else
                            completeAt +=
                                opt_.fault->dramTailLatency(u.name, now);
                    }

                    if (u.dir == AccessDir::Read) {
                        readLanes(e, addrs);
                        auto &f =
                            fifos_[u.outputs[u.respOutput].stream.index()];
                        if (timedOut) {
                            // The missing element surfaces on the response
                            // stream, so log the injection under that
                            // resource too — that is the site the starved
                            // consumer's wait will name.
                            opt_.fault->note(fault::FaultKind::DramTimeout,
                                             f.spec().name, sched_.now());
                        } else {
                            // The response enters the fabric when it
                            // returns, without first-hop admission.
                            co_await awaitSpace(e, f, StallCause::Credit,
                                                "DRAM response space",
                                                /*admit=*/false);
                            f.pushWithDelay(e.resp.data(), lanes,
                                            completeAt > sched_.now()
                                                ? completeAt - sched_.now()
                                                : 0);
                        }
                    } else {
                        writeLanes(e, addrs);
                    }
                    trackOutstanding(e, completeAt, timedOut);
                }
            }

            // Wrap level k, then climb while the enclosing loop is done.
            for (;;) {
                // A store AG's wrap-level tokens are CMMC acknowledgements:
                // they must only fire once every issued write has reached
                // DRAM.
                if (u.kind == VuKind::Ag && u.dir == AccessDir::Write &&
                    k < n && !e.outputsAt[k].empty()) {
                    while (e.outstanding > 0) {
                        e.parkOn(Engine::WaitKind::DramDrain, -1,
                                 "DRAM write drain", u.name);
                        uint64_t blockedAt = sched_.now();
                        co_await e.agCv.wait();
                        noteWake(e, WakeClass::Dram, e.outstanding > 0);
                        e.stats.stallCycles[static_cast<int>(
                            StallCause::DramLatency)] +=
                            sched_.now() - blockedAt;
                    }
                    e.unpark();
                }

                for (int oi : e.outputsAt[k]) {
                    const auto &ob = u.outputs[oi];
                    auto &f = fifos_[ob.stream.index()];
                    co_await awaitSpace(e, f, StallCause::Credit,
                                        "output space");
                    if (f.spec().kind == StreamKind::Token) {
                        f.push();
                    } else if (k == n) {
                        f.push(&e.lv[ob.lop * e.vec], e.activeLanes);
                    } else {
                        const double v = combinedOutputValue(e, ob);
                        f.push(&v, 1);
                    }
                }

                for (int bi : e.inputsAt[k]) {
                    auto &f = fifos_[u.inputs[bi].stream.index()];
                    // Zero-trip and skipped rounds reach the wrap without
                    // any firing having awaited round-rate operands; the
                    // element is owed (rates are balanced) but may still
                    // be in flight.
                    co_await awaitNonEmpty(e, f, StallCause::InputData,
                                           "wrap pop");
                    f.pop();
                }

                if (u.kind == VuKind::MemPort && u.rotateLevel == k) {
                    const auto &vmu = g_.unit(u.memUnit);
                    e.bufPtr = (e.bufPtr + 1) % vmu.bufferDepth;
                }

                if (skipped) {
                    // A read engine skipped at firing granularity still
                    // owes its consumer one response element per firing
                    // (the consumer, skipped under the same predicate,
                    // pops and discards it).
                    if (k == n && u.respOutput >= 0 &&
                        u.dir == AccessDir::Read &&
                        (u.kind == VuKind::MemPort || u.kind == VuKind::Ag)) {
                        auto &f =
                            fifos_[u.outputs[u.respOutput].stream.index()];
                        // An AG's skip response enters the fabric like
                        // its DRAM responses, behind the pending ones.
                        const bool ag = u.kind == VuKind::Ag;
                        co_await awaitSpace(e, f, StallCause::Credit,
                                            "skip response space", !ag);
                        const int n = std::max(1, e.activeLanes);
                        if (ag)
                            f.pushWithDelay(e.zeros.data(), n, 0);
                        else
                            f.push(e.zeros.data(), n);
                    }
                    ++e.stats.skips;
                    e.stats.busyCycles += 1;
                    flight_.record(telemetry::FlightKind::Skip,
                                   sched_.now(), u.id.v);
                    if (!opt_.traceFile.empty())
                        recordFiring(e, sched_.now(), 1, true);
                    co_await sched_.delay(1);
                } else if (k == n) {
                    if (e.stats.firings == 0)
                        e.stats.firstFire = sched_.now();
                    e.stats.lastFire = sched_.now();
                    ++e.stats.firings;
                    // Lane serialization from bank conflicts is accounted
                    // as a stall, not useful occupancy: the firing itself
                    // is one busy cycle.
                    e.stats.busyCycles += 1;
                    e.stats.stallCycles[static_cast<int>(
                        StallCause::BankConflict)] += extraCycles;
                    flight_.record(telemetry::FlightKind::Fire,
                                   sched_.now(), u.id.v,
                                   static_cast<int32_t>(1 + extraCycles));
                    if (!opt_.traceFile.empty())
                        recordFiring(e, sched_.now(), 1 + extraCycles, false);
                    e.flops += static_cast<uint64_t>(e.arithLops) *
                               e.activeLanes;
                    co_await sched_.delay(1 + extraCycles);
                }

                if (k == 0) {
                    done = true;
                    break;
                }
                // Climb: advance the loop at k - 1.
                --k;
                skipped = false;
                bool again = false;
                if (u.counters[k].isWhile) {
                    auto &cond =
                        fifos_[u.inputs[e.whileCondOf[k]].stream.index()];
                    co_await awaitNonEmpty(e, cond, StallCause::InputData,
                                           "while condition");
                    again = cond.front()[0] != 0.0;
                    cond.pop();
                    const uint64_t rounds =
                        static_cast<uint64_t>(e.val[k]) + 1;
                    if (rounds > ir::kMaxWhileRounds)
                        fatal(u.name, ": do-while exceeded ",
                              ir::kMaxWhileRounds, " rounds");
                    if (again)
                        e.val[k] = static_cast<int64_t>(rounds);
                } else {
                    const int64_t stepMul =
                        k == n - 1 ? u.counters[k].vec : 1;
                    again = enterIteration(
                        e, k, e.val[k] + e.curStep[k] * stepMul);
                }
                if (again) {
                    ++k;
                    break;
                }
            }
        }
        e.finished = true;
        e.stats.doneAt = sched_.now();
    } catch (const std::exception &ex) {
        e.error = ex.what();
        e.finished = false;
    }
}

bool
Simulator::startLoop(Engine &e, int k)
{
    // Reduction accumulators over this loop reset at round entry.
    const auto &lops = e.u->lops;
    for (size_t i = 0; i < lops.size(); ++i) {
        if (ir::isReduceOp(lops[i].kind) && lops[i].counter == k)
            std::fill_n(&e.redAcc[i * e.vec], e.vec,
                        reduceIdentity(lops[i].kind));
    }
    if (e.u->counters[k].isWhile) {
        SARA_ASSERT(e.whileCondOf[k] >= 0, e.u->name,
                    ": while counter without condition input");
        e.val[k] = 0;
        return true; // A do-while runs its body at least once.
    }
    return enterIteration(e, k, e.curMin[k]);
}

bool
Simulator::enterIteration(Engine &e, int k, int64_t v)
{
    if (v >= e.curMax[k])
        return false;
    e.val[k] = v;
    if (k == e.n - 1) {
        int64_t remaining =
            (e.curMax[k] - v + e.curStep[k] - 1) / e.curStep[k];
        e.activeLanes = static_cast<int>(
            std::min<int64_t>(e.u->counters[k].vec, remaining));
    }
    return true;
}

// ---------------------------------------------------------------------------
// Datapath evaluation and memory application
// ---------------------------------------------------------------------------

void
Simulator::laneAddrs(const Engine &e, int64_t *addrs) const
{
    const auto &u = *e.u;
    const int lanes = e.activeLanes;
    SARA_ASSERT(lanes <= kMaxLanes, "lane count too large");
    if (u.addrLop >= 0) {
        const double *lv = &e.lv[u.addrLop * e.vec];
        for (int l = 0; l < lanes; ++l)
            addrs[l] = roundAddr(lv[l]);
    } else {
        const LaneView elem =
            fifos_[u.inputs[u.addrInput].stream.index()].front();
        for (int l = 0; l < lanes; ++l)
            addrs[l] = roundAddr(elem.size == 1 ? elem[0] : elem[l]);
    }
}

double &
Simulator::memWord(Engine &e, int64_t addr, bool write)
{
    const auto &u = *e.u;
    if (u.kind == VuKind::Ag) {
        auto &data = dramData_[u.tensor.index()];
        SARA_ASSERT(addr >= 0 && addr < static_cast<int64_t>(data.size()),
                    u.name, write ? ": DRAM write OOB addr "
                                  : ": DRAM read OOB addr ",
                    addr);
        return data[addr];
    }
    MemGroup &grp = *e.group;
    auto [shard, offset] = locate(grp, addr);
    if (!u.dynamicBank)
        SARA_ASSERT(static_cast<int>(shard) == u.shardIndex, u.name,
                    ": static port touched shard ", shard, " (expected ",
                    u.shardIndex, ") addr ", addr);
    auto &ss = grp.state[shard];
    const auto &vmu = g_.unit(grp.shards[shard]);
    int buf = e.bufPtr % vmu.bufferDepth;
    SARA_ASSERT(offset >= 0 && offset < vmu.bufferSize, u.name,
                ": shard offset OOB ", offset);
    if (write)
        ss.lastWriteBuf = buf;
    return ss.buffers[buf][offset];
}

Simulator::MemWindow
Simulator::memWindow(Engine &e, bool write)
{
    const auto &u = *e.u;
    if (u.kind == VuKind::Ag) {
        auto &data = dramData_[u.tensor.index()];
        return {data.data(), 0, data.size()};
    }
    // A dynamic-bank port may touch any shard: every lane goes through
    // memWord (an empty window).
    if (u.dynamicBank)
        return {};
    // The addresses locate() maps into the port's shard s: from s's
    // first address up, and below the next shard's unless s is last.
    MemGroup &grp = *e.group;
    const int s = u.shardIndex;
    auto &ss = grp.state[s];
    const auto &vmu = g_.unit(grp.shards[s]);
    const int buf = e.bufPtr % vmu.bufferDepth;
    if (write)
        ss.lastWriteBuf = buf;
    uint64_t size = static_cast<uint64_t>(vmu.bufferSize);
    if (s + 1 < grp.numShards)
        size = std::min(size, static_cast<uint64_t>(grp.interleave));
    return {ss.buffers[buf].data(), s * grp.interleave, size};
}

void
Simulator::readLanes(Engine &e, const int64_t *addrs)
{
    const auto &u = *e.u;
    SARA_ASSERT(u.respOutput >= 0, u.name, ": read w/o response output");
    const MemWindow w = memWindow(e, false);
    for (int l = 0; l < e.activeLanes; ++l) {
        const double *word = w.word(addrs[l]);
        e.resp[l] = word ? *word : memWord(e, addrs[l], false);
    }
}

void
Simulator::writeLanes(Engine &e, const int64_t *addrs)
{
    const auto &u = *e.u;
    SARA_ASSERT(u.dataInput >= 0, u.name, ": write w/o data input");
    const LaneView data =
        fifos_[u.inputs[u.dataInput].stream.index()].front();
    const MemWindow w = memWindow(e, true);
    for (int l = 0; l < e.activeLanes; ++l) {
        double *word = w.word(addrs[l]);
        (word ? *word : memWord(e, addrs[l], true)) =
            data.size == 1 ? data[0] : data[l];
    }
}

void
Simulator::stageBursts(Engine &e, const int64_t *addrs)
{
    const uint64_t tensorBase = static_cast<uint64_t>(e.u->tensor.index())
                                << 24; // Distinct regions.
    const int lanes = e.activeLanes;
    e.stagedBursts.clear();
    int runStart = 0;
    for (int l = 1; l <= lanes; ++l) {
        if (l == lanes || addrs[l] != addrs[l - 1] + 1) {
            uint32_t bytes = static_cast<uint32_t>(l - runStart) * 4;
            e.stagedBursts.emplace_back(
                tensorBase + static_cast<uint64_t>(addrs[runStart]) * 4,
                bytes);
            e.stats.bytesMoved += bytes;
            runStart = l;
        }
    }
}

void
Simulator::trackOutstanding(Engine &e, uint64_t completeAt, bool timedOut)
{
    // A timed-out access never completes: its outstanding slot leaks,
    // eventually wedging the window or the write drain — exactly the
    // hang a lost DRAM response causes in hardware.
    ++e.outstanding;
    ++dramOutstanding_;
    if (!timedOut) {
        sched_.scheduleFnAt(
            [](void *arg) {
                auto *eng = static_cast<Engine *>(arg);
                --eng->outstanding;
                --eng->sim->dramOutstanding_;
                eng->sim->sampleDram();
                // The AG engine is the CV's only possible waiter. A
                // drain waiter (wants outstanding == 0) would treat
                // every intermediate completion as spurious, so it is
                // notified only on the last one; a window waiter is
                // unblocked by any completion.
                if (eng->waitKind != Engine::WaitKind::DramDrain ||
                    eng->outstanding == 0)
                    eng->agCv.notify();
            },
            &e, std::max(completeAt, sched_.now()));
    }
    sampleDram();
}

void
Simulator::evalLops(Engine &e)
{
    const auto &u = *e.u;
    const int vec = e.vec;
    const int lanes = e.activeLanes;
    auto lanesOf = [&](int lop) {
        return lop >= 0 ? &e.lv[lop * vec] : e.zeros.data();
    };

    for (size_t i = 0; i < u.lops.size(); ++i) {
        const auto &lop = u.lops[i];
        double *out = &e.lv[i * vec];
        if (lop.isStreamIn()) {
            const auto &in = u.inputs[lop.input];
            const LaneView elem = fifos_[in.stream.index()].front();
            if (elem.size == 1) {
                for (int l = 0; l < lanes; ++l)
                    out[l] = elem[0];
            } else {
                SARA_ASSERT(elem.size >= lanes, u.name,
                            ": stream element lanes ", elem.size,
                            " < active ", lanes);
                for (int l = 0; l < lanes; ++l)
                    out[l] = elem[l];
            }
            continue;
        }
        switch (lop.kind) {
          case ir::OpKind::Const:
            for (int l = 0; l < lanes; ++l)
                out[l] = lop.cval;
            break;
          case ir::OpKind::Iter: {
            int64_t base = e.val[lop.counter];
            if (lop.counter == e.n - 1 && vec > 1) {
                int64_t step = e.curStep[lop.counter];
                for (int l = 0; l < lanes; ++l)
                    out[l] = static_cast<double>(base + l * step);
            } else {
                for (int l = 0; l < lanes; ++l)
                    out[l] = static_cast<double>(base);
            }
            break;
          }
          case ir::OpKind::RedAdd:
          case ir::OpKind::RedMin:
          case ir::OpKind::RedMax:
          case ir::OpKind::RedMul: {
            double *acc = &e.redAcc[i * vec];
            const double *src = &e.lv[lop.a * vec];
            for (int l = 0; l < lanes; ++l) {
                acc[l] = reduceCombine(lop.kind, acc[l], src[l]);
                out[l] = acc[l];
            }
            break;
          }
          default:
            ir::evalLanes(lop.kind, lanesOf(lop.a), lanesOf(lop.b),
                          lanesOf(lop.c), out, lanes);
            break;
        }
    }
}

double
Simulator::combinedOutputValue(Engine &e, const dfg::OutputBinding &ob)
{
    const auto &u = *e.u;
    const auto &lop = u.lops[ob.lop];
    const int vec = e.vec;
    if (ir::isReduceOp(lop.kind)) {
        double acc = e.redAcc[ob.lop * vec];
        for (int l = 1; l < vec; ++l)
            acc = reduceCombine(lop.kind, acc, e.redAcc[ob.lop * vec + l]);
        return acc;
    }
    int lane = std::max(0, e.activeLanes - 1);
    return e.lv[ob.lop * vec + lane];
}

void
Simulator::armArbiter()
{
    if (!arbArmed_) {
        arbArmed_ = true;
        sched_.atCycleEnd(&Simulator::arbTrampoline, this);
    }
}

void
Simulator::arbTrampoline(void *arg)
{
    static_cast<Simulator *>(arg)->resolveArbitration();
}

void
Simulator::resolveArbitration()
{
    arbArmed_ = false;
    // Each engine stages at most one request per cycle and unit ids
    // are unique, so unit-id order is a total order. Engines resumed
    // by these notifies may stage *new* same-cycle requests (a granted
    // push can wake a consumer that fires this very cycle); those land
    // in a fresh end-of-cycle round via armArbiter — the scheduler
    // repeats the phase until the cycle is quiescent.
    auto byId = [](const Engine *a, const Engine *b) {
        return a->u->id.v < b->u->id.v;
    };
    std::sort(arbBus_.begin(), arbBus_.end(), byId);
    std::sort(arbDram_.begin(), arbDram_.end(), byId);
    const uint64_t now = sched_.now();
    for (Engine *e : arbBus_) {
        uint64_t grant = std::max(now, *e->busSlot);
        *e->busSlot = grant + 1 + e->busExtra;
        e->busSlot = nullptr;
        e->arbResultAt = grant;
        e->arbCv.notify();
    }
    arbBus_.clear();
    if (!arbDram_.empty()) {
        telemetry::ScopedPhase phase(telemetry::HostPhase::Dram);
        for (Engine *e : arbDram_) {
            uint64_t maxComplete = now;
            for (const auto &[addr, bytes] : e->stagedBursts)
                maxComplete = std::max(
                    maxComplete, dram_.access(addr, bytes, now).completeAt);
            e->arbResultAt = maxComplete;
            e->arbCv.notify();
        }
        arbDram_.clear();
    }
}

void
Simulator::sampleDram()
{
    if (opt_.traceFile.empty())
        return; // Only the trace reads these series.
    uint64_t now = sched_.now();
    dramOutstandingSeries_.sample(now,
                                  static_cast<double>(dramOutstanding_));
    dramBytesSeries_.sample(
        now, static_cast<double>(dram_.bytesTransferred()));
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

SimResult
Simulator::run()
{
    for (auto &e : engines_) {
        if (!e)
            continue;
        e->task = runUnit(*e);
        sched_.scheduleAt(e->task.handle(), 0);
    }

    uint64_t end = sched_.run(opt_.maxCycles, opt_.cancel);

    if (sched_.cancelled() || sched_.budgetExceeded())
        reportHang();

    bool allDone = true;
    for (auto &e : engines_) {
        if (!e)
            continue;
        if (!e->error.empty())
            panic("engine ", e->u->name, " failed: ", e->error);
        if (!e->finished)
            allDone = false;
    }
    if (!allDone)
        reportHang();

    return assembleResult(end);
}

SimResult
Simulator::assembleResult(uint64_t end)
{
    SimResult result;
    result.cycles = end;
    result.unitStats.resize(g_.numUnits());
    uint64_t busySum = 0;
    int computeUnits = 0;
    for (auto &e : engines_) {
        if (!e)
            continue;
        result.unitStats[e->u->id.index()] = e->stats;
        result.totalFirings += e->stats.firings;
        result.flops += e->flops;
        for (int c = 0; c < kNumStallCauses; ++c)
            result.stallTotals[c] += e->stats.stallCycles[c];
        if (e->u->kind == VuKind::Compute) {
            busySum += e->stats.busyCycles;
            ++computeUnits;
        }
    }
    if (computeUnits > 0 && end > 0)
        result.avgComputeUtilization =
            static_cast<double>(busySum) /
            (static_cast<double>(computeUnits) * end);
    result.fifoStats.reserve(fifos_.size());
    for (const auto &f : fifos_)
        result.fifoStats.push_back(
            {f.pushes(), f.highWater(), f.capacity()});
    result.hostEvents = sched_.eventsExecuted();
    result.wakeups = wakeups_;
    result.spuriousWakeups = spuriousWakeups_;
    result.wakeupsByClass = wakeupsByClass_;
    result.spuriousByClass = spuriousByClass_;
    if (noc_)
        result.noc = noc_->stats();
    if (!opt_.traceFile.empty())
        writeTrace();
    result.dramBytes = dram_.bytesTransferred();
    result.dramRequests = dram_.requests();
    result.dramRowHits = dram_.rowHits();
    result.dramAchievedBytesPerCycle = dram_.achievedBytesPerCycle(end);
    collectTensors(result);
    debug("simulation done: ", end, " cycles, ", result.totalFirings,
          " firings, ", result.dramRequests, " DRAM requests");
    return result;
}

void
Simulator::collectTensors(SimResult &result)
{
    result.tensors.resize(p_.numTensors());
    for (size_t t = 0; t < p_.numTensors(); ++t) {
        const auto &tensor = p_.tensor(ir::TensorId(t));
        if (tensor.space == ir::MemSpace::Dram) {
            result.tensors[t] = dramData_[t];
            continue;
        }
        auto it = groups_.find(static_cast<int32_t>(t));
        if (it == groups_.end())
            continue; // Optimized away (e.g. FIFO-lowered).
        const MemGroup &grp = it->second;
        std::vector<double> out(tensor.size, 0.0);
        for (int64_t a = 0; a < tensor.size; ++a) {
            auto [shard, offset] = locate(grp, a);
            const auto &ss = grp.state[shard];
            if (offset < static_cast<int64_t>(
                             ss.buffers[ss.lastWriteBuf].size()))
                out[a] = ss.buffers[ss.lastWriteBuf][offset];
        }
        result.tensors[t] = std::move(out);
    }
}

void
Simulator::recordFiring(const Engine &e, uint64_t start, uint64_t dur,
                        bool skip)
{
    // Per-region activity: cumulative firings per 4x4 fabric region
    // (fringe AGs clamp into the border regions), differentiated into
    // firings/cycle counter tracks at trace-write time.
    int cols = std::max(1, opt_.fabricCols);
    int rows = std::max(1, opt_.fabricRows);
    int rx = std::clamp(e.u->placeX, 0, cols - 1) * 4 / cols;
    int ry = std::clamp(e.u->placeY, 0, rows - 1) * 4 / rows;
    size_t region = static_cast<size_t>(ry * 4 + rx);
    ++regionFirings_[region];
    regionSeries_[region].sample(
        start, static_cast<double>(regionFirings_[region]));

    // Cap the buffer so accidental tracing of a huge run stays sane.
    if (trace_.size() >= (1u << 22))
        return;
    trace_.push_back({e.u->id.v, start, static_cast<uint32_t>(dur),
                      skip});
}

void
Simulator::noteWake(Engine &e, WakeClass cls, bool spurious)
{
    ++wakeups_;
    ++wakeupsByClass_[static_cast<int>(cls)];
    if (spurious) {
        ++spuriousWakeups_;
        ++spuriousByClass_[static_cast<int>(cls)];
    }
    flight_.record(telemetry::FlightKind::Wake, sched_.now(), e.u->id.v,
                   spurious ? 1 : 0);
}

void
Simulator::buildTimeline(fault::FailureReport &fr) const
{
    auto unitName = [&](int32_t id) -> std::string {
        if (id < 0 || static_cast<size_t>(id) >= g_.numUnits())
            return "?";
        return g_.unit(dfg::VuId(id)).name;
    };
    auto streamName = [&](int32_t id) -> std::string {
        if (id < 0 || static_cast<size_t>(id) >= g_.numStreams())
            return "?";
        return g_.stream(dfg::StreamId(id)).name;
    };

    for (const auto &ev : flight_.events()) {
        fault::TimelineEvent te;
        te.cycle = ev.at;
        te.kind = telemetry::flightKindName(ev.kind);
        switch (ev.kind) {
          case telemetry::FlightKind::Fire:
            te.detail = unitName(ev.a) + " (" + std::to_string(ev.b) +
                        " cyc)";
            break;
          case telemetry::FlightKind::Skip:
            te.detail = unitName(ev.a);
            break;
          case telemetry::FlightKind::Park:
            te.detail = unitName(ev.a) +
                        (ev.b >= 0 ? " on " + streamName(ev.b)
                                   : " on dram");
            break;
          case telemetry::FlightKind::Wake:
            te.detail = unitName(ev.a) + (ev.b ? " (spurious)" : "");
            break;
          case telemetry::FlightKind::LinkGrant:
            te.detail = streamName(ev.a) + " @ " +
                        (noc_ ? noc_->linkSite(ev.b) : "?");
            break;
          case telemetry::FlightKind::Deliver:
            te.detail = streamName(ev.a);
            break;
        }
        fr.timeline.push_back(std::move(te));
    }
    fr.timelineDropped = flight_.totalRecorded() > flight_.size()
                             ? flight_.totalRecorded() - flight_.size()
                             : 0;
}

void
Simulator::writeTrace(const fault::FailureReport *failure) const
{
    // One unified timeline: compile phases (pid 0, wall-clock µs),
    // engine firings (pid 1, one thread lane per unit, 1 cycle = 1 µs),
    // and DRAM counter tracks (pid 1).
    telemetry::ChromeTraceWriter w(opt_.traceFile);
    if (!w.ok())
        return;

    constexpr int kCompilePid = 0, kSimPid = 1;
    if (opt_.compileSpans && !opt_.compileSpans->empty()) {
        w.processName(kCompilePid, "compile (wall clock)");
        for (const auto &span : *opt_.compileSpans) {
            w.complete(kCompilePid, span.depth, span.name,
                       span.startMs * 1e3, span.durMs * 1e3);
        }
    }

    w.processName(kSimPid, "simulation (cycles)");
    for (const auto &e : engines_) {
        if (!e)
            continue;
        w.threadName(kSimPid, e->u->id.v, e->u->name);
    }
    for (const auto &ev : trace_) {
        const auto &u = g_.unit(dfg::VuId(ev.unit));
        w.complete(kSimPid, ev.unit,
                   ev.skip ? u.name + " (skip)" : u.name,
                   static_cast<double>(ev.start),
                   static_cast<double>(ev.dur));
    }
    for (const auto &[t, v] : dramOutstandingSeries_.samples())
        w.counter(kSimPid, "dram-outstanding", static_cast<double>(t),
                  "requests", v);
    // Differentiate the cumulative byte counter into a bandwidth track.
    uint64_t prevT = 0;
    double prevBytes = 0.0;
    for (const auto &[t, v] : dramBytesSeries_.samples()) {
        if (t > prevT)
            w.counter(kSimPid, "dram-bandwidth", static_cast<double>(t),
                      "bytes/cycle",
                      (v - prevBytes) / static_cast<double>(t - prevT));
        prevT = t;
        prevBytes = v;
    }
    // Per-region fabric activity: cumulative firings per 4x4 region,
    // differentiated into firings/cycle tracks.
    for (int i = 0; i < 16; ++i) {
        if (regionSeries_[i].empty())
            continue;
        char name[32];
        std::snprintf(name, sizeof name, "region(%d,%d)", i % 4, i / 4);
        uint64_t rPrevT = 0;
        double rPrev = 0.0;
        for (const auto &[t, v] : regionSeries_[i].samples()) {
            if (t > rPrevT)
                w.counter(kSimPid, name, static_cast<double>(t),
                          "firings/cycle",
                          (v - rPrev) / static_cast<double>(t - rPrevT));
            rPrevT = t;
            rPrev = v;
        }
    }
    if (noc_) {
        // Link-load tracks: flits inside the network and links with a
        // queued flit, sampled on every inject/deliver transition.
        for (const auto &[t, v] : noc_->loadSeries().samples())
            w.counter(kSimPid, "noc-link-load", static_cast<double>(t),
                      "flits", v);
        for (const auto &[t, v] : noc_->busySeries().samples())
            w.counter(kSimPid, "noc-busy-links", static_cast<double>(t),
                      "links", v);
    }
    if (failure) {
        // Failure annotation: one classification marker plus an
        // instant on each blocked engine's lane at the hang cycle.
        w.instant(kSimPid, 0,
                  std::string("HANG: ") +
                      fault::hangClassName(failure->cls),
                  static_cast<double>(failure->atCycle));
        for (const auto &e : engines_) {
            if (!e || e->finished)
                continue;
            w.instant(kSimPid, e->u->id.v,
                      "blocked: " + std::string(e->blockReason) + " [" +
                          e->blockDetail + "]",
                      static_cast<double>(failure->atCycle));
        }
    }

    size_t events = w.eventsWritten();
    w.close();
    inform("wrote ", events, " trace events to ", opt_.traceFile);
}

std::vector<fault::WaitNode>
Simulator::buildWaitGraph() const
{
    // Map engine VuId -> index in the blocked list for provider edges.
    std::vector<int> blockedIdx(g_.numUnits(), -1);
    std::vector<const Engine *> blocked;
    for (const auto &e : engines_) {
        if (!e || e->finished)
            continue;
        blockedIdx[e->u->id.index()] = static_cast<int>(blocked.size());
        blocked.push_back(e.get());
    }

    std::vector<fault::WaitNode> nodes;
    nodes.reserve(blocked.size());
    for (const Engine *e : blocked) {
        fault::WaitNode n;
        n.unit = e->u->name;
        for (int c = 0; c < kNumStallCauses; ++c) {
            if (e->stats.stallCycles[c] > 0)
                n.stalls.emplace_back(
                    stallCauseName(static_cast<StallCause>(c)),
                    e->stats.stallCycles[c]);
        }

        dfg::VuId provider;
        switch (e->waitKind) {
          case Engine::WaitKind::StreamData: {
            const auto &s = g_.stream(dfg::StreamId(e->waitStream));
            n.wants = s.kind == StreamKind::Token ? "token" : "data";
            n.resource = s.name;
            provider = s.src;
            break;
          }
          case Engine::WaitKind::StreamSpace: {
            const auto &s = g_.stream(dfg::StreamId(e->waitStream));
            n.wants = "credit";
            n.resource = s.name;
            provider = s.dst; // Credits come back when the dst pops.
            break;
          }
          case Engine::WaitKind::NetInject: {
            const auto &s = g_.stream(dfg::StreamId(e->waitStream));
            n.wants = "link-slot";
            n.resource = noc_ ? noc_->firstLinkSite(s.id) : s.name;
            provider = s.dst; // The link drains toward the consumer.
            break;
          }
          case Engine::WaitKind::DramWindow:
            n.wants = "dram-response";
            n.resource = e->u->name;
            break;
          case Engine::WaitKind::DramDrain:
            n.wants = "dram-drain";
            n.resource = e->u->name;
            break;
          case Engine::WaitKind::None:
            if (!*e->blockReason) {
                n.running = true; // Unparked: it was firing.
                break;
            }
            n.wants = e->blockReason;
            n.resource = e->blockDetail;
            break;
        }
        if (provider.valid()) {
            size_t pi = provider.index();
            if (blockedIdx[pi] >= 0)
                n.provider = blockedIdx[pi];
            else if (engines_[pi] && engines_[pi]->finished)
                n.providerFinished = true;
            // Storage VMUs have no engine: external provider (-1).
        }
        nodes.push_back(std::move(n));
    }
    return nodes;
}

void
Simulator::reportHang()
{
    // The trace leading up to a hang is the evidence needed to
    // diagnose it: flush it, annotated with the classification.
    fault::FailureReport fr =
        fault::classify(buildWaitGraph(), opt_.fault, sched_.now());
    // The cycle budget is a livelock tripwire: events were still
    // firing when it ran out, so the run was spinning rather than
    // quiescing. A watchdog cancel stops the run mid-flight too, and
    // is flagged so the caller can tell it from an organic hang.
    fr.budgetExceeded = sched_.budgetExceeded();
    if (fr.budgetExceeded)
        fr.budget = opt_.maxCycles;
    fr.cancelled = sched_.cancelled();
    if ((fr.budgetExceeded || fr.cancelled) &&
        fr.cls == fault::HangClass::Deadlock) {
        // A wait-for cycle in a mid-flight snapshot is transient (the
        // wanted data may simply still be in the network): with events
        // pending the run is live by definition, so it is a livelock,
        // never a deadlock. Injected-fault attribution stands — a
        // permanent fault can burn the budget.
        fr.cls = fault::HangClass::Starvation;
        fr.cycle.clear();
    }
    buildTimeline(fr);
    if (!opt_.traceFile.empty())
        writeTrace(&fr);
    // Same logging contract as panic(); the throw carries structure.
    detail::logMessage(LogLevel::Error, "panic", fr.str());
    throw fault::HangError(std::move(fr));
}

} // namespace sara::sim
