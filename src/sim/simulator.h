#ifndef SARA_SIM_SIMULATOR_H
#define SARA_SIM_SIMULATOR_H

/**
 * @file
 * Cycle-level, functionally-exact simulator for compiled VUDFGs.
 *
 * Every virtual unit executes as a coroutine engine:
 *   - Counters open "rounds" level by level; a round at level k first
 *     resolves dynamic bounds, then reads the branch predicates bound
 *     at that level.
 *   - If any predicate mismatches, the round is *skipped*: the engine
 *     waits for its level-k CMMC gate tokens (order preservation),
 *     pops level-k inputs, re-pushes level-k outputs (tokens are
 *     forwarded — paper §III-A2b — and data re-sends the most recent
 *     value, matching sequential "last write" semantics), and consumes
 *     a single cycle. Deeper streams connect units under the same
 *     clause, which all skip together.
 *   - Otherwise the engine iterates the counter; at the innermost
 *     level each firing evaluates the local dataflow over the SIMD
 *     lanes, applies memory effects (MemPort/AG), pushes per-firing
 *     outputs and consumes >= 1 cycle (bank conflicts and port-bus
 *     contention add cycles).
 *   - When counter k wraps, level-k outputs push (reductions combine
 *     across lanes) and level-k inputs pop.
 *
 * Deadlocks (CMMC bugs, mis-leveled streams) are detected when the
 * event queue drains with unfinished engines. The wait-for graph over
 * the blocked engines is classified (true deadlock vs starvation vs
 * injected fault) and thrown as a structured fault::HangError, whose
 * message lists every blocked engine, what it waits on, and its
 * stall-cause histogram.
 */

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "dfg/vudfg.h"
#include "dram/dram.h"
#include "fault/failure.h"
#include "ir/program.h"
#include "noc/noc.h"
#include "sim/fifo.h"
#include "sim/task.h"
#include "support/flight.h"
#include "support/telemetry.h"

namespace sara::sim {

/** Simulation knobs. */
struct SimOptions
{
    uint64_t maxCycles = 4'000'000'000ULL;
    /** Route streams through the cycle-level NoC model (src/noc)
     *  instead of the fixed per-stream latency stamped by PnR. Off by
     *  default: the legacy fixed-latency model stays the baseline. */
    bool useNoc = false;
    /** Network parameters for `useNoc` (filled from the chip's
     *  arch::NetSpec by the runtime layer). */
    noc::NocSpec noc;
    /** When non-empty, write a Chrome-trace (chrome://tracing /
     *  Perfetto) JSON timeline of every engine firing here. The trace
     *  is also flushed on deadlock, so the evidence survives the
     *  panic. */
    std::string traceFile;
    /** Compile-phase spans to merge into the trace timeline (one
     *  unified file per run); may be null. Not owned — must outlive
     *  the simulator. */
    const std::vector<telemetry::Span> *compileSpans = nullptr;
    /** Fault injector driving the seeded fault models (NoC flit
     *  delay/duplication, stuck link credits, DRAM timeouts and tail
     *  spikes, FIFO credit leaks). Null — the default — compiles every
     *  injection point down to a pointer check: runs without an
     *  injector are cycle-identical to builds without the subsystem.
     *  Not owned; must outlive the simulator. */
    const fault::FaultInjector *fault = nullptr;
    /** Core-grid dimensions for the trace's per-region firing tracks
     *  (filled from arch::PlasticineSpec by the runtime layer; fringe
     *  AGs sit at x = -1 / x = fabricCols and clamp into the border
     *  regions). */
    int fabricRows = 20;
    int fabricCols = 20;
    /** External cancellation flag, polled once per simulated cycle.
     *  When it goes true the run stops and throws a HangError whose
     *  FailureReport carries `cancelled` (the daemon watchdog uses
     *  this to cancel a request that blew its wall-clock deadline
     *  without killing the worker thread). Not owned; may be null. */
    const std::atomic<bool> *cancel = nullptr;
};

/**
 * Why an engine spent a blocked cycle (paper Fig. 9-11 cycle
 * accounting). Every cycle an engine is neither firing nor finished
 * is attributed to exactly one cause.
 */
enum class StallCause : uint8_t {
    InputData,     ///< Operand/bound/predicate data not yet arrived.
    CmmcToken,     ///< Waiting on a CMMC order/gate token.
    Credit,        ///< Downstream FIFO full (backpressure).
    DramLatency,   ///< DRAM outstanding window full or write drain.
    BankConflict,  ///< Serialized lanes colliding on a PMU bank.
    BusContention, ///< PMU read/write port bus busy.
    Network,       ///< NoC first-hop link buffer full (contention).
};
inline constexpr int kNumStallCauses = 7;

const char *stallCauseName(StallCause cause);

/**
 * Condition-variable classes for wakeup accounting: every coroutine
 * wakeup (and its spurious subset) is attributed to the kind of CV it
 * landed on, so the run report can show *which* wait sites pay the
 * thundering-herd cost — the per-class breakdown behind the aggregate
 * SimResult::wakeups / spuriousWakeups.
 */
enum class WakeClass : uint8_t {
    FifoData,  ///< Consumer-side data/token arrival (FifoState::dataCv).
    FifoSpace, ///< Producer-side credit return (FifoState::spaceCv).
    NocInject, ///< NoC first-hop link-slot grant (injectCv).
    Dram,      ///< AG outstanding-window / write-drain completion.
};
inline constexpr int kNumWakeClasses = 4;

const char *wakeClassName(WakeClass cls);

/** Per-unit activity counters. */
struct UnitStats
{
    uint64_t firings = 0;
    uint64_t skips = 0;
    uint64_t busyCycles = 0;
    /** DRAM/PMU bytes this unit moved (AG bursts, MemPort lanes). */
    uint64_t bytesMoved = 0;
    uint64_t firstFire = 0; ///< Cycle of the first firing.
    uint64_t lastFire = 0;  ///< Cycle of the last firing.
    uint64_t doneAt = 0;    ///< Cycle the engine finished all rounds.
    /** Blocked cycles by cause; busyCycles + sum(stallCycles) ==
     *  doneAt, and doneAt + idle-after-done == total cycles. */
    std::array<uint64_t, kNumStallCauses> stallCycles{};

    uint64_t
    stallTotal() const
    {
        uint64_t sum = 0;
        for (uint64_t c : stallCycles)
            sum += c;
        return sum;
    }
};

/** Per-stream FIFO pressure statistics. */
struct FifoStats
{
    uint64_t pushes = 0;
    uint64_t highWater = 0; ///< Max occupancy incl. in-flight elements.
    uint64_t capacity = 0;  ///< depth + latency credit window.
};

/** Simulation outcome and metrics. */
struct SimResult
{
    uint64_t cycles = 0;
    uint64_t totalFirings = 0;
    uint64_t flops = 0; ///< Arithmetic lop-lane executions.
    // DRAM
    uint64_t dramBytes = 0;
    uint64_t dramRequests = 0;
    uint64_t dramRowHits = 0;
    double dramAchievedBytesPerCycle = 0.0;
    // Per-unit stats (indexed by VuId).
    std::vector<UnitStats> unitStats;
    double avgComputeUtilization = 0.0;
    /** Aggregate blocked cycles by cause across all engines. */
    std::array<uint64_t, kNumStallCauses> stallTotals{};
    /** Per-stream pressure (indexed by StreamId). */
    std::vector<FifoStats> fifoStats;
    /** Network statistics (enabled=false on fixed-latency runs). */
    noc::NocStats noc;
    /** Final memory contents per tensor id (reconstructed across
     *  shards; on-chip tensors read from the most recently written
     *  multibuffer copy). */
    std::vector<std::vector<double>> tensors;
    /** Host-side event-core counters (wall-clock throughput metrics,
     *  not simulated time): scheduler events executed, coroutine
     *  wakeups, and the subset of wakeups whose predicate was still
     *  false on resume (spurious — the thundering-herd cost). */
    uint64_t hostEvents = 0;
    uint64_t wakeups = 0;
    uint64_t spuriousWakeups = 0;
    /** Wakeups (and the spurious subset) broken down by CV class —
     *  sums over the classes equal the aggregates above. */
    std::array<uint64_t, kNumWakeClasses> wakeupsByClass{};
    std::array<uint64_t, kNumWakeClasses> spuriousByClass{};
};

/** Executes one compiled VUDFG against a DRAM model. */
class Simulator
{
  public:
    Simulator(const ir::Program &program, const dfg::Vudfg &graph,
              dram::DramSpec dramSpec, SimOptions options = {});
    ~Simulator();

    /** Pre-set DRAM tensor contents (defaults to zeros). */
    void setDramTensor(ir::TensorId id, std::vector<double> data);

    /** Run to completion; panics with a diagnosis on deadlock. */
    SimResult run();

  private:
    struct Engine;
    struct MemGroup;
    struct MemWindow;
    struct DataWait;
    struct SpaceWait;

    /**
     * The engine coroutine: one frame per engine for the whole run. It
     * walks the counter chain with an explicit level index; every wait
     * is an awaiter over this frame, so a firing allocates no frame.
     */
    Task runUnit(Engine &e);
    /** Awaitable: the stream has a readable element. */
    DataWait awaitNonEmpty(Engine &e, FifoState &f, StallCause cause,
                           const char *why);
    /** Awaitable: the stream has a credit (and, on NoC runs, its
     *  first-hop link a free slot). */
    SpaceWait awaitSpace(Engine &e, FifoState &f, StallCause cause,
                         const char *why);

    // Firing work between the coroutine's awaits (plain functions).
    void evalLops(Engine &e);
    double combinedOutputValue(Engine &e, const dfg::OutputBinding &ob);
    /** Reset the level-k reductions and start the loop at level k;
     *  false when it has no first iteration. */
    bool startLoop(Engine &e, int k);
    /** Enter iteration `v` of the counted loop at level k; false once
     *  the loop is done. */
    bool enterIteration(Engine &e, int k, int64_t v);
    /** Address lanes from the local datapath or the address stream. */
    void laneAddrs(const Engine &e, int64_t *addrs) const;
    /** The word a lane addresses: an AG's DRAM word, or a PMU port's
     *  word in its current multibuffer copy (a write marks that copy
     *  as the shard's latest). */
    double &memWord(Engine &e, int64_t addr, bool write);
    /** The words one firing of an AG or static-bank PMU port may touch,
     *  resolved once per firing (a write marks the copy as latest). */
    MemWindow memWindow(Engine &e, bool write);
    /** Gather the response lanes of a PMU-port or AG read into the
     *  engine's response buffer. */
    void readLanes(Engine &e, const int64_t *addrs);
    /** Scatter the data-input lanes of a PMU-port or AG write. */
    void writeLanes(Engine &e, const int64_t *addrs);
    /** Coalesce AG lanes into DRAM bursts for the end-of-cycle arbiter. */
    void stageBursts(Engine &e, const int64_t *addrs);
    /** Count an issued DRAM access against the AG's outstanding window
     *  and schedule its completion (never, when it timed out). */
    void trackOutstanding(Engine &e, uint64_t completeAt, bool timedOut);

    // Memory addressing.
    std::pair<size_t, int64_t> locate(const MemGroup &g,
                                      int64_t logical) const;

    // Canonical end-of-cycle arbitration: same-cycle DRAM accesses and
    // PMU port-bus requests are staged during the cycle and resolved
    // in unit-id order once the cycle's events drain (a deterministic
    // hardware arbiter). Simulated timing therefore depends only on
    // the dependency graph, never on host event order.
    void armArbiter();
    static void arbTrampoline(void *arg);
    void resolveArbitration();

    /** Assemble the SimResult from engine, fifo and DRAM state. */
    SimResult assembleResult(uint64_t end);

    /** Classify the unfinished engines of a drained, over-budget or
     *  cancelled run and throw the FailureReport as a HangError. */
    [[noreturn]] void reportHang();
    std::vector<fault::WaitNode> buildWaitGraph() const;
    void collectTensors(SimResult &result);
    /** Per-wakeup bookkeeping: aggregate + per-class tallies and a
     *  flight-recorder Wake event. */
    void noteWake(Engine &e, WakeClass cls, bool spurious);
    /** Format the flight-recorder ring into `fr.timeline`. */
    void buildTimeline(fault::FailureReport &fr) const;
    void recordFiring(const Engine &e, uint64_t start, uint64_t dur,
                      bool skip);
    void sampleDram();
    void writeTrace(const fault::FailureReport *failure = nullptr) const;

    const ir::Program &p_;
    const dfg::Vudfg &g_;
    SimOptions opt_;
    Scheduler sched_;
    dram::DramModel dram_;
    std::unique_ptr<noc::NocModel> noc_; ///< Non-null when useNoc.

    /** DRAM requests in flight across every AG (telemetry). */
    int dramOutstanding_ = 0;
    // Wakeup accounting (copied into SimResult::wakeups et al.).
    uint64_t wakeups_ = 0;
    uint64_t spuriousWakeups_ = 0;
    std::array<uint64_t, kNumWakeClasses> wakeupsByClass_{};
    std::array<uint64_t, kNumWakeClasses> spuriousByClass_{};
    // End-of-cycle arbitration staging (see resolveArbitration).
    std::vector<Engine *> arbDram_;
    std::vector<Engine *> arbBus_;
    bool arbArmed_ = false;
    /** Last-N scheduler/wakeup/link events for failure timelines. */
    telemetry::FlightRecorder flight_;
    /** Cumulative firings per fabric region (4x4 region grid), sampled
     *  on every firing for the Chrome-trace counter tracks. Only
     *  populated when tracing (same gate as trace_). */
    std::array<telemetry::TimeSeries, 16> regionSeries_;
    std::array<uint64_t, 16> regionFirings_{};
    telemetry::TimeSeries dramOutstandingSeries_{4096, 8};
    telemetry::TimeSeries dramBytesSeries_{4096, 8};

    struct TraceEvent
    {
        int32_t unit;
        uint64_t start;
        uint32_t dur;
        bool skip;
    };
    std::vector<TraceEvent> trace_;

    std::vector<FifoState> fifos_;
    std::vector<std::unique_ptr<Engine>> engines_;
    std::unordered_map<int32_t, MemGroup> groups_; ///< tensor id -> group.
    std::vector<std::vector<double>> dramData_;    ///< tensor id -> data.
};

} // namespace sara::sim

#endif // SARA_SIM_SIMULATOR_H
