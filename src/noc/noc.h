#ifndef SARA_NOC_NOC_H
#define SARA_NOC_NOC_H

/**
 * @file
 * Cycle-level model of the Plasticine static hybrid interconnect.
 *
 * PnR exports, per stream, the exact sequence of directed mesh links
 * the stream crosses (X-Y dimension order). This model replays those
 * routes flit by flit instead of honouring the router's collapsed
 * scalar latency:
 *
 *  - every element (all vector lanes of one firing) is one flit;
 *  - each link has a small input buffer (`kLinkBuffer` flits); a
 *    granted flit reserves its slot in the downstream buffer before
 *    it starts the `hopLatency`-cycle traversal — link-level credit
 *    flow control, so congestion back-pressures hop by hop all the way
 *    to the producer, which blocks in `StallCause::Network`;
 *  - ejection into the destination FIFO never blocks (the end-to-end
 *    credit window `depth + latency` bounds what a producer may have
 *    in flight), which together with the turn-free X-then-Y routes
 *    makes the network deadlock-free by construction.
 *
 * All arbitration happens in one end-of-cycle pass (registered through
 * `Scheduler::atCycleEnd`, like the simulator's DRAM and PMU-bus
 * arbiters). It visits the links with queued flits, staged requests or
 * flits waiting upstream, downstream first (X-Y routes keep the link
 * graph acyclic), and each link in turn
 *  - sends: it grants at most one flit per cycle, by a deterministic
 *    round-robin over stream ids among its flits that eject or that
 *    their next link took in (for several flits of one stream, the
 *    earliest queued);
 *  - receives: it hands its free slots, by a second round-robin over
 *    stream ids, to the flits waiting to enter it — producers' staged
 *    first-hop requests (`stage`) and flits queued at its upstream
 *    links — so neither injection nor through traffic, nor any one
 *    upstream link, has a fixed claim on them. An admitted request's
 *    flit enters the buffer at once and its producer wakes.
 * Because the link sends before it receives, a slot freed by a grant
 * is handed out upstream in the same cycle. The pass sees every flit
 * and request of the cycle at once, so the simulated timing depends
 * only on the compiled graph, never on the order in which the host ran
 * the cycle's events.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "dfg/vudfg.h"
#include "fault/fault.h"
#include "sim/task.h"
#include "support/flight.h"
#include "support/telemetry.h"

namespace sara::noc {

/** Flit slots per link input buffer. */
inline constexpr int kLinkBuffer = 2;

/** Network timing/flow-control parameters (mirrors arch::NetSpec). */
struct NocSpec
{
    int hopLatency = 2;   ///< Cycles for a granted flit to cross a link.
    int ejectLatency = 2; ///< Last grant -> destination FIFO delivery.
    int minLatency = 4;   ///< Floor on end-to-end transit (switch entry).
    /** Route Token streams through the arbitrated network. CMMC rides
     *  the shared static network; the vanilla hierarchical-FSM control
     *  uses the dedicated control bits, so tokens keep their scalar
     *  latency there. */
    bool routeTokens = true;
};

/** Per-link telemetry snapshot. */
struct LinkUse
{
    dfg::RouteLink link;
    int streams = 0;             ///< Statically routed streams.
    uint64_t traversals = 0;     ///< Flits granted across this link.
    uint64_t waitCycles = 0;     ///< Flit-cycles queued at this link.
    uint64_t queueHighWater = 0; ///< Peak input-buffer occupancy.
};

/** Whole-network statistics for SimResult / the JSON report. */
struct NocStats
{
    bool enabled = false;
    int links = 0;             ///< Directed links with >= 1 route.
    int peakStreamLoad = 0;    ///< Max streams sharing one link.
    uint64_t flits = 0;        ///< Flits injected.
    uint64_t hops = 0;         ///< Link traversals (grants).
    uint64_t queueCycles = 0;  ///< Total flit-cycles spent queued.
    uint64_t peakInflight = 0; ///< Peak flits in the network at once.
    std::vector<LinkUse> linkUse; ///< Sorted by (x, y, dir).
};

/**
 * The network model. Register every stream once (before simulation);
 * producers then `stage` each flit and wait for its admission, and
 * DRAM responses enter through `injectAt`. The model invokes the
 * delivery callback when the flit ejects at the destination, in
 * per-stream push order.
 */
class NocModel
{
  public:
    using DeliverFn = void (*)(void *);

    NocModel(sim::Scheduler &sched, const NocSpec &spec);

    NocModel(const NocModel &) = delete;
    NocModel &operator=(const NocModel &) = delete;

    /** Record a stream's static route (all kinds count toward link
     *  load; only participating kinds are arbitrated). */
    void registerStream(const dfg::Stream &s);

    /** True when the stream's flits traverse the arbitrated network
     *  (non-empty route and a routed kind). */
    bool participates(dfg::StreamId id) const;

    /**
     * Stage one flit's first-hop request. The end-of-cycle pass admits
     * it once the first-hop link has a free slot: the flit (delivered
     * through `deliver(ctx)`) enters that link's buffer and
     * `wake(wakeArg)` runs in the same cycle. A stream has one
     * producer, so at most one request per stream is staged at a time.
     */
    void stage(dfg::StreamId id, DeliverFn deliver, void *ctx,
               sim::Scheduler::EventFn wake, void *wakeArg);

    /**
     * Inject at absolute time `at` (DRAM responses). Not gated on
     * buffer space — the AG's response queue merges into the fabric —
     * and clamped so per-stream injection order matches call order.
     */
    void injectAt(dfg::StreamId id, uint64_t at, DeliverFn deliver,
                  void *ctx);

    /** Max streams statically sharing one directed link — must equal
     *  `PnrReport::maxLinkLoad` (asserted in tests). */
    int peakStreamLoad() const;

    /**
     * Attach a fault injector (may be null). Injection points: flit
     * delay and duplication at grant time, stuck credits shrinking a
     * link's effective buffer. Not owned — must outlive the model.
     */
    void setFaultInjector(const fault::FaultInjector *inj) { inj_ = inj; }

    /** Attach a flight recorder (may be null): every link grant is
     *  recorded as a LinkGrant event for failure timelines. Not owned
     *  — must outlive the model. */
    void setFlightRecorder(telemetry::FlightRecorder *f) { flight_ = f; }

    /** Record the load series below (only a trace reads them). */
    void traceLoad() { traceLoad_ = true; }

    /** Site name ("(x,y)D") of the link with the given index, as
     *  recorded in LinkGrant flight events; "?" when out of range. */
    const std::string &linkSite(int idx) const;

    /** Site name of the stream's first-hop link, e.g. "(1,2)E"; empty
     *  for streams that don't ride the arbitrated network. Producers
     *  blocked on admission report this as the wanted resource, which
     *  is what stuck-credit injections are matched against. */
    std::string firstLinkSite(dfg::StreamId id) const;

    /** Flits currently inside the network (queued or on a link). */
    uint64_t inflight() const { return inflight_; }

    NocStats stats() const;

    /** Flits in flight over time (sampled on every inject/deliver when
     *  traceLoad() is on). */
    const telemetry::TimeSeries &loadSeries() const { return loadSeries_; }
    /** Links with queued flits over time (same sampling). */
    const telemetry::TimeSeries &busySeries() const { return busySeries_; }

  private:
    /** One in-network element (all lanes of one firing). */
    struct Flit
    {
        NocModel *model = nullptr;
        int stream = 0;        ///< Stream id index (RR key).
        int hop = 0;           ///< Index into the stream's link path.
        uint64_t injectedAt = 0;
        uint64_t arrivedAt = 0; ///< Entered the current input buffer.
        DeliverFn deliver = nullptr;
        void *ctx = nullptr;
        bool duped = false; ///< Already paid a duplicated traversal.
    };

    /** One directed link: input buffer + single-grant-per-cycle port.
     *  The fields a pass visit reads come first, so that a visit
     *  touches few cache lines. */
    struct Link
    {
        std::vector<Flit *> q;    ///< Waiting flits, arrival order.
        /** Streams with a staged first-hop request here. */
        std::vector<int> staged;
        uint64_t freeAt = 0;      ///< Next cycle a grant is possible.
        int incoming = 0; ///< Flits queued upstream with this next hop.
        int reserved = 0;         ///< Slots held by in-transit flits.
        int rrCursor = -1;        ///< Stream id of the last grant.
        int inCursor = -1;        ///< Stream id of the last entry.
        int idx = -1;     ///< Index into links_ (flight-event key).
        /** Streams whose upstream flit this link took in during pass
         *  `acceptedIn`, each holding one of its free slots. */
        std::vector<int> accepted;
        uint64_t acceptedIn = 0;
        std::vector<int> upstream; ///< Links feeding this one.
        uint64_t traversals = 0, waitCycles = 0, qHighWater = 0;
        dfg::RouteLink where;
        std::string site; ///< "(x,y)D" — fault-injection site name.
        int streams = 0;          ///< Static load (routed streams).
    };

    /** Buffer slots usable for new flits: kLinkBuffer minus occupancy,
     *  reservations and any injected stuck credits. */
    int freeSlots(const Link &link) const;
    Flit *newFlit(int stream, uint64_t at, DeliverFn deliver, void *ctx);
    /** Queue `f` at its current hop's link. */
    void enqueue(Flit *f);
    /** A DRAM response flit enters the network: queue it and arm the
     *  pass. */
    void arrive(Flit *f);
    /** Register the end-of-cycle pass for the current cycle (once). */
    void arm();
    static void passTrampoline(void *arg);
    void pass();
    /** Grant one flit across `link` if it may grant this cycle. */
    bool tryGrant(Link &link);
    void grant(Link &link, size_t qPos);
    /** True when `next` takes stream `s`'s flit from upstream now: it
     *  accepted it this pass, or has a slot it handed to nobody. */
    bool takes(const Link &next, int s) const;
    /** Position of stream `s` in a round-robin that resumes after
     *  stream `cursor` (-1: from stream 0). */
    int
    rrDistance(int s, int cursor) const
    {
        const int d = s - cursor - 1;
        return d < 0 ? d + numStreams_ : d;
    }
    /** Hand `link`'s free slots to the requests waiting to enter it. */
    bool receive(Link &link);
    /** Number the links downstream first (the pass's visit order). */
    void rankLinks();
    void setActive(const Link &link);
    void deliverFlit(Flit *f);
    void sampleLoad();

    sim::Scheduler *sched_;
    NocSpec spec_;
    const fault::FaultInjector *inj_ = nullptr;
    telemetry::FlightRecorder *flight_ = nullptr;

    struct StreamState
    {
        std::vector<int> path; ///< Link indices along the route.
        bool registered = false;
        bool participates = false;
        uint64_t lastInjectAt = 0;
        // The staged first-hop request (stage()); wake is null when
        // none is staged.
        DeliverFn deliver = nullptr;
        void *ctx = nullptr;
        sim::Scheduler::EventFn wake = nullptr;
        void *wakeArg = nullptr;
    };
    std::vector<StreamState> streams_; ///< Indexed by stream id.
    int numStreams_ = 0;               ///< Round-robin modulus.

    std::vector<Link> links_;
    std::map<dfg::RouteLink, int> linkIndex_;

    // The pass visits the active links (queued flits, staged requests
    // or incoming flits) in rank order: a bitmap over ranks,
    // downstream first.
    std::vector<int> rankOf_;    ///< Link index -> rank.
    std::vector<int> byRank_;    ///< Rank -> link index.
    std::vector<uint64_t> active_;
    std::vector<int> entrants_; ///< receive()'s candidate streams.
    uint64_t passNo_ = 0;       ///< Passes run (acceptedIn stamps).
    int stagedCount_ = 0;       ///< Requests staged network-wide.
    bool armed_ = false;
    uint64_t tickAt_ = UINT64_MAX; ///< Cycle of the scheduled tick.

    /** Owns every flit (stable addresses); delivered flits go on
     *  `freeFlits_` and are reused by the next injection, so a steady
     *  stream of elements allocates no flits. */
    std::deque<Flit> flits_;
    std::vector<Flit *> freeFlits_;

    uint64_t inflight_ = 0, peakInflight_ = 0;
    uint64_t flitsInjected_ = 0, totalHops_ = 0, totalQueueCycles_ = 0;
    int busyLinks_ = 0;
    bool traceLoad_ = false;
    telemetry::TimeSeries loadSeries_{4096, 8};
    telemetry::TimeSeries busySeries_{4096, 8};
};

} // namespace sara::noc

#endif // SARA_NOC_NOC_H
