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
 *  - each directed link grants at most one flit per cycle, chosen by a
 *    deterministic round-robin over stream ids among the flits whose
 *    next-hop buffer has space;
 *  - each link has a small input buffer (`NocSpec::linkBuffer` flits);
 *    a granted flit reserves its slot in the downstream buffer before
 *    it starts the `hopLatency`-cycle traversal — link-level credit
 *    flow control, so congestion back-pressures hop by hop all the way
 *    to the producer, which blocks in `StallCause::Network`;
 *  - ejection into the destination FIFO never blocks (the end-to-end
 *    credit window `depth + latency` bounds what a producer may have
 *    in flight), which together with the turn-free X-then-Y routes
 *    makes the network deadlock-free by construction.
 *
 * Determinism: the scheduler resolves same-cycle events in insertion
 * order and arbitration state is a per-link cursor over stream ids, so
 * two runs of the same compiled graph are cycle-identical.
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

/** Network timing/flow-control parameters (mirrors arch::NetSpec). */
struct NocSpec
{
    int hopLatency = 2;   ///< Cycles for a granted flit to cross a link.
    int ejectLatency = 2; ///< Last grant -> destination FIFO delivery.
    int minLatency = 4;   ///< Floor on end-to-end transit (switch entry).
    int linkBuffer = 2;   ///< Flit slots per link input buffer.
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
 * The network model. Register every stream once (before simulation),
 * then producers gate on `canAccept` and call `inject`/`injectAt`;
 * the model invokes the delivery callback when the flit ejects at the
 * destination, in per-stream push order.
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

    /** True when the stream's first-hop buffer can take a flit now. */
    bool canAccept(dfg::StreamId id) const;

    /** Wait list for `canAccept` (notified when a slot frees). */
    sim::CondVar &acceptCv(dfg::StreamId id);

    /** Inject one flit now. Caller must gate on `canAccept`. */
    void inject(dfg::StreamId id, DeliverFn deliver, void *ctx);

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

    /** Flits in flight over time (sampled on every inject/deliver). */
    const telemetry::TimeSeries &loadSeries() const { return loadSeries_; }
    /** Links with queued flits over time. */
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

    /** One directed link: input buffer + single-grant-per-cycle port. */
    struct Link
    {
        NocModel *model = nullptr;
        dfg::RouteLink where;
        int idx = -1;     ///< Index into links_ (flight-event key).
        std::string site; ///< "(x,y)D" — fault-injection site name.
        int streams = 0;          ///< Static load (routed streams).
        std::vector<Flit *> q;    ///< Waiting flits, arrival order.
        int reserved = 0;         ///< Slots held by in-transit flits.
        uint64_t freeAt = 0;      ///< Next cycle a grant is possible.
        bool pollScheduled = false;
        int rrCursor = -1;        ///< Stream id of the last grant.
        std::vector<int> feeders; ///< Upstream link indices to re-poll.
        sim::CondVar spaceCv;     ///< Producers waiting to inject here.
        uint64_t traversals = 0, waitCycles = 0, qHighWater = 0;
    };

    Link &firstLink(dfg::StreamId id);
    const Link &firstLink(dfg::StreamId id) const;
    /** Buffer slots usable for new flits: linkBuffer minus occupancy,
     *  reservations and any injected stuck credits. */
    int freeSlots(const Link &link) const;
    void enqueue(Flit *f, int linkIdx);
    void schedulePoll(Link &link, uint64_t at);
    void poll(Link &link);
    void grant(Link &link, size_t qPos);
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
    };
    std::vector<StreamState> streams_; ///< Indexed by stream id.
    int numStreams_ = 0;               ///< Round-robin modulus.

    std::deque<Link> links_; ///< Stable addresses (CondVar refs).
    std::map<dfg::RouteLink, int> linkIndex_;

    /** Owns every flit (stable addresses); delivered flits go on
     *  `freeFlits_` and are reused by the next injection, so a steady
     *  stream of elements allocates no flits. */
    std::deque<Flit> flits_;
    std::vector<Flit *> freeFlits_;

    uint64_t inflight_ = 0, peakInflight_ = 0;
    uint64_t flitsInjected_ = 0, totalHops_ = 0, totalQueueCycles_ = 0;
    int busyLinks_ = 0;
    telemetry::TimeSeries loadSeries_{4096, 8};
    telemetry::TimeSeries busySeries_{4096, 8};
};

} // namespace sara::noc

#endif // SARA_NOC_NOC_H
