#ifndef SARA_SIM_FIFO_H
#define SARA_SIM_FIFO_H

/**
 * @file
 * Runtime state of a stream: a latency-modeled, capacity-limited FIFO.
 * Pushes enter an in-flight queue and are delivered after the stream's
 * network latency; capacity accounting covers in-flight elements so
 * back-pressure matches a credit-based hardware flow control.
 * Token streams carry empty payloads and are effectively unbounded
 * (credits bound their occupancy by construction).
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "dfg/vudfg.h"
#include "fault/fault.h"
#include "noc/noc.h"
#include "sim/task.h"
#include "support/flight.h"
#include "support/logging.h"

namespace sara::sim {

/** One data element: the active-lane values of a vectorized firing. */
using Element = std::vector<double>;

/**
 * Recycler for Element lane buffers. The fire path allocates one
 * Element per pushed firing and frees it at the consumer's pop; with
 * a pool the freed buffer's heap allocation is reused instead
 * (steady-state simulation becomes allocation-free on this path).
 * acquire() does not zero the reused buffer — callers overwrite every
 * lane; acquireZeroed() is for skip/default elements.
 */
class ElementPool
{
  public:
    Element
    acquire(size_t lanes)
    {
        if (free_.empty())
            return Element(lanes);
        Element e = std::move(free_.back());
        free_.pop_back();
        e.resize(lanes);
        return e;
    }

    Element
    acquireZeroed(size_t lanes)
    {
        if (free_.empty())
            return Element(lanes, 0.0);
        Element e = std::move(free_.back());
        free_.pop_back();
        e.assign(lanes, 0.0);
        return e;
    }

    void
    release(Element &&e)
    {
        if (e.capacity() > 0 && free_.size() < kMaxFree)
            free_.push_back(std::move(e));
    }

    size_t pooled() const { return free_.size(); }

  private:
    static constexpr size_t kMaxFree = 1024;
    std::vector<Element> free_;
};

/** Runtime FIFO backing one dfg::Stream. */
class FifoState
{
  public:
    /** With a NoC model attached (and a routed stream), in-flight
     *  elements traverse the cycle-level network instead of the fixed
     *  `latency`-cycle delay; the credit window is unchanged. An
     *  injector (may be null) enables the fifo-leak fault model; a
     *  pool (may be null, shared across streams) recycles popped
     *  Element buffers back to the fire path. A flight recorder (may
     *  be null) logs each delivery for failure timelines. */
    void
    init(Scheduler &sched, const dfg::Stream &spec,
         noc::NocModel *noc = nullptr,
         const fault::FaultInjector *inj = nullptr,
         ElementPool *pool = nullptr,
         telemetry::FlightRecorder *flight = nullptr)
    {
        sched_ = &sched;
        spec_ = &spec;
        inj_ = inj;
        pool_ = pool;
        flight_ = flight;
        noc_ = noc && noc->participates(spec.id) ? noc : nullptr;
        isToken_ = spec.kind == dfg::StreamKind::Token;
        latency_ = static_cast<uint64_t>(spec.latency);
        // In-flight elements occupy per-hop network registers, not the
        // destination FIFO: a fully pipelined link sustains one element
        // per cycle, so the credit window is depth + latency.
        capacity_ = isToken_
                        ? UINT64_MAX
                        : static_cast<uint64_t>(spec.depth) + latency_;
        dataCv.bind(sched);
        spaceCv.bind(sched);
        // Pre-filled credits (CMMC backward edges).
        for (int i = 0; i < spec.initTokens; ++i)
            stored_.emplace_back();
        noteOccupancy();
    }

    const dfg::Stream &spec() const { return *spec_; }

    bool empty() const { return stored_.empty(); }
    size_t occupancy() const { return stored_.size() + inflight_.size(); }
    bool hasSpace() const { return occupancy() < capacity_; }

    /** True when the stream rides the cycle-level network. */
    bool onNoc() const { return noc_ != nullptr; }

    /** NoC admission: the first-hop link buffer can take a flit.
     *  Always true for fixed-latency streams. A producer blocked here
     *  (with credit space available) is stalled on the *network*. */
    bool canInject() const
    {
        return !noc_ || noc_->canAccept(spec_->id);
    }

    /** Wait list for `canInject` (only valid when `onNoc()`). */
    CondVar &injectCv() { return noc_->acceptCv(spec_->id); }

    /** Push now; delivered after the stream latency (or the network
     *  transit time when a NoC is attached), in order. */
    void
    push(Element v)
    {
        SARA_ASSERT(hasSpace(), "push to full fifo ", spec_->name);
        SARA_ASSERT(canInject(), "push to blocked link ", spec_->name);
        ++pushes_;
        inflight_.push_back(std::move(v));
        noteOccupancy();
        if (noc_)
            noc_->inject(spec_->id, deliverTrampoline, this);
        else
            scheduleDelivery(sched_->now() + latency_);
    }

    /** Push with an explicit extra delay (DRAM responses). */
    void
    pushWithDelay(Element v, uint64_t extraDelay)
    {
        SARA_ASSERT(hasSpace(), "push to full fifo ", spec_->name);
        ++pushes_;
        inflight_.push_back(std::move(v));
        noteOccupancy();
        if (noc_)
            noc_->injectAt(spec_->id, sched_->now() + extraDelay,
                           deliverTrampoline, this);
        else
            scheduleDelivery(sched_->now() + latency_ + extraDelay);
    }

    const Element &
    front() const
    {
        SARA_ASSERT(!stored_.empty(), "front of empty fifo ", spec_->name);
        return stored_.front();
    }

    void
    pop()
    {
        SARA_ASSERT(!stored_.empty(), "pop of empty fifo ", spec_->name);
        if (pool_)
            pool_->release(std::move(stored_.front()));
        stored_.pop_front();
        ++pops_;
        // Injected credit leak: the freed slot's credit is lost in
        // transit, permanently shrinking the window (floor 1 so the
        // stream stays usable; a window of 0 would wedge instantly and
        // that failure mode is stuck-credit's job).
        if (inj_ && capacity_ != UINT64_MAX && capacity_ > 1 &&
            inj_->fifoLeak(spec_->name, sched_->now()))
            --capacity_;
        // A stream has exactly one producer engine, so spaceCv holds at
        // most one waiter: notifyOne wakes it, and the hasWaiters guard
        // keeps waiter-free pops (the common case) off the scheduler
        // entirely.
        if (spaceCv.hasWaiters())
            spaceCv.notifyOne();
    }

    uint64_t pushes() const { return pushes_; }
    uint64_t pops() const { return pops_; }
    /** Max occupancy ever reached (stored + in flight). */
    uint64_t highWater() const { return highWater_; }
    /** Credit-window capacity (UINT64_MAX for token streams). */
    uint64_t capacity() const { return capacity_; }

    /** Waiters: consumers park on dataCv, producers on spaceCv. */
    CondVar dataCv, spaceCv;

  private:
    void
    noteOccupancy()
    {
        uint64_t occ = occupancy();
        if (occ > highWater_)
            highWater_ = occ;
    }

    void
    scheduleDelivery(uint64_t at)
    {
        // Deliveries must stay in push order even when extra delays
        // differ (in-order response streams).
        at = std::max(at, lastDeliverAt_);
        lastDeliverAt_ = at;
        sched_->scheduleFnAt(
            [](void *p) { static_cast<FifoState *>(p)->deliverOne(); },
            this, at);
    }

    void
    deliverOne()
    {
        SARA_ASSERT(!inflight_.empty(), "delivery with nothing in flight");
        stored_.push_back(std::move(inflight_.front()));
        inflight_.pop_front();
        if (flight_)
            flight_->record(telemetry::FlightKind::Deliver,
                            sched_->now(), spec_->id.v);
        // Single consumer engine per stream: see pop().
        if (dataCv.hasWaiters())
            dataCv.notifyOne();
    }

    /** NoC ejection callback (per-stream order is guaranteed). */
    static void
    deliverTrampoline(void *p)
    {
        static_cast<FifoState *>(p)->deliverOne();
    }

    Scheduler *sched_ = nullptr;
    const dfg::Stream *spec_ = nullptr;
    const fault::FaultInjector *inj_ = nullptr;
    noc::NocModel *noc_ = nullptr;
    ElementPool *pool_ = nullptr;
    telemetry::FlightRecorder *flight_ = nullptr;
    std::deque<Element> stored_;
    std::deque<Element> inflight_;
    uint64_t capacity_ = 0;
    uint64_t latency_ = 1;
    uint64_t lastDeliverAt_ = 0;
    uint64_t pushes_ = 0, pops_ = 0;
    uint64_t highWater_ = 0;
    bool isToken_ = false;
};

} // namespace sara::sim

#endif // SARA_SIM_FIFO_H
