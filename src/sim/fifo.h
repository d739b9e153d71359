#ifndef SARA_SIM_FIFO_H
#define SARA_SIM_FIFO_H

/**
 * @file
 * Runtime state of a stream: a latency-modeled, capacity-limited FIFO.
 * Pushes enter an in-flight queue and are delivered after the stream's
 * network latency; capacity accounting covers in-flight elements so
 * back-pressure matches a credit-based hardware flow control.
 * Token streams carry no payload and are effectively unbounded
 * (credits bound their occupancy by construction).
 *
 * A data stream keeps its elements in one flat ring of fixed-width
 * lane slots — stored elements first, in-flight elements after them —
 * so push, delivery and pop are index arithmetic and allocate nothing.
 * A token stream keeps its counts only.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dfg/vudfg.h"
#include "fault/fault.h"
#include "noc/noc.h"
#include "sim/task.h"
#include "support/flight.h"
#include "support/logging.h"

namespace sara::sim {

/** Read-only view of one element's active lanes. A 1-lane element
 *  broadcasts to every lane of its consumer. */
struct LaneView
{
    const double *data = nullptr;
    int size = 0;

    double operator[](int lane) const { return data[lane]; }
};

/** Runtime FIFO backing one dfg::Stream. */
class FifoState
{
  public:
    /** `width` is the widest element the producer can push (its
     *  innermost SIMD width); the ring's slots are at least the
     *  stream's `vec` wide. With a NoC model attached (and a routed
     *  stream), in-flight elements traverse the cycle-level network
     *  instead of the fixed `latency`-cycle delay; the credit window is
     *  unchanged. An injector (may be null) enables the fifo-leak fault
     *  model. A flight recorder (may be null) logs each delivery for
     *  failure timelines. */
    void
    init(Scheduler &sched, const dfg::Stream &spec, int width = 1,
         noc::NocModel *noc = nullptr,
         const fault::FaultInjector *inj = nullptr,
         telemetry::FlightRecorder *flight = nullptr)
    {
        sched_ = &sched;
        spec_ = &spec;
        inj_ = inj;
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
        // Pre-filled credits (CMMC backward edges): empty elements.
        stored_ = static_cast<uint64_t>(std::max(spec.initTokens, 0));
        if (!isToken_) {
            // A push needs a credit, so occupancy stays within the
            // window, or within the pre-filled credits.
            slots_ = std::max({capacity_, stored_, uint64_t{1}});
            width_ = std::max({width, spec.vec, 1});
            lanes_.assign(slots_ * width_, 0.0);
            sizes_.assign(slots_, 0);
        }
        dataCv.bind(sched);
        spaceCv.bind(sched);
        noteOccupancy();
    }

    const dfg::Stream &spec() const { return *spec_; }

    bool empty() const { return stored_ == 0; }
    size_t occupancy() const { return stored_ + inflight_; }
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

    /** Push the `n` lanes at `lanes` now (a token push takes none);
     *  delivered after the stream latency (or the network transit time
     *  when a NoC is attached), in order. */
    void
    push(const double *lanes = nullptr, int n = 0)
    {
        SARA_ASSERT(hasSpace(), "push to full fifo ", spec_->name);
        SARA_ASSERT(canInject(), "push to blocked link ", spec_->name);
        enqueue(lanes, n);
        if (noc_)
            noc_->inject(spec_->id, deliverTrampoline, this);
        else
            scheduleDelivery(sched_->now() + latency_);
    }

    /** Push with an explicit extra delay (DRAM responses). */
    void
    pushWithDelay(const double *lanes, int n, uint64_t extraDelay)
    {
        SARA_ASSERT(hasSpace(), "push to full fifo ", spec_->name);
        enqueue(lanes, n);
        if (noc_)
            noc_->injectAt(spec_->id, sched_->now() + extraDelay,
                           deliverTrampoline, this);
        else
            scheduleDelivery(sched_->now() + latency_ + extraDelay);
    }

    /** The oldest stored element; the view is valid until the next
     *  pop (token streams: an empty view). */
    LaneView
    front() const
    {
        SARA_ASSERT(stored_ > 0, "front of empty fifo ", spec_->name);
        if (isToken_)
            return {};
        return {&lanes_[head_ * width_], sizes_[head_]};
    }

    void
    pop()
    {
        SARA_ASSERT(stored_ > 0, "pop of empty fifo ", spec_->name);
        --stored_;
        if (!isToken_ && ++head_ == slots_)
            head_ = 0;
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
    /** Copy one element into the slot after the in-flight ones. */
    void
    enqueue(const double *lanes, int n)
    {
        if (!isToken_) {
            SARA_ASSERT(n >= 0 && n <= width_, "push of ", n,
                        " lanes to fifo ", spec_->name, " with ", width_,
                        "-lane slots");
            uint64_t slot = head_ + occupancy();
            if (slot >= slots_)
                slot -= slots_;
            std::copy_n(lanes, n, &lanes_[slot * width_]);
            sizes_[slot] = n;
        }
        ++pushes_;
        ++inflight_;
        noteOccupancy();
    }

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
        SARA_ASSERT(inflight_ > 0, "delivery with nothing in flight");
        --inflight_;
        ++stored_;
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
    telemetry::FlightRecorder *flight_ = nullptr;
    /** Data streams: `slots_` elements of `width_` lanes each, and each
     *  slot's active-lane count. Slot `head_` holds the oldest stored
     *  element; the in-flight ones follow the stored ones. */
    std::vector<double> lanes_;
    std::vector<int> sizes_;
    uint64_t slots_ = 0;
    int width_ = 0;
    uint64_t head_ = 0;
    uint64_t stored_ = 0, inflight_ = 0;
    uint64_t capacity_ = 0;
    uint64_t latency_ = 1;
    uint64_t lastDeliverAt_ = 0;
    uint64_t pushes_ = 0, pops_ = 0;
    uint64_t highWater_ = 0;
    bool isToken_ = false;
};

} // namespace sara::sim

#endif // SARA_SIM_FIFO_H
