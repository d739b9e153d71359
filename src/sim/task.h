#ifndef SARA_SIM_TASK_H
#define SARA_SIM_TASK_H

/**
 * @file
 * Minimal coroutine runtime for the discrete-event simulator. Each
 * virtual unit executes as one Task coroutine for the whole run, so a
 * run allocates one frame per unit. A wait on a condition takes one of
 * two forms, and either form may see spurious wakeups:
 *   - a coroutine parks itself on a CondVar and re-checks in a loop
 *     (`while (!cond) co_await cv.wait()`);
 *   - an awaiter struct checks the condition inline in await_ready()
 *     and, only when blocked, parks a callback (`cv.park(fn, arg)`)
 *     that re-checks on every wake and resumes the coroutine itself
 *     once the condition holds. The simulator's stream waits use this
 *     form, so a wait that is already satisfied does not suspend.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "support/hostprof.h"
#include "support/logging.h"

namespace sara::sim {

/**
 * A coroutine task. It starts suspended (the scheduler resumes it) and
 * stays suspended at its end, so done() can be queried until the Task
 * destroys the frame. An exception escaping the body propagates to
 * whoever resumed the coroutine.
 */
class Task
{
  public:
    struct promise_type
    {
        Task
        get_return_object()
        {
            return Task(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception() { throw; }
    };

    Task() = default;
    explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}
    Task(Task &&other) noexcept : h_(std::exchange(other.h_, {})) {}
    Task &
    operator=(Task &&other) noexcept
    {
        if (this != &other) {
            destroy();
            h_ = std::exchange(other.h_, {});
        }
        return *this;
    }
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;
    ~Task() { destroy(); }

    bool valid() const { return static_cast<bool>(h_); }
    bool done() const { return !h_ || h_.done(); }
    std::coroutine_handle<promise_type> handle() const { return h_; }

  private:
    void
    destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = {};
        }
    }
    std::coroutine_handle<promise_type> h_;
};

/**
 * Discrete-event scheduler: a two-level calendar queue of coroutine
 * resumptions. Same-cycle events run in insertion order.
 *
 * Nearly every event in a dataflow simulation lands at `now + 0` or
 * `now + 1` (wakeups, firing delays, link grants); only DRAM responses
 * and fault windows reach hundreds of cycles out. The queue therefore
 * keeps a wheel of `kWheelCycles` per-cycle FIFO buckets for events
 * within the near window (O(1) push, no comparisons) and spills the
 * far tail into a small binary-heap overflow.
 *
 * Determinism contract: events execute in exact `(at, seq)` order,
 * where `seq` is the global scheduling order — identical to a single
 * time-ordered binary heap (asserted by the property tests in
 * tests/test_sched.cc). The wheel only accepts an event for cycle T
 * once `T - now < kWheelCycles`, so every overflow entry for T was
 * scheduled strictly before any wheel entry for T (smaller seq);
 * draining the overflow heap first and then the bucket FIFO replays
 * the exact heap order.
 */
class Scheduler
{
  public:
    /** Raw callback event: fn(arg) runs at its scheduled time. */
    using EventFn = void (*)(void *);

    /** Near-window size (cycles) of the calendar wheel. Power of two. */
    static constexpr uint64_t kWheelCycles = 64;

    uint64_t now() const { return now_; }

    /** Schedule a callback at absolute time `at`. */
    void
    scheduleFnAt(EventFn fn, void *arg, uint64_t at)
    {
        SARA_ASSERT(at >= now_, "scheduling into the past");
        ++pending_;
        if (at - now_ < kWheelCycles) {
            buckets_[at & kWheelMask].push_back(Event{at, seq_++, fn, arg});
            ++pendingNear_;
        } else {
            overflow_.push(Event{at, seq_++, fn, arg});
        }
    }

    /** Event callback resuming the coroutine whose address is `p`. */
    static void
    resumeFn(void *p)
    {
        std::coroutine_handle<>::from_address(p).resume();
    }

    /** Schedule `h` to resume at absolute time `at`. */
    void
    scheduleAt(std::coroutine_handle<> h, uint64_t at)
    {
        scheduleFnAt(&resumeFn, h.address(), at);
    }

    void
    scheduleAfter(std::coroutine_handle<> h, uint64_t delay)
    {
        scheduleAt(h, now_ + delay);
    }

    /**
     * Register `fn(arg)` to run at the *end* of the current cycle —
     * after every normal event scheduled for `now()` has executed (the
     * end-of-cycle phase repeats if handlers schedule further
     * same-cycle events). The simulator's same-cycle arbiters (DRAM
     * channel order, PMU port-bus grants) live here: requests staged
     * during the cycle are resolved in one deterministic pass whose
     * order does not depend on the event interleave.
     */
    void
    atCycleEnd(EventFn fn, void *arg)
    {
        eoc_.push_back(Event{now_, 0, fn, arg});
    }

    /**
     * Run until no events remain, or until the next event would lie
     * past `maxCycles` — then stop with `budgetExceeded()` set so the
     * caller can escalate through its hang-diagnosis path. A non-null
     * `cancel` flag is polled once per simulated cycle (relaxed load:
     * the exact stop cycle may trail the store by one poll, which is
     * fine for a wall-clock watchdog); when it goes true the run stops
     * with `cancelled()` set. Returns the final time.
     */
    uint64_t
    run(uint64_t maxCycles = UINT64_MAX,
        const std::atomic<bool> *cancel = nullptr)
    {
        budgetExceeded_ = false;
        cancelled_ = false;
        while (pending_ > 0 || !eoc_.empty()) {
            if (cancel && cancel->load(std::memory_order_relaxed)) {
                cancelled_ = true;
                break;
            }
            // End-of-cycle phase: once the current cycle's normal
            // events drain, run the registered arbiters (they may
            // schedule fresh same-cycle events, re-entering the drain).
            if (!eoc_.empty() &&
                (pending_ == 0 || nextEventAt() > now_)) {
                runEndOfCycle();
                continue;
            }
            uint64_t next = nextEventAt();
            if (next > maxCycles) {
                budgetExceeded_ = true;
                break;
            }
            now_ = next;
            drainCycle();
        }
        return now_;
    }

    bool idle() const { return pending_ == 0; }

    /** The last run() stopped because the next event would overrun the
     *  cycle budget (the budget-cycle event itself still executes). */
    bool budgetExceeded() const { return budgetExceeded_; }

    /** The last run() stopped because its cancel flag went true. */
    bool cancelled() const { return cancelled_; }

    /** Events executed since construction (host-throughput metric). */
    uint64_t eventsExecuted() const { return executed_; }

    /** Awaitable suspending the current task for `cycles`. */
    auto
    delay(uint64_t cycles)
    {
        struct Awaiter
        {
            Scheduler &sched;
            uint64_t cycles;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                sched.scheduleAfter(h, cycles);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, cycles};
    }

  private:
    struct Event
    {
        uint64_t at;
        uint64_t seq;
        EventFn fn;
        void *arg;
        bool
        operator>(const Event &o) const
        {
            return at != o.at ? at > o.at : seq > o.seq;
        }
    };

    static constexpr uint64_t kWheelMask = kWheelCycles - 1;
    static_assert((kWheelCycles & kWheelMask) == 0,
                  "wheel size must be a power of two");

    /** Execute every event scheduled for `now_` (called with now_
     *  freshly advanced to the earliest pending time). */
    void
    drainCycle()
    {
        // Overflow entries for this cycle carry strictly smaller seq
        // than any bucket entry (see class comment): heap first,
        // bucket FIFO second. An overflow event scheduling at `now`
        // lands in the bucket (distance 0), so this loop terminates.
        while (!overflow_.empty() && overflow_.top().at == now_) {
            Event e = overflow_.top();
            overflow_.pop();
            --pending_;
            ++executed_;
            e.fn(e.arg);
        }
        // Index-based: executing an event may append same-cycle
        // events to this very bucket (reallocating it).
        auto &bucket = buckets_[now_ & kWheelMask];
        for (size_t i = 0; i < bucket.size(); ++i) {
            Event e = bucket[i];
            --pending_;
            --pendingNear_;
            ++executed_;
            e.fn(e.arg);
        }
        bucket.clear(); // Keeps capacity: steady state is alloc-free.
    }

    /** Run the registered end-of-cycle handlers (index-based: a
     *  handler may register further handlers for this same cycle). */
    void
    runEndOfCycle()
    {
        for (size_t i = 0; i < eoc_.size(); ++i) {
            Event e = eoc_[i];
            ++executed_;
            e.fn(e.arg);
        }
        eoc_.clear();
    }

    /** Earliest pending event time (caller guarantees pending_ > 0). */
    uint64_t
    nextEventAt() const
    {
        uint64_t next =
            overflow_.empty() ? UINT64_MAX : overflow_.top().at;
        if (pendingNear_ > 0) {
            for (uint64_t t = now_; t - now_ < kWheelCycles; ++t) {
                if (!buckets_[t & kWheelMask].empty()) {
                    next = std::min(next, t);
                    break;
                }
            }
        }
        SARA_ASSERT(next != UINT64_MAX, "pending events but none found");
        return next;
    }

    std::array<std::vector<Event>, kWheelCycles> buckets_;
    std::priority_queue<Event, std::vector<Event>, std::greater<>>
        overflow_;
    /** End-of-cycle handlers for the current cycle (atCycleEnd). */
    std::vector<Event> eoc_;
    uint64_t now_ = 0;
    uint64_t seq_ = 0;
    uint64_t pending_ = 0;     ///< Events in wheel + overflow.
    uint64_t pendingNear_ = 0; ///< Events in the wheel only.
    uint64_t executed_ = 0;
    bool budgetExceeded_ = false;
    bool cancelled_ = false;
};

/**
 * A wait list of callbacks. A notify schedules the woken callback at
 * the current time; the waiter then re-checks its condition. wait()
 * parks a callback that resumes the awaiting coroutine (level-triggered
 * use: `while (!cond) co_await cv.wait()`); park() takes any callback,
 * which lets an awaiter re-check and re-park without resuming its
 * coroutine. Both kinds share one list and one order.
 *
 * notifyOne() wakes only the front (FIFO) waiter and opens an
 * insertion cursor, so that same-cycle racers and the woken waiter's
 * own re-park (with `atCursor`) keep the wait-list order the cycle
 * goldens pin; see notifyOne().
 */
class CondVar
{
  public:
    explicit CondVar(Scheduler &sched) { bind(sched); }
    CondVar() = default;

    void
    bind(Scheduler &sched)
    {
        sched_ = &sched;
        // Reserve once: park/notify cycles on the hot path then never
        // reallocate (wait lists hold a handful of engines at most).
        waiters_.reserve(4);
    }

    auto
    wait(bool atCursor = false)
    {
        struct Awaiter
        {
            CondVar &cv;
            bool atCursor;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                cv.park(&Scheduler::resumeFn, h.address(), atCursor);
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this, atCursor};
    }

    /**
     * Park the callback `fn(arg)`; a notify schedules it at the current
     * time. With `atCursor` (or while a notifyOne wake is in flight)
     * it goes to the notify cursor — see notifyOne().
     */
    void
    park(Scheduler::EventFn fn, void *arg, bool atCursor = false)
    {
        telemetry::ScopedPhase phase(telemetry::HostPhase::CvWait);
        size_t pos = atCursor || wakeInFlight_
                         ? std::min(cursor_, waiters_.size())
                         : waiters_.size();
        waiters_.insert(waiters_.begin() + static_cast<ptrdiff_t>(pos),
                        Waiter{fn, arg});
        if (wakeInFlight_ && !atCursor)
            ++cursor_; // Fresh racers stack up in arrival order.
    }

    /**
     * Wake the longest-parked waiter only.
     *
     * The wait-list order the cycle goldens pin is the one a broadcast
     * wakeup would rebuild: every waiter re-checks, so an engine that
     * parks "fresh" before they resume lands *ahead* of every old
     * waiter that re-parks behind it. notifyOne keeps that order by
     * opening an insertion cursor at the list front: parks that
     * execute while the wake is still in flight slot in before the
     * surviving waiters, and the woken engine's own immediate re-park
     * (a park with atCursor, see Engine::grantWake) lands right after
     * them. The woken waiter's resume closes the window via
     * wakeLanded().
     */
    void
    notifyOne()
    {
        if (waiters_.empty())
            return;
        telemetry::ScopedPhase phase(telemetry::HostPhase::CvWait);
        const Waiter w = waiters_.front();
        sched_->scheduleFnAt(w.fn, w.arg, sched_->now());
        waiters_.erase(waiters_.begin());
        wakeInFlight_ = true;
        cursor_ = 0;
    }

    /** The waiter woken by notifyOne ran; stop front-slotting fresh
     *  parks (call on every wake, coroutine or callback). */
    void wakeLanded() { wakeInFlight_ = false; }

    bool hasWaiters() const { return !waiters_.empty(); }

  private:
    struct Waiter
    {
        Scheduler::EventFn fn;
        void *arg;
    };

    Scheduler *sched_ = nullptr;
    std::vector<Waiter> waiters_;
    /** True between notifyOne() and the woken waiter's resume. */
    bool wakeInFlight_ = false;
    /** Front-insertion point while a wake is in flight. */
    size_t cursor_ = 0;
};

} // namespace sara::sim

#endif // SARA_SIM_TASK_H
