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
 * resumptions. Same-cycle events run in insertion order (or, for
 * tests, in a seeded permutation: ScopedShuffle).
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

    /**
     * Test seam for the interleave oracle: while a ScopedShuffle lives
     * on a thread, every Scheduler constructed on that thread runs each
     * cycle's events, and its end-of-cycle handlers, in a permutation
     * drawn from `seed` (non-zero). Events a handler schedules for the
     * same cycle still run after it. Simulated results must not depend
     * on it; host events and wakeups may.
     */
    class ScopedShuffle
    {
      public:
        explicit ScopedShuffle(uint64_t seed)
            : prev_(std::exchange(shuffleSeed(), seed))
        {
        }
        ~ScopedShuffle() { shuffleSeed() = prev_; }
        ScopedShuffle(const ScopedShuffle &) = delete;
        ScopedShuffle &operator=(const ScopedShuffle &) = delete;

      private:
        uint64_t prev_;
    };

    Scheduler() : shuffled_(shuffleSeed() != 0), rng_(shuffleSeed()) {}

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
        if (shuffled_) {
            drainShuffled();
            return;
        }
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

    /** drainCycle() under a ScopedShuffle: run the cycle's events in
     *  batches, each batch (the events scheduled before it began)
     *  permuted. */
    void
    drainShuffled()
    {
        std::vector<Event> batch;
        while (!overflow_.empty() && overflow_.top().at == now_) {
            batch.push_back(overflow_.top());
            overflow_.pop();
            --pending_;
        }
        auto &bucket = buckets_[now_ & kWheelMask];
        for (;;) {
            pending_ -= bucket.size();
            pendingNear_ -= bucket.size();
            batch.insert(batch.end(), bucket.begin(), bucket.end());
            bucket.clear();
            if (batch.empty())
                return;
            permute(batch, 0);
            for (const Event &e : batch) {
                ++executed_;
                e.fn(e.arg);
            }
            batch.clear();
        }
    }

    /** Fisher-Yates over `v[from..]`, drawing from splitmix64. */
    void
    permute(std::vector<Event> &v, size_t from)
    {
        for (size_t i = v.size(); i > from + 1; --i) {
            uint64_t z = (rng_ += 0x9e3779b97f4a7c15ULL);
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            z ^= z >> 31;
            std::swap(v[i - 1], v[from + z % (i - from)]);
        }
    }

    /** Run the registered end-of-cycle handlers. A handler may register
     *  further handlers for this same cycle; they run after it. */
    void
    runEndOfCycle()
    {
        for (size_t i = 0; i < eoc_.size();) {
            const size_t end = eoc_.size();
            if (shuffled_)
                permute(eoc_, i);
            for (; i < end; ++i) {
                Event e = eoc_[i];
                ++executed_;
                e.fn(e.arg);
            }
        }
        eoc_.clear();
    }

    static uint64_t &
    shuffleSeed()
    {
        static thread_local uint64_t seed = 0;
        return seed;
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
    bool shuffled_;
    uint64_t rng_; ///< splitmix64 state (ScopedShuffle runs only).
};

/**
 * A single-waiter wait slot. Every wait in the simulator has exactly
 * one possible waiter (a stream's one consumer or one producer, an
 * engine on its own DRAM window or arbiter grant), so a slot replaces
 * a list: park() fills it (asserting it was empty) and notify()
 * schedules the parked callback at the current time and empties it.
 * wait() parks a callback that resumes the awaiting coroutine
 * (level-triggered use: `while (!cond) co_await cv.wait()`); park()
 * takes any callback, which lets an awaiter re-check and re-park
 * without resuming its coroutine.
 */
class CondVar
{
  public:
    explicit CondVar(Scheduler &sched) : sched_(&sched) {}
    CondVar() = default;

    void bind(Scheduler &sched) { sched_ = &sched; }

    auto
    wait()
    {
        struct Awaiter
        {
            CondVar &cv;
            bool await_ready() const noexcept { return false; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                cv.park(&Scheduler::resumeFn, h.address());
            }
            void await_resume() const noexcept {}
        };
        return Awaiter{*this};
    }

    /** Park the callback `fn(arg)`; a notify schedules it at the
     *  current time. */
    void
    park(Scheduler::EventFn fn, void *arg)
    {
        SARA_ASSERT(!fn_, "second waiter on a single-waiter CondVar");
        fn_ = fn;
        arg_ = arg;
    }

    /** Wake the parked waiter, if any. */
    void
    notify()
    {
        if (!fn_)
            return;
        sched_->scheduleFnAt(fn_, arg_, sched_->now());
        fn_ = nullptr;
    }

    bool hasWaiters() const { return fn_ != nullptr; }

  private:
    Scheduler *sched_ = nullptr;
    Scheduler::EventFn fn_ = nullptr;
    void *arg_ = nullptr;
};

} // namespace sara::sim

#endif // SARA_SIM_TASK_H
