/**
 * @file
 * Event-core tests: the two-level calendar-queue Scheduler replayed
 * against a reference binary-heap implementation (the pre-optimization
 * event queue) on randomized self-scheduling workloads, plus direct
 * wheel-boundary, cycle-budget, and CondVar wait-list order checks.
 * The property tests pin the determinism contract: events execute in
 * exact (time, scheduling-seq) order no matter which queue holds them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <iterator>
#include <queue>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "support/rng.h"

namespace sara {
namespace {

using namespace sim;

// --- Reference scheduler ---------------------------------------------------

/** The pre-calendar-queue event core: one time-ordered binary heap.
 *  Kept verbatim as the ordering oracle for the property tests. */
class RefSched
{
  public:
    using EventFn = void (*)(void *);

    uint64_t now() const { return now_; }

    void
    scheduleFnAt(EventFn fn, void *arg, uint64_t at)
    {
        q_.push(Event{at, seq_++, fn, arg});
    }

    uint64_t
    run()
    {
        while (!q_.empty()) {
            Event e = q_.top();
            q_.pop();
            now_ = e.at;
            e.fn(e.arg);
        }
        return now_;
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
    std::priority_queue<Event, std::vector<Event>, std::greater<>> q_;
    uint64_t now_ = 0;
    uint64_t seq_ = 0;
};

// --- Randomized replay harness ---------------------------------------------

/**
 * Self-scheduling workload: every fired event logs (id, time) and
 * spawns 0-3 children at delays drawn from a palette straddling the
 * wheel window (0..65) and far overflow (200, 5000). Child choices
 * depend only on (seed, id), so the calendar queue and the reference
 * heap generate byte-identical schedules — any ordering difference
 * shows up as a diverging log.
 */
template <typename S>
struct Harness
{
    struct Node
    {
        Harness *h;
        int id;
    };

    S sched;
    uint64_t seed;
    int budget; ///< Remaining spawns (bounds the run).
    int nextId = 0;
    std::deque<Node> nodes; ///< Stable addresses for in-flight events.
    std::vector<std::pair<int, uint64_t>> log;

    static constexpr uint64_t kPalette[] = {0,  1,  2,  3,   8,
                                            63, 64, 65, 200, 5000};

    explicit Harness(uint64_t s, int eventBudget)
        : seed(s), budget(eventBudget)
    {
    }

    void
    spawn(uint64_t at)
    {
        nodes.push_back(Node{this, nextId++});
        sched.scheduleFnAt(&Harness::fire, &nodes.back(), at);
    }

    static void
    fire(void *p)
    {
        Node *n = static_cast<Node *>(p);
        Harness *h = n->h;
        h->log.emplace_back(n->id, h->sched.now());
        Rng rng(h->seed * 0x9e3779b97f4a7c15ULL +
                static_cast<uint64_t>(n->id));
        int64_t kids = rng.intIn(0, 3);
        for (int64_t k = 0; k < kids && h->budget > 0; ++k) {
            --h->budget;
            uint64_t d = kPalette[rng.index(std::size(kPalette))];
            h->spawn(h->sched.now() + d);
        }
    }
};

std::vector<std::pair<int, uint64_t>>
replay(uint64_t seed, int roots, int budget, bool calendar)
{
    // Roots at seed-chosen times (same for both queue types).
    Rng rootRng(seed);
    std::vector<uint64_t> rootAt;
    for (int r = 0; r < roots; ++r)
        rootAt.push_back(static_cast<uint64_t>(rootRng.intIn(0, 300)));
    if (calendar) {
        Harness<Scheduler> h(seed, budget);
        for (uint64_t at : rootAt)
            h.spawn(at);
        h.sched.run();
        return std::move(h.log);
    }
    Harness<RefSched> h(seed, budget);
    for (uint64_t at : rootAt)
        h.spawn(at);
    h.sched.run();
    return std::move(h.log);
}

TEST(SchedulerProperty, MatchesReferenceHeapOrder)
{
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        auto cal = replay(seed, 8, 2000, true);
        auto ref = replay(seed, 8, 2000, false);
        ASSERT_GT(ref.size(), 100u) << "degenerate schedule, seed "
                                    << seed;
        ASSERT_EQ(cal, ref) << "resumption order diverged, seed "
                            << seed;
    }
}

TEST(SchedulerProperty, DenseSameCycleBursts)
{
    // Heavy same-cycle traffic (delay 0/1 dominate): the bucket-FIFO
    // fast path must still replay exact scheduling order.
    for (uint64_t seed = 100; seed < 110; ++seed) {
        auto cal = replay(seed, 16, 4000, true);
        auto ref = replay(seed, 16, 4000, false);
        ASSERT_EQ(cal, ref) << "seed " << seed;
    }
}

// --- Direct calendar-queue checks ------------------------------------------

struct LogCtx
{
    std::vector<int> *log;
    int id;
};

void
logFire(void *p)
{
    auto *c = static_cast<LogCtx *>(p);
    c->log->push_back(c->id);
}

TEST(Scheduler, WheelBoundaryKeepsSeqOrder)
{
    // An event at now+64 goes to the overflow heap, one at now+63
    // stays in the wheel; at execution time the overflow entry was
    // scheduled first and must run first when both land on one cycle.
    Scheduler s;
    std::vector<int> log;
    LogCtx far{&log, 1}, near{&log, 2}, boundary{&log, 3};
    s.scheduleFnAt(logFire, &far, 64);  // Overflow (distance 64).
    s.scheduleFnAt(logFire, &near, 63); // Wheel.
    s.scheduleFnAt(logFire, &boundary, 64); // Overflow, after `far`.
    s.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1, 3}));
    EXPECT_EQ(s.now(), 64u);
}

TEST(Scheduler, OverflowEntryRunsBeforeLaterWheelEntry)
{
    // X scheduled far ahead (overflow) at t=0; Y scheduled for the
    // same cycle once it enters the wheel window. X has the smaller
    // seq and must execute first — the overflow-before-bucket drain.
    Scheduler s;
    std::vector<int> log;
    struct Ctx
    {
        Scheduler *s;
        std::vector<int> *log;
        LogCtx x, y;
    } ctx{&s, &log, {&log, 1}, {&log, 2}};
    s.scheduleFnAt(logFire, &ctx.x, 200); // Overflow.
    s.scheduleFnAt(
        [](void *p) {
            auto *c = static_cast<Ctx *>(p);
            // now=150: cycle 200 is inside the wheel window now.
            c->s->scheduleFnAt(logFire, &c->y, 200);
        },
        &ctx, 150);
    s.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
}

TEST(Scheduler, SameCycleCascadeRunsThisCycle)
{
    // An event scheduling another at delay 0 extends the current
    // bucket mid-drain; the chain must finish within the cycle.
    Scheduler s;
    std::vector<int> log;
    struct Ctx
    {
        Scheduler *s;
        std::vector<int> *log;
        int depth;
    } ctx{&s, &log, 0};
    static Scheduler::EventFn chain = [](void *p) {
        auto *c = static_cast<Ctx *>(p);
        c->log->push_back(c->depth);
        if (++c->depth < 5)
            c->s->scheduleFnAt(chain, c, c->s->now());
    };
    s.scheduleFnAt(chain, &ctx, 7);
    s.run();
    EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(s.now(), 7u);
}

TEST(Scheduler, BudgetBoundaryExecutesEventAtLimit)
{
    Scheduler s;
    std::vector<int> log;
    LogCtx a{&log, 1}, b{&log, 2};
    s.scheduleFnAt(logFire, &a, 10);
    s.scheduleFnAt(logFire, &b, 11);
    s.run(10); // Event AT the budget cycle still executes.
    EXPECT_EQ(log, (std::vector<int>{1}));
    EXPECT_TRUE(s.budgetExceeded());
    EXPECT_FALSE(s.idle());
    EXPECT_EQ(s.now(), 10u);

    s.run(); // Resume past the budget: drains the rest.
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_FALSE(s.budgetExceeded());
    EXPECT_TRUE(s.idle());
    EXPECT_EQ(s.eventsExecuted(), 2u);
}

TEST(Scheduler, DrainAndReuse)
{
    // run() to idle, schedule more relative to the final time, run
    // again: wheel indices keep working across many wraps.
    Scheduler s;
    std::vector<int> log;
    LogCtx a{&log, 1}, b{&log, 2};
    s.scheduleFnAt(logFire, &a, 1000);
    s.run();
    EXPECT_TRUE(s.idle());
    s.scheduleFnAt(logFire, &b, s.now() + 70); // Overflow again.
    s.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2}));
    EXPECT_EQ(s.now(), 1070u);
}

// --- CondVar wait-list order -----------------------------------------------

/** Takes `rounds` slots; logs its id per slot taken. Follows the
 *  simulator's notify protocol: wakeLanded() on resume, re-park at
 *  the notify cursor after a lost race. */
Task
slotTaker(Scheduler &sched, CondVar &cv, int &slots,
          std::vector<int> &log, int id, int rounds, uint64_t startAt)
{
    co_await sched.delay(startAt);
    bool woken = false;
    for (int r = 0; r < rounds; ++r) {
        while (slots == 0) {
            co_await cv.wait(woken);
            cv.wakeLanded();
            woken = true;
        }
        --slots;
        log.push_back(id);
        woken = false; // A successful take starts a fresh request.
    }
}

TEST(CondVar, NotifyOneWakesLongestParked)
{
    Scheduler sched;
    CondVar cv;
    cv.bind(sched);
    int slots = 0;
    std::vector<int> log;
    Task a = slotTaker(sched, cv, slots, log, 1, 1, 0);
    Task b = slotTaker(sched, cv, slots, log, 2, 1, 0);
    sched.scheduleAt(a.handle(), 0);
    sched.scheduleAt(b.handle(), 0);
    struct Ctx
    {
        CondVar *cv;
        int *slots;
    } ctx{&cv, &slots};
    auto grant = [](void *p) {
        auto *c = static_cast<Ctx *>(p);
        ++*c->slots;
        c->cv->notifyOne();
    };
    sched.scheduleFnAt(grant, &ctx, 5);
    sched.scheduleFnAt(grant, &ctx, 6);
    sched.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2})); // FIFO, not LIFO.
    EXPECT_TRUE(a.done());
    EXPECT_TRUE(b.done());
}

/** A slot grant event: one slot, and notifyOne wakes the list head. */
struct Grant
{
    CondVar *cv;
    int *slots;

    static void
    fire(void *p)
    {
        auto *g = static_cast<Grant *>(p);
        ++*g->slots;
        g->cv->notifyOne();
    }
};

/** Grant one slot at each of cycles 20, 21 and 22. The list head takes
 *  each slot uncontended, so the log reads the wait-list order. */
void
grantInListOrder(Scheduler &sched, Grant &grant)
{
    for (uint64_t at : {20, 21, 22})
        sched.scheduleFnAt(&Grant::fire, &grant, at);
}

TEST(CondVar, NotifyCursorMatchesBroadcastOrder)
{
    // The NoC grant scenario: A and B parked; a grant wakes A
    // (notifyOne), but a same-cycle racer C — whose event runs before
    // A's resume — takes the slot and parks a follow-up request. Under
    // a broadcast, the wait list would rebuild as [C, A, B]: C parks
    // into the emptied list first, then A re-parks, then B. The notify
    // cursor must reproduce exactly that order.
    Scheduler sched;
    CondVar cv;
    cv.bind(sched);
    int slots = 0;
    std::vector<int> log;
    Task a = slotTaker(sched, cv, slots, log, 1, 1, 0);
    Task b = slotTaker(sched, cv, slots, log, 2, 1, 0);
    Task c = slotTaker(sched, cv, slots, log, 3, 2, 5);
    sched.scheduleAt(a.handle(), 0);
    sched.scheduleAt(b.handle(), 0);
    sched.scheduleAt(c.handle(), 0); // Parks itself until cycle 5.
    Grant grant{&cv, &slots};
    // Cycle 5: one slot. notifyOne puts A's wake in flight; C's delay
    // expiry (scheduled at cycle 0, smaller seq) runs first, steals
    // the slot and parks its second request at the cursor. A then
    // re-parks spuriously behind it: list [C, A, B].
    sched.scheduleFnAt(&Grant::fire, &grant, 5);
    grantInListOrder(sched, grant);
    sched.run();
    EXPECT_EQ(log, (std::vector<int>{3, 3, 1, 2}));
    EXPECT_TRUE(a.done());
    EXPECT_TRUE(b.done());
    EXPECT_TRUE(c.done());
}

/** slotTaker's protocol as a callback waiter (the simulator's stream
 *  awaiters work this way): each wake either takes a slot or re-parks
 *  at the notify cursor, without any coroutine resuming. */
struct CallbackTaker
{
    CondVar *cv;
    int *slots;
    std::vector<int> *log;
    int id;

    static void
    wake(void *p)
    {
        auto *t = static_cast<CallbackTaker *>(p);
        t->cv->wakeLanded();
        if (*t->slots == 0) {
            t->cv->park(&CallbackTaker::wake, t, /*atCursor=*/true);
            return;
        }
        --*t->slots;
        t->log->push_back(t->id);
    }
};

TEST(CondVar, CallbackWaitersKeepTheBroadcastOrder)
{
    // NotifyCursorMatchesBroadcastOrder with A as a callback waiter on
    // the same CondVar as the coroutines B and C: A loses the cycle-5
    // race to C and re-parks at the cursor from inside its own wake.
    // The wait list must rebuild as [C, A, B] all the same.
    Scheduler sched;
    CondVar cv;
    cv.bind(sched);
    int slots = 0;
    std::vector<int> log;
    CallbackTaker a{&cv, &slots, &log, 1};
    cv.park(&CallbackTaker::wake, &a);
    Task b = slotTaker(sched, cv, slots, log, 2, 1, 0);
    Task c = slotTaker(sched, cv, slots, log, 3, 2, 5);
    sched.scheduleAt(b.handle(), 0);
    sched.scheduleAt(c.handle(), 0);
    Grant grant{&cv, &slots};
    sched.scheduleFnAt(&Grant::fire, &grant, 5);
    grantInListOrder(sched, grant);
    sched.run();
    EXPECT_EQ(log, (std::vector<int>{3, 3, 1, 2}));
    EXPECT_FALSE(cv.hasWaiters());
    EXPECT_TRUE(b.done());
    EXPECT_TRUE(c.done());
}

} // namespace
} // namespace sara
