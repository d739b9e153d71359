/**
 * @file
 * Event-core tests: the two-level calendar-queue Scheduler replayed
 * against a reference binary-heap implementation (the pre-optimization
 * event queue) on randomized self-scheduling workloads, plus direct
 * wheel-boundary, cycle-budget, shuffle-seam and single-waiter CondVar
 * checks.
 * The property tests pin the determinism contract: events execute in
 * exact (time, scheduling-seq) order no matter which queue holds them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "support/logging.h"
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

// --- Shuffle seam -----------------------------------------------------------

/** Logs its id, and schedules `child` (if any) into the same cycle. */
struct Spawner
{
    Scheduler *sched;
    std::vector<int> *log;
    int id;
    Spawner *child = nullptr;

    static void
    fire(void *p)
    {
        auto *s = static_cast<Spawner *>(p);
        s->log->push_back(s->id);
        if (s->child)
            s->sched->scheduleFnAt(&Spawner::fire, s->child, s->sched->now());
    }
};

TEST(Scheduler, ScopedShufflePermutesACycleButKeepsCausality)
{
    // Eight same-cycle events at cycle 3, each spawning a follow-up
    // into cycle 3, and one event at cycle 4. Unshuffled, they run in
    // scheduling order; shuffled, the eight run in some permutation,
    // every follow-up after all eight (it joins the next batch), and
    // cycle 4 last.
    auto runOnce = [](uint64_t seed) {
        std::unique_ptr<Scheduler::ScopedShuffle> scope;
        if (seed)
            scope = std::make_unique<Scheduler::ScopedShuffle>(seed);
        Scheduler sched;
        std::vector<int> log;
        std::deque<Spawner> nodes;
        for (int i = 0; i < 8; ++i) {
            Spawner &child = nodes.emplace_back(Spawner{&sched, &log, 100 + i});
            Spawner &parent = nodes.emplace_back(Spawner{&sched, &log, i});
            parent.child = &child;
            sched.scheduleFnAt(&Spawner::fire, &parent, 3);
        }
        Spawner &late = nodes.emplace_back(Spawner{&sched, &log, 999});
        sched.scheduleFnAt(&Spawner::fire, &late, 4);
        sched.run();
        return log;
    };

    const std::vector<int> plain = runOnce(0);
    EXPECT_EQ(plain, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100, 101,
                                       102, 103, 104, 105, 106, 107, 999}));
    bool permuted = false;
    for (uint64_t seed : {1, 2, 3}) {
        const std::vector<int> log = runOnce(seed);
        ASSERT_EQ(log.size(), plain.size()) << seed;
        std::vector<int> parents(log.begin(), log.begin() + 8);
        std::vector<int> children(log.begin() + 8, log.begin() + 16);
        permuted = permuted || parents != std::vector<int>(plain.begin(),
                                                           plain.begin() + 8);
        std::sort(parents.begin(), parents.end());
        std::sort(children.begin(), children.end());
        EXPECT_EQ(parents, std::vector<int>(plain.begin(), plain.begin() + 8))
            << seed;
        EXPECT_EQ(children,
                  std::vector<int>(plain.begin() + 8, plain.begin() + 16))
            << seed;
        EXPECT_EQ(log.back(), 999) << seed;
        EXPECT_EQ(runOnce(seed), log) << "seed " << seed << " replays";
    }
    EXPECT_TRUE(permuted);
    EXPECT_EQ(runOnce(0), plain); // The scope ended with its run.
}

// --- CondVar ----------------------------------------------------------------

/** Parks on `cv` until `ready`, then logs the cycle it saw it. */
Task
waiter(CondVar &cv, Scheduler &sched, const bool &ready,
       std::vector<uint64_t> &log)
{
    while (!ready)
        co_await cv.wait();
    log.push_back(sched.now());
}

TEST(CondVar, HoldsOneWaiterAndWakesItOnNotify)
{
    // Every wait in the simulator has exactly one possible waiter: a
    // notify with nobody parked is a no-op, a notify wakes the parked
    // waiter in the current cycle, and a second park is a bug.
    Scheduler sched;
    CondVar cv(sched);
    bool ready = false;
    std::vector<uint64_t> log;
    cv.notify(); // Nobody parked: nothing scheduled.
    EXPECT_TRUE(sched.idle());

    Task t = waiter(cv, sched, ready, log);
    sched.scheduleAt(t.handle(), 0);
    sched.run();
    EXPECT_TRUE(cv.hasWaiters());
    EXPECT_THROW(cv.park(&Scheduler::resumeFn, nullptr), PanicError);

    struct Ctx
    {
        CondVar *cv;
        bool *ready;
    } ctx{&cv, &ready};
    auto spurious = [](void *p) { static_cast<Ctx *>(p)->cv->notify(); };
    auto grant = [](void *p) {
        auto *c = static_cast<Ctx *>(p);
        *c->ready = true;
        c->cv->notify();
    };
    sched.scheduleFnAt(spurious, &ctx, 5); // Re-checks and re-parks.
    sched.scheduleFnAt(grant, &ctx, 9);
    sched.run();
    EXPECT_EQ(log, (std::vector<uint64_t>{9}));
    EXPECT_FALSE(cv.hasWaiters());
    EXPECT_TRUE(t.done());
}

} // namespace
} // namespace sara
