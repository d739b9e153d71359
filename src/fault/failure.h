#ifndef SARA_FAULT_FAILURE_H
#define SARA_FAULT_FAILURE_H

/**
 * @file
 * Hang diagnosis: wait-for-graph classification and structured failure
 * escalation.
 *
 * When the simulator's event queue drains with unfinished engines, the
 * sim layer snapshots every blocked engine as a WaitNode — who it is,
 * what resource it wants (stream data, credits, a NoC link slot, a
 * DRAM response) and which engine could provide it — and hands the
 * snapshot to classify():
 *
 *   injected-fault-induced  a permanently-injected fault (stuck
 *                           credits, DRAM timeout, leaked FIFO
 *                           credits) holds a resource some blocked
 *                           engine waits on; takes precedence since an
 *                           injected hang usually *also* closes a
 *                           wait-for cycle through the victim.
 *   deadlock                the wait-for graph has a cycle: every
 *                           engine on it holds what the next one
 *                           wants. The exact cycle (units, wanted
 *                           resources, edges) is reported.
 *   starvation-livelock     no cycle: every wait chain ends at a
 *                           finished engine or an external resource
 *                           that will never produce again.
 *
 * The result is a FailureReport: human-readable via str(), embedded in
 * the run's JSON output via json() (schema sara-failure-report/v1, no
 * wall-clock fields, so two seeded replays serialize byte-identically)
 * and thrown as HangError — a PanicError subclass, preserving the
 * exit-code contract (4 = internal failure) while carrying structure.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "support/logging.h"

namespace sara::fault {

/** Hang classification outcomes. */
enum class HangClass : uint8_t {
    Deadlock,
    Starvation,
    InjectedFault,
};

const char *hangClassName(HangClass c);

/** One unfinished engine when the run stopped: parked on a resource,
 *  or (budget overrun, cancel) still running. */
struct WaitNode
{
    std::string unit;     ///< Engine (virtual unit) name.
    std::string wants;    ///< "data", "credit", "link-slot", ...
    std::string resource; ///< Stream name / link site / unit name.
    /** Index (into the blocked list) of the engine that could produce
     *  `resource`; -1 when the provider is external, finished, or a
     *  storage unit with no engine. */
    int provider = -1;
    /** The provider engine exists but already ran to completion — the
     *  signature of starvation rather than deadlock. */
    bool providerFinished = false;
    /** Nonzero stall-cause histogram entries (name, cycles). */
    std::vector<std::pair<std::string, uint64_t>> stalls;
    /** The engine was firing, not parked, when the run stopped (a
     *  budget overrun or a cancel stops it mid-flight); `wants` and
     *  `resource` are then empty. */
    bool running = false;
};

/** One flight-recorder event, formatted for the failure report: what
 *  happened (fired/parked/woke/link-grant/deliver), when, to whom. */
struct TimelineEvent
{
    uint64_t cycle = 0;
    std::string kind;
    std::string detail;
};

/** Structured description of a hung simulation. */
struct FailureReport
{
    HangClass cls = HangClass::Starvation;
    uint64_t atCycle = 0;
    /** Injection seed (valid when `seeded`). */
    uint64_t seed = 0;
    bool seeded = false;
    std::vector<WaitNode> blocked;
    /** Indices into `blocked` forming the wait-for cycle, in edge
     *  order (Deadlock only). */
    std::vector<int> cycle;
    /** Injection site implicated in the hang (InjectedFault only). */
    std::string culprit;
    std::vector<InjectionRecord> injections;
    uint64_t injectionsTotal = 0;
    /** The run hit its cycle budget with events still firing (livelock
     *  tripwire) rather than quiescing with a drained event queue. */
    bool budgetExceeded = false;
    /** The exhausted cycle budget (valid when `budgetExceeded`). */
    uint64_t budget = 0;
    /** The run was cancelled from outside (daemon watchdog deadline)
     *  rather than hanging on its own; `atCycle` is where it stopped. */
    bool cancelled = false;
    /** The last events leading up to the hang, oldest first (from the
     *  simulator's flight-recorder ring; empty when disabled). */
    std::vector<TimelineEvent> timeline;
    /** Events that fell off the ring before the dump. */
    uint64_t timelineDropped = 0;

    /** Human-readable diagnosis (the panic message). */
    std::string str() const;
    /** Schema sara-failure-report/v1. Deterministic: derived from sim
     *  state only, so seeded replays serialize byte-identically. */
    std::string json() const;
};

/**
 * Classify a quiesced-but-unfinished simulation. `inj` may be null
 * (no fault injection attached).
 */
FailureReport classify(std::vector<WaitNode> blocked,
                       const FaultInjector *inj, uint64_t atCycle);

/** A classified hang. Subclasses PanicError so existing catch sites
 *  and the sarac exit-code contract (4) are preserved. */
class HangError : public PanicError
{
  public:
    explicit HangError(FailureReport report)
        : PanicError(report.str()), report_(std::move(report))
    {
    }

    const FailureReport &report() const { return report_; }

  private:
    FailureReport report_;
};

} // namespace sara::fault

#endif // SARA_FAULT_FAILURE_H
