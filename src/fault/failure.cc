#include "fault/failure.h"

#include <algorithm>

#include "support/json.h"

namespace sara::fault {

const char *
hangClassName(HangClass c)
{
    switch (c) {
      case HangClass::Deadlock: return "deadlock";
      case HangClass::Starvation: return "starvation-livelock";
      case HangClass::InjectedFault: return "injected-fault-induced";
    }
    return "?";
}

namespace {

/**
 * Find a cycle in the wait-for graph. Each blocked engine wants at
 * most one resource here (it is parked on exactly one condition), so
 * out-degree <= 1 and chasing provider edges from each node with a
 * colour array finds any cycle in O(n). Returns the cycle in edge
 * order, rotated to start at its smallest index for determinism.
 */
std::vector<int>
findCycle(const std::vector<WaitNode> &blocked)
{
    enum : uint8_t { White, Grey, Black };
    std::vector<uint8_t> colour(blocked.size(), White);
    for (size_t start = 0; start < blocked.size(); ++start) {
        if (colour[start] != White)
            continue;
        std::vector<int> path;
        int v = static_cast<int>(start);
        while (v >= 0 && colour[v] == White) {
            colour[v] = Grey;
            path.push_back(v);
            v = blocked[v].provider;
        }
        if (v >= 0 && colour[v] == Grey) {
            // Cycle: the suffix of `path` starting at v.
            auto it = std::find(path.begin(), path.end(), v);
            std::vector<int> cyc(it, path.end());
            auto smallest = std::min_element(cyc.begin(), cyc.end());
            std::rotate(cyc.begin(), smallest, cyc.end());
            return cyc;
        }
        for (int n : path)
            colour[n] = Black;
    }
    return {};
}

} // namespace

FailureReport
classify(std::vector<WaitNode> blocked, const FaultInjector *inj,
         uint64_t atCycle)
{
    FailureReport r;
    r.atCycle = atCycle;
    r.blocked = std::move(blocked);
    if (inj) {
        r.seeded = true;
        r.seed = inj->seed();
        r.injections = inj->injections();
        r.injectionsTotal = inj->totalInjections();
    }

    // Injected faults win: a stuck credit or dropped DRAM response
    // usually *also* closes a wait-for cycle through its victim, and
    // blaming the injection is the useful diagnosis.
    if (inj) {
        for (const auto &n : r.blocked) {
            InjectionRecord hit;
            if (inj->findPermanentFault(n.resource, hit)) {
                r.cls = HangClass::InjectedFault;
                r.culprit = hit.site;
                return r;
            }
        }
        // Fallback: no blocked engine waits on the poisoned resource
        // directly, but a permanent fault struck before quiescence —
        // a frozen link usually surfaces as a stalled CMMC token loop
        // several hops from the injection, and blaming the injection
        // is still the right diagnosis.
        InjectionRecord hit;
        if (inj->firstPermanentFault(hit) && hit.cycle <= atCycle) {
            r.cls = HangClass::InjectedFault;
            r.culprit = hit.site;
            r.cycle = findCycle(r.blocked); // Keep the victim loop.
            return r;
        }
    }

    r.cycle = findCycle(r.blocked);
    r.cls = r.cycle.empty() ? HangClass::Starvation : HangClass::Deadlock;
    return r;
}

std::string
FailureReport::str() const
{
    std::string out =
        cancelled
            ? "simulation cancelled at cycle " + std::to_string(atCycle) +
                  " (watchdog deadline): classified " + hangClassName(cls)
        : budgetExceeded
            ? "simulation exceeded its " + std::to_string(budget) +
                  "-cycle budget at cycle " + std::to_string(atCycle) +
                  ": classified " + hangClassName(cls)
            : "simulation hang at cycle " + std::to_string(atCycle) +
                  ": classified " + hangClassName(cls);
    if (cls == HangClass::InjectedFault)
        out += " (injection site: " + culprit + ")";
    if (seeded)
        out += " [seed " + std::to_string(seed) + ", " +
               std::to_string(injectionsTotal) + " injections]";
    if (!cycle.empty()) {
        out += "\nwait-for cycle:";
        for (size_t i = 0; i < cycle.size(); ++i) {
            const WaitNode &n = blocked[cycle[i]];
            const WaitNode &next = blocked[cycle[(i + 1) % cycle.size()]];
            out += "\n  " + n.unit + " wants " + n.wants + " [" +
                   n.resource + "] held by " + next.unit;
        }
    }
    out += "\nunfinished engines:";
    for (const auto &n : blocked) {
        out += "\n  " + n.unit +
               (n.running ? std::string(": running")
                          : ": waiting on " + n.wants + " [" + n.resource +
                                "]");
        if (n.providerFinished)
            out += " (producer already finished)";
        if (!n.stalls.empty()) {
            out += "; stalls:";
            for (const auto &[name, cycles] : n.stalls)
                out += " " + name + "=" + std::to_string(cycles);
        }
    }
    if (!timeline.empty()) {
        out += "\nrecent events (flight recorder, last " +
               std::to_string(timeline.size()) + " of " +
               std::to_string(timelineDropped + timeline.size()) + "):";
        for (const auto &te : timeline)
            out += "\n  @" + std::to_string(te.cycle) + " " + te.kind +
                   " " + te.detail;
    }
    return out;
}

std::string
FailureReport::json() const
{
    json::Writer j;
    j.beginObject();
    j.kv("schema", "sara-failure-report/v1");
    j.kv("classification", hangClassName(cls));
    j.kv("at_cycle", atCycle);
    if (budgetExceeded) {
        j.kv("budget_exceeded", true);
        j.kv("cycle_budget", budget);
    }
    if (cancelled)
        j.kv("cancelled", true);
    if (seeded) {
        j.kv("inject_seed", seed);
        j.kv("injections_total", injectionsTotal);
    }
    if (cls == HangClass::InjectedFault)
        j.kv("culprit_site", culprit);
    j.key("wait_cycle").beginArray();
    for (size_t i = 0; i < cycle.size(); ++i) {
        const WaitNode &n = blocked[cycle[i]];
        const WaitNode &next = blocked[cycle[(i + 1) % cycle.size()]];
        j.beginObject();
        j.kv("unit", n.unit);
        j.kv("wants", n.wants);
        j.kv("resource", n.resource);
        j.kv("held_by", next.unit);
        j.endObject();
    }
    j.endArray();
    j.key("blocked").beginArray();
    for (const auto &n : blocked) {
        j.beginObject();
        j.kv("unit", n.unit);
        j.kv("wants", n.wants);
        j.kv("resource", n.resource);
        j.kv("provider_finished", n.providerFinished);
        j.kv("running", n.running);
        j.key("stalls").beginObject();
        for (const auto &[name, cycles] : n.stalls)
            j.kv(name, cycles);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.key("injections").beginArray();
    for (const auto &rec : injections) {
        j.beginObject();
        j.kv("kind", faultKindName(rec.kind));
        j.kv("site", rec.site);
        j.kv("cycle", rec.cycle);
        j.endObject();
    }
    j.endArray();
    j.key("timeline").beginArray();
    for (const auto &te : timeline) {
        j.beginObject();
        j.kv("cycle", te.cycle);
        j.kv("kind", te.kind);
        j.kv("detail", te.detail);
        j.endObject();
    }
    j.endArray();
    j.kv("timeline_dropped", timelineDropped);
    j.endObject();
    return j.str();
}

} // namespace sara::fault
