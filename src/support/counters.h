#ifndef SARA_SUPPORT_COUNTERS_H
#define SARA_SUPPORT_COUNTERS_H

/**
 * @file
 * Per-unit performance-counter architecture. Every PCU/PMU/AG engine
 * and NoC router cell accumulates cycle-exact counters (busy cycles,
 * stalls by cause, idle cycles, firings, bytes moved, FIFO-occupancy
 * high-water) into a CounterFile keyed by unit id — the software
 * analogue of a hardware perf-counter dump, and the data source for
 * `sarac --counters`, the fabric-utilization heatmap, the per-region
 * Chrome-trace counter tracks, and the `--json` run report.
 *
 * Invariant (asserted in tests/test_counters.cc): summing any
 * `stall.<cause>` counter over all unit blocks reproduces the global
 * stall-cause accounting in SimResult::stallTotals exactly — the
 * counter file is a lossless re-keying of the same cycle attribution,
 * never a second bookkeeping that can drift.
 *
 * Counters inside a block keep insertion order (deterministic output:
 * two runs of the same compiled graph render byte-identically, which
 * is what the golden test checks).
 */

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sara::json {
class Writer;
}

namespace sara::telemetry {

/** One unit's (or router cell's) counter set. */
struct CounterBlock
{
    std::string id;   ///< Unit name or "router(x,y)".
    std::string kind; ///< "pcu", "pmu", "ag", or "router".
    int x = -1, y = -1; ///< Grid placement (-1: unplaced / fringe).
    /** Named counters in insertion order (deterministic rendering). */
    std::vector<std::pair<std::string, uint64_t>> counters;

    /** Set (overwrite-or-append) a counter. */
    void set(const std::string &name, uint64_t value);
    /** Add to a counter (creating it at zero). */
    void add(const std::string &name, uint64_t delta);
    /** Read a counter (0 when absent). */
    uint64_t get(const std::string &name) const;
};

/** The whole dump: one block per unit, keyed by id. */
class CounterFile
{
  public:
    /** Find-or-create the block for `id` (insertion order kept). */
    CounterBlock &block(const std::string &id);
    /** Lookup; nullptr when absent. */
    const CounterBlock *find(const std::string &id) const;
    CounterBlock *findMutable(const std::string &id);

    const std::vector<CounterBlock> &blocks() const { return blocks_; }
    bool empty() const { return blocks_.empty(); }
    size_t size() const { return blocks_.size(); }

    /** Sum `counter` over every block (optionally one `kind` only). */
    uint64_t total(const std::string &counter) const;
    uint64_t total(const std::string &counter,
                   const std::string &kind) const;

    /** Emit as a JSON array of blocks:
     *  [{"id","kind","x","y","counters":{...}}, ...]. */
    void writeJson(json::Writer &j) const;

  private:
    std::vector<CounterBlock> blocks_;
    std::map<std::string, size_t> index_;
};

/** Per-unit counter table (engines only; router cells summarized). */
std::string renderCounterTable(const CounterFile &cf);

/**
 * rows x cols text heatmap of fabric utilization: each core-grid cell
 * shows busy/total on a 10-step character ramp; fringe AG columns
 * (x = -1, x = cols) are outside the grid and appear in the table
 * only. `totalCycles` is the run length the busy counters divide by.
 */
std::string renderHeatmap(const CounterFile &cf, int rows, int cols,
                          uint64_t totalCycles);

/** The full `sarac --counters` payload: table + router summary +
 *  heatmap (golden-checked in tests, so keep it deterministic). */
std::string renderCounterReport(const CounterFile &cf, int rows,
                                int cols, uint64_t totalCycles);

} // namespace sara::telemetry

#endif // SARA_SUPPORT_COUNTERS_H
