#include "support/counters.h"

#include <algorithm>
#include <cstdio>

#include "support/json.h"
#include "support/table.h"

namespace sara::telemetry {

// ---------------------------------------------------------------------------
// CounterBlock
// ---------------------------------------------------------------------------

void
CounterBlock::set(const std::string &name, uint64_t value)
{
    for (auto &[k, v] : counters) {
        if (k == name) {
            v = value;
            return;
        }
    }
    counters.emplace_back(name, value);
}

void
CounterBlock::add(const std::string &name, uint64_t delta)
{
    for (auto &[k, v] : counters) {
        if (k == name) {
            v += delta;
            return;
        }
    }
    counters.emplace_back(name, delta);
}

uint64_t
CounterBlock::get(const std::string &name) const
{
    for (const auto &[k, v] : counters)
        if (k == name)
            return v;
    return 0;
}

// ---------------------------------------------------------------------------
// CounterFile
// ---------------------------------------------------------------------------

CounterBlock &
CounterFile::block(const std::string &id)
{
    auto it = index_.find(id);
    if (it != index_.end())
        return blocks_[it->second];
    index_.emplace(id, blocks_.size());
    blocks_.emplace_back();
    blocks_.back().id = id;
    return blocks_.back();
}

const CounterBlock *
CounterFile::find(const std::string &id) const
{
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &blocks_[it->second];
}

CounterBlock *
CounterFile::findMutable(const std::string &id)
{
    auto it = index_.find(id);
    return it == index_.end() ? nullptr : &blocks_[it->second];
}

uint64_t
CounterFile::total(const std::string &counter) const
{
    uint64_t sum = 0;
    for (const auto &b : blocks_)
        sum += b.get(counter);
    return sum;
}

uint64_t
CounterFile::total(const std::string &counter,
                   const std::string &kind) const
{
    uint64_t sum = 0;
    for (const auto &b : blocks_)
        if (b.kind == kind)
            sum += b.get(counter);
    return sum;
}

void
CounterFile::writeJson(json::Writer &j) const
{
    j.beginArray();
    for (const auto &b : blocks_) {
        j.beginObject();
        j.kv("id", b.id);
        j.kv("kind", b.kind);
        j.kv("x", b.x);
        j.kv("y", b.y);
        j.key("counters").beginObject();
        for (const auto &[k, v] : b.counters)
            j.kv(k, v);
        j.endObject();
        j.endObject();
    }
    j.endArray();
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string
renderCounterTable(const CounterFile &cf)
{
    Table t({"unit", "kind", "place", "firings", "skips", "busy",
             "stall", "idle", "bytes", "occ-peak"});
    for (const auto &b : cf.blocks()) {
        if (b.kind == "router")
            continue;
        uint64_t stall = 0;
        for (const auto &[k, v] : b.counters)
            if (k.rfind("stall.", 0) == 0)
                stall += v;
        char place[32];
        std::snprintf(place, sizeof place, "(%d,%d)", b.x, b.y);
        t.addRow({b.id, b.kind, place, std::to_string(b.get("firings")),
                  std::to_string(b.get("skips")),
                  std::to_string(b.get("busy")), std::to_string(stall),
                  std::to_string(b.get("idle")),
                  std::to_string(b.get("bytes")),
                  std::to_string(b.get("occ_peak"))});
    }
    return t.str();
}

std::string
renderHeatmap(const CounterFile &cf, int rows, int cols,
              uint64_t totalCycles)
{
    // 10-step intensity ramp; ' ' marks cells with no placed engine.
    static const char kRamp[] = " .:-=+*#%@";
    std::vector<double> util(static_cast<size_t>(rows * cols), -1.0);
    int fringe = 0;
    for (const auto &b : cf.blocks()) {
        if (b.kind == "router")
            continue;
        if (b.x < 0 || b.x >= cols || b.y < 0 || b.y >= rows) {
            ++fringe;
            continue;
        }
        double u = totalCycles
                       ? static_cast<double>(b.get("busy")) /
                             static_cast<double>(totalCycles)
                       : 0.0;
        double &cell = util[static_cast<size_t>(b.y * cols + b.x)];
        // Colocated engines (a PMU's port next to its storage): the
        // cell shows the hottest occupant.
        cell = std::max(cell, u);
    }

    std::string out = "fabric utilization (busy cycles / " +
                      std::to_string(totalCycles) + " total, " +
                      std::to_string(cols) + "x" + std::to_string(rows) +
                      "):\n";
    std::string border = "    +" + std::string(cols, '-') + "+\n";
    out += border;
    for (int y = rows - 1; y >= 0; --y) {
        char label[16];
        std::snprintf(label, sizeof label, "%3d |", y);
        out += label;
        for (int x = 0; x < cols; ++x) {
            double u = util[static_cast<size_t>(y * cols + x)];
            char c;
            if (u < 0.0) {
                c = ' ';
            } else {
                int step = static_cast<int>(u * 10.0);
                step = std::clamp(step, 0, 9);
                if (step == 0 && u >= 0.0)
                    step = 1; // A placed engine is never blank.
                c = kRamp[step];
            }
            out += c;
        }
        out += "|\n";
    }
    out += border;
    out += "    x: 0.." + std::to_string(cols - 1) +
           " left to right; ramp ' '=unused .<20% :<30% -<40% =<50% "
           "+<60% *<70% #<80% %<90% @>=90%\n";
    if (fringe > 0)
        out += "    (" + std::to_string(fringe) +
               " fringe AG engines at x=-1/x=" + std::to_string(cols) +
               " listed in the table only)\n";
    return out;
}

std::string
renderCounterReport(const CounterFile &cf, int rows, int cols,
                    uint64_t totalCycles)
{
    std::string out = "-- per-unit performance counters --\n";
    out += renderCounterTable(cf);

    uint64_t routerCells = 0, traversals = 0, waitCycles = 0;
    for (const auto &b : cf.blocks()) {
        if (b.kind != "router")
            continue;
        ++routerCells;
        traversals += b.get("traversals");
        waitCycles += b.get("wait_cycles");
    }
    if (routerCells > 0)
        out += "routers: " + std::to_string(routerCells) +
               " active cells, " + std::to_string(traversals) +
               " traversals, " + std::to_string(waitCycles) +
               " flit-wait cycles (per-link detail: --noc-stats)\n";
    out += renderHeatmap(cf, rows, cols, totalCycles);
    return out;
}

} // namespace sara::telemetry
