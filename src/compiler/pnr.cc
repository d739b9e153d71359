#include "compiler/pnr.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "support/logging.h"
#include "support/rng.h"

namespace sara::compiler {

using dfg::PuType;
using dfg::StreamKind;

namespace {

struct Cell
{
    int x = 0, y = 0;
    PuType type = PuType::Pcu;
    int group = -1; ///< Occupying group (-1 free).
};

/** A weighted connection between two groups (a < b). */
struct Net
{
    int a = 0, b = 0;
    double w = 0.0;
};

struct Placer
{
    const CompilerOptions &opt;
    dfg::Vudfg &g;

    int rows = 0, cols = 0;
    std::vector<Cell> cells;
    std::vector<int> cellOf;          ///< group -> cell index.
    std::vector<PuType> groupType;
    /** Inter-group nets in (a, b) order. */
    std::vector<Net> nets;
    /** Per group, the nets that touch it, in `nets` order. */
    std::vector<std::vector<Net>> incident;

    int
    manhattan(int ca, int cb) const
    {
        return std::abs(cells[ca].x - cells[cb].x) +
               std::abs(cells[ca].y - cells[cb].y);
    }

    double
    netCost(const Net &net) const
    {
        return net.w * manhattan(cellOf[net.a], cellOf[net.b]);
    }

    double
    totalCost() const
    {
        double cost = 0.0;
        for (const Net &net : nets)
            cost += netCost(net);
        return cost;
    }

    /** Wirelength of the nets touching `group`, in O(degree). The sum
     *  runs in `nets` order, so it matches a filtered scan of all nets
     *  bit for bit (weights are multiples of 0.5, distances integers). */
    double
    groupCost(int group) const
    {
        double cost = 0.0;
        for (const Net &net : incident[group])
            cost += netCost(net);
        return cost;
    }
};

} // namespace

PnrReport
placeAndRoute(dfg::Vudfg &graph, const CompilerOptions &options)
{
    PnrReport report;
    const auto &spec = options.spec;

    // --- Collect groups. ---
    int numGroups = 0;
    for (const auto &u : graph.units())
        numGroups = std::max(numGroups, u.mergedInto + 1);
    if (numGroups == 0) {
        // Merging did not run (semantics-only flows): every unit is
        // its own group of its natural type.
        for (auto &u : graph.units()) {
            u.mergedInto = numGroups++;
            u.assigned = u.kind == dfg::VuKind::Memory ||
                                 (u.kind == dfg::VuKind::MemPort &&
                                  !u.dynamicBank)
                             ? PuType::Pmu
                             : (u.kind == dfg::VuKind::Ag ? PuType::AgIf
                                                          : PuType::Pcu);
        }
    }

    Placer placer{options, graph, 0, 0, {}, {}, {}, {}, {}};
    placer.groupType.assign(numGroups, PuType::Pcu);
    int pcuNeed = 0, pmuNeed = 0, agNeed = 0;
    {
        std::vector<bool> seen(numGroups, false);
        for (const auto &u : graph.units()) {
            if (seen[u.mergedInto])
                continue;
            seen[u.mergedInto] = true;
            placer.groupType[u.mergedInto] = u.assigned;
            switch (u.assigned) {
              case PuType::Pmu: ++pmuNeed; break;
              case PuType::AgIf: ++agNeed; break;
              default: ++pcuNeed; break;
            }
        }
    }

    // --- Build the (possibly virtually scaled) grid. ---
    int rows = spec.rows, cols = spec.cols;
    auto capacity = [&](int r, int c) {
        return std::make_pair(r * c / 2, r * c / 2);
    };
    while (capacity(rows, cols).first < pcuNeed ||
           capacity(rows, cols).second < pmuNeed) {
        rows += 2;
        cols += 2;
        report.placed = false; // Virtual overflow grid.
    }
    int agSlots = std::max(spec.numAgs, agNeed);
    placer.rows = rows;
    placer.cols = cols;
    report.gridRows = rows;
    report.gridCols = cols;

    // Checkerboard cells + AG fringe on the two vertical edges.
    std::vector<int> freePcu, freePmu, freeAg;
    for (int y = 0; y < rows; ++y) {
        for (int x = 0; x < cols; ++x) {
            Cell cell;
            cell.x = x;
            cell.y = y;
            cell.type = ((x + y) % 2 == 0) ? PuType::Pcu : PuType::Pmu;
            placer.cells.push_back(cell);
            (cell.type == PuType::Pcu ? freePcu : freePmu)
                .push_back(static_cast<int>(placer.cells.size() - 1));
        }
    }
    for (int i = 0; i < agSlots; ++i) {
        Cell cell;
        cell.x = (i % 2 == 0) ? -1 : cols;
        cell.y = (i / 2) % rows;
        cell.type = PuType::AgIf;
        placer.cells.push_back(cell);
        freeAg.push_back(static_cast<int>(placer.cells.size() - 1));
    }

    // --- Nets between groups. ---
    {
        std::map<std::pair<int, int>, double> weights;
        for (const auto &s : graph.streams()) {
            int a = graph.unit(s.src).mergedInto;
            int b = graph.unit(s.dst).mergedInto;
            if (a == b)
                continue;
            double w = s.kind == StreamKind::Token ? 0.5
                       : (s.vec > 1 ? 2.0 : 1.0);
            weights[std::minmax(a, b)] += w;
        }
        placer.incident.resize(numGroups);
        for (const auto &[key, w] : weights) {
            Net net{key.first, key.second, w};
            placer.nets.push_back(net);
            placer.incident[net.a].push_back(net);
            placer.incident[net.b].push_back(net);
        }
    }

    // --- Initial placement: group order, round-robin into free cells
    // (snake order gives locality for consecutive ids). ---
    placer.cellOf.assign(numGroups, -1);
    size_t iPcu = 0, iPmu = 0, iAg = 0;
    for (int gIdx = 0; gIdx < numGroups; ++gIdx) {
        switch (placer.groupType[gIdx]) {
          case PuType::Pmu:
            SARA_ASSERT(iPmu < freePmu.size(), "PMU overflow in PnR");
            placer.cellOf[gIdx] = freePmu[iPmu++];
            break;
          case PuType::AgIf:
            SARA_ASSERT(iAg < freeAg.size(), "AG overflow in PnR");
            placer.cellOf[gIdx] = freeAg[iAg++];
            break;
          default:
            SARA_ASSERT(iPcu < freePcu.size(), "PCU overflow in PnR");
            placer.cellOf[gIdx] = freePcu[iPcu++];
            break;
        }
        placer.cells[placer.cellOf[gIdx]].group = gIdx;
    }

    // --- Simulated annealing: swap same-class placements. ---
    {
        Rng rng(options.pnrSeed);
        // Per-class group lists and free cells (occupied or not).
        std::vector<std::vector<int>> classGroups(3);
        auto classIdx = [](PuType t) {
            return t == PuType::Pmu ? 1 : (t == PuType::AgIf ? 2 : 0);
        };
        for (int gIdx = 0; gIdx < numGroups; ++gIdx)
            classGroups[classIdx(placer.groupType[gIdx])].push_back(gIdx);
        std::vector<std::vector<int>> classCells(3);
        for (size_t c = 0; c < placer.cells.size(); ++c)
            classCells[classIdx(placer.cells[c].type)].push_back(
                static_cast<int>(c));

        double temp = 4.0;
        const double decay = std::pow(
            0.001 / temp, 1.0 / std::max(1, options.pnrIterations));
        for (int it = 0; it < options.pnrIterations; ++it) {
            int cls = static_cast<int>(rng.intIn(0, 2));
            if (classGroups[cls].empty()) {
                temp *= decay;
                continue;
            }
            int gIdx = classGroups[cls][rng.index(classGroups[cls].size())];
            int target = classCells[cls][rng.index(classCells[cls].size())];
            int from = placer.cellOf[gIdx];
            if (target == from) {
                temp *= decay;
                continue;
            }
            int other = placer.cells[target].group;
            double before = placer.groupCost(gIdx) +
                            (other >= 0 ? placer.groupCost(other) : 0.0);
            // Apply swap.
            placer.cells[from].group = other;
            placer.cells[target].group = gIdx;
            placer.cellOf[gIdx] = target;
            if (other >= 0)
                placer.cellOf[other] = from;
            double after = placer.groupCost(gIdx) +
                           (other >= 0 ? placer.groupCost(other) : 0.0);
            double delta = after - before;
            if (delta > 0 &&
                rng.realIn(0.0, 1.0) >=
                    std::exp(-delta / std::max(temp, 1e-9))) {
                // Revert.
                placer.cells[target].group = other;
                placer.cells[from].group = gIdx;
                placer.cellOf[gIdx] = from;
                if (other >= 0)
                    placer.cellOf[other] = target;
            }
            temp *= decay;
        }
    }

    report.wirelength = placer.totalCost();

    // --- Record placement on units. ---
    for (auto &u : graph.units()) {
        const Cell &cell = placer.cells[placer.cellOf[u.mergedInto]];
        u.placeX = cell.x;
        u.placeY = cell.y;
    }

    // --- Route (X-Y dimension order). ---
    // Each stream gets the explicit sequence of directed links it
    // crosses (X run at the source row, then Y run at the destination
    // column); per-link loads over those routes drive the congestion
    // estimate, and the cycle-level NoC replays the exact same routes,
    // so `maxLinkLoad` here equals the network's measured peak
    // streams-per-link by construction (asserted in tests/test_noc.cc).
    auto buildRoute = [](int x1, int y1, int x2, int y2) {
        std::vector<dfg::RouteLink> route;
        int x = x1, y = y1;
        while (x != x2) {
            bool east = x2 > x;
            route.push_back({static_cast<int16_t>(x),
                             static_cast<int16_t>(y),
                             east ? dfg::LinkDir::East
                                  : dfg::LinkDir::West});
            x += east ? 1 : -1;
        }
        while (y != y2) {
            bool south = y2 > y;
            route.push_back({static_cast<int16_t>(x),
                             static_cast<int16_t>(y),
                             south ? dfg::LinkDir::South
                                   : dfg::LinkDir::North});
            y += south ? 1 : -1;
        }
        return route;
    };
    std::map<dfg::RouteLink, int> linkLoad; // streams per directed link
    const int linkCapacity = 8;
    double latencySum = 0.0;
    int latencyCount = 0;
    for (auto &s : graph.streams()) {
        const auto &su = graph.unit(s.src);
        const auto &du = graph.unit(s.dst);
        if (su.mergedInto == du.mergedInto) {
            s.latency = 1; // Same physical unit.
            s.route.clear();
            continue;
        }
        s.route =
            buildRoute(su.placeX, su.placeY, du.placeX, du.placeY);
        int dist = static_cast<int>(s.route.size());
        int load = 0;
        for (const auto &link : s.route)
            load = std::max(load, ++linkLoad[link]);
        report.maxLinkLoad = std::max(report.maxLinkLoad, load);
        report.routedStreams += dist > 0;
        report.totalRouteHops += dist;
        int congestion = std::max(0, load - linkCapacity);
        s.latency = std::max(spec.net.minLatency,
                             spec.net.ejectLatency +
                                 spec.net.hopLatency * dist) +
                    2 * congestion;
        if (options.control == ControlScheme::HierarchicalFsm &&
            s.kind == StreamKind::Token) {
            // Enable/done handshakes traverse the loop controller hub:
            // roughly double the path plus the hub's reaction time.
            s.latency = 2 * s.latency + spec.net.minLatency;
        }
        latencySum += s.latency;
        ++latencyCount;
    }
    report.avgStreamLatency =
        latencyCount ? latencySum / latencyCount : 0.0;
    return report;
}

} // namespace sara::compiler
