#include "solver/mip.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"
#include "support/rng.h"

namespace sara::solver {

namespace {

/** Renumber partitions to 0..k-1 preserving first-appearance order;
 *  `remap` is caller-owned scratch. */
void
compact(std::vector<int> &assign, std::vector<int> &remap)
{
    remap.assign(assign.size(), -1);
    int next = 0;
    for (int &a : assign) {
        if (remap[a] < 0)
            remap[a] = next++;
        a = remap[a];
    }
}

int
numParts(const std::vector<int> &assign)
{
    int parts = 0;
    for (int a : assign)
        parts = std::max(parts, a + 1);
    return parts;
}

} // namespace

Assignment
anneal(int n, const std::vector<int> &warm, const CostFn &cost,
       const AnnealOptions &options)
{
    SARA_ASSERT(static_cast<int>(warm.size()) == n,
                "warm start size mismatch");
    Rng rng(options.seed);

    std::vector<int> cur = warm;
    std::vector<int> cand, remap; // Reused by every move.
    compact(cur, remap);
    bool curFeasible = false;
    double curCost = cost(cur, &curFeasible);

    Assignment best;
    best.assign = cur;
    best.cost = curCost;
    best.feasible = curFeasible;

    if (n <= 1) {
        best.iterations = 0;
        return best;
    }

    double temp = options.initTemp;
    const double decay =
        std::pow(options.minTemp / options.initTemp,
                 1.0 / std::max<uint64_t>(1, options.iterations));

    for (uint64_t it = 0; it < options.iterations; ++it) {
        cand = cur;
        int parts = numParts(cand);
        int move = static_cast<int>(rng.intIn(0, 2));
        if (move == 0) {
            // Relocate a node (possibly opening a new partition).
            int node = static_cast<int>(rng.index(n));
            int target = static_cast<int>(rng.intIn(0, parts));
            if (target == cand[node])
                target = parts; // Open fresh partition instead.
            cand[node] = target;
        } else if (move == 1 && n >= 2) {
            int a = static_cast<int>(rng.index(n));
            int b = static_cast<int>(rng.index(n));
            std::swap(cand[a], cand[b]);
        } else if (parts >= 2) {
            // Merge two partitions.
            int pa = static_cast<int>(rng.intIn(0, parts - 1));
            int pb = static_cast<int>(rng.intIn(0, parts - 1));
            if (pa == pb)
                pb = (pb + 1) % parts;
            for (int &a : cand)
                if (a == pa)
                    a = pb;
        }
        compact(cand, remap);

        bool feasible = false;
        double c = cost(cand, &feasible);
        double delta = c - curCost;
        if (delta <= 0 ||
            rng.realIn(0.0, 1.0) < std::exp(-delta / std::max(temp, 1e-9))) {
            std::swap(cur, cand);
            curCost = c;
            curFeasible = feasible;
            if (feasible &&
                (!best.feasible || curCost < best.cost)) {
                best.assign = cur;
                best.cost = curCost;
                best.feasible = true;
            }
        }
        temp *= decay;
        best.iterations = it + 1;

        if (best.feasible && options.lowerBound > 0 &&
            best.cost <=
                options.lowerBound * (1.0 + options.targetGap))
            break;
    }
    return best;
}

} // namespace sara::solver
