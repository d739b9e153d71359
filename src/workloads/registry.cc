/**
 * @file
 * The workload registry: one table mapping names to builders, shared
 * by everything that resolves a workload by name (sarac, sarad, the
 * batch runner, fault campaigns, benches). The table carries both the
 * hand-built Table IV suite and the graph-frontend example models, so
 * a graph workload is a first-class citizen everywhere.
 *
 * The original 12 names stay the "suite" (workloadNames) — golden
 * bench row sets and the fig7/fig9 sweeps are keyed to it — while
 * graphWorkloadNames()/allWorkloadNames() expose the frontend models.
 */

#include "workloads/workload.h"

#include <set>

#include "graph/models.h"
#include "support/logging.h"

namespace sara::workloads {

namespace {

struct Entry
{
    const char *name;
    Workload (*build)(const WorkloadConfig &);
    bool graph; ///< Built through the layer-graph frontend.
};

const Entry kRegistry[] = {
    {"mlp", buildMlp, false},
    {"lstm", buildLstm, false},
    {"snet", buildSnet, false},
    {"pr", buildPr, false},
    {"bs", buildBs, false},
    {"sort", buildSort, false},
    {"rf", buildRf, false},
    {"ms", buildMs, false},
    {"kmeans", buildKmeans, false},
    {"gda", buildGda, false},
    {"logreg", buildLogreg, false},
    {"sgd", buildSgd, false},
    {"mlp_graph", graph::buildMlpGraph, true},
    {"transformer_cell", graph::buildTransformerCell, true},
    {"resnet_block", graph::buildResnetBlock, true},
};

/** A duplicate name would make lookups silently order-dependent;
 *  fail fast the first time the registry is consulted. */
void
checkUnique()
{
    static const bool ok = [] {
        std::set<std::string> seen;
        for (const Entry &e : kRegistry)
            if (!seen.insert(e.name).second)
                fatal("workload registry: duplicate name '", e.name,
                      "'");
        return true;
    }();
    (void)ok;
}

/** The registry entry for `name`; fatal() on unknown names, listing
 *  the valid ones. */
const Entry &
find(const std::string &name)
{
    checkUnique();
    for (const Entry &e : kRegistry)
        if (name == e.name)
            return e;

    std::string known;
    for (const Entry &e : kRegistry) {
        if (!known.empty())
            known += ", ";
        known += e.name;
    }
    fatal("unknown workload '", name, "' (valid: ", known, ")");
}

} // namespace

Workload
buildByName(const std::string &name, const WorkloadConfig &cfg)
{
    return find(name).build(cfg);
}

void
checkWorkloadName(const std::string &name)
{
    find(name);
}

std::vector<std::string>
workloadNames()
{
    checkUnique();
    std::vector<std::string> names;
    for (const Entry &e : kRegistry)
        if (!e.graph)
            names.push_back(e.name);
    return names;
}

std::vector<std::string>
graphWorkloadNames()
{
    checkUnique();
    std::vector<std::string> names;
    for (const Entry &e : kRegistry)
        if (e.graph)
            names.push_back(e.name);
    return names;
}

std::vector<std::string>
allWorkloadNames()
{
    checkUnique();
    std::vector<std::string> names;
    for (const Entry &e : kRegistry)
        names.push_back(e.name);
    return names;
}

} // namespace sara::workloads
