/**
 * @file
 * Par-factor sweeps for the NN layer-graph frontend models (fig9-style
 * scaling, applied to graph-built programs).
 *
 * Two phases, both over the three shipped models (mlp_graph,
 * transformer_cell, resnet_block):
 *
 *   global  every layer at the same par factor (the classic fig9
 *           x-axis), fixed-latency and NoC cycle counts side by side.
 *   layer   one heavy layer (matmul / conv / attention) at a time
 *           swept through LowerOptions::parOverride while the rest of
 *           the model stays at the default par — the per-layer
 *           sensitivity a whole-model sweep can't show.
 *
 * Writes BENCH_graph.json (schema sara-bench/v1); rows carry
 * (phase, model, layer, par) so trend checks can key on any slice.
 * `--quick` shrinks both sweeps for CI.
 */

#include "bench/bench_common.h"
#include "graph/lower.h"
#include "graph/models.h"

using namespace sara;
using namespace sara::bench;

namespace {

struct PointG
{
    runtime::RunOutcome r;
    uint64_t nocCycles = 0;
    double flops = 0.0;
};

PointG
run(const BenchContext &ctx, const graph::LayerGraph &g, int par,
    const std::map<std::string, int> &overrides = {})
{
    graph::LowerOptions o;
    o.par = par;
    o.parOverride = overrides;
    graph::LowerResult lowered = graph::lowerGraph(g, o);
    runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    ctx.configure(rc);
    PointG pt;
    pt.r = runtime::runWorkload(lowered.workload, rc);
    pt.nocCycles = bench::nocCycles(lowered.workload, rc, pt.r);
    pt.flops = lowered.workload.nominalFlops;
    return pt;
}

void
emitRow(BenchJson &out, const std::string &phase,
        const std::string &model, const std::string &layer, int par,
        const PointG &pt)
{
    out.beginRow()
        .kv("phase", phase)
        .kv("model", model)
        .kv("layer", layer)
        .kv("par", par)
        .kv("cycles", pt.r.sim.cycles)
        .kv("noc_cycles", pt.nocCycles)
        .kv("gflops", pt.r.gflops())
        .kv("pcus", pt.r.compiled->resources.pcus)
        .kv("pmus", pt.r.compiled->resources.pmus)
        .kv("fits", pt.r.compiled->resources.fits)
        .endRow();
}

void
globalSweep(const BenchContext &ctx, BenchJson &out,
            const std::vector<graph::LayerGraph> &models,
            const std::vector<int> &pars)
{
    banner("graph models: global par sweep");
    std::vector<PointG> results(models.size() * pars.size());
    ctx.forEach(results.size(), "graph-global", [&](size_t i) {
        results[i] =
            run(ctx, models[i / pars.size()], pars[i % pars.size()]);
    });
    for (size_t m = 0; m < models.size(); ++m) {
        const std::string &name = models[m].name;
        Table t({"par", "cycles", "cycles (noc)", "speedup", "GFLOPS",
                 "PCUs", "PMUs"});
        double base = 0.0;
        for (size_t p = 0; p < pars.size(); ++p) {
            const PointG &pt = results[m * pars.size() + p];
            if (base == 0.0)
                base = static_cast<double>(pt.r.sim.cycles);
            t.addRow({std::to_string(pars[p]),
                      std::to_string(pt.r.sim.cycles),
                      std::to_string(pt.nocCycles),
                      Table::fmtX(base / pt.r.sim.cycles),
                      Table::fmt(pt.r.gflops(), 1),
                      std::to_string(pt.r.compiled->resources.pcus),
                      std::to_string(pt.r.compiled->resources.pmus)});
            emitRow(out, "global", name, "*", pars[p], pt);
        }
        std::printf("-- %s --\n%s", name.c_str(), t.str().c_str());
    }
}

void
layerSweep(const BenchContext &ctx, BenchJson &out,
           const std::vector<graph::LayerGraph> &models,
           const std::vector<int> &pars)
{
    banner("graph models: per-layer par sweep (rest of model at 16)");
    struct Job
    {
        size_t model;
        std::string layer;
        int par;
    };
    std::vector<Job> jobsToRun;
    for (size_t m = 0; m < models.size(); ++m)
        for (const auto &n : models[m].nodes) {
            if (n.kind != graph::NodeKind::Matmul &&
                n.kind != graph::NodeKind::Conv &&
                n.kind != graph::NodeKind::Attention)
                continue;
            for (int par : pars)
                jobsToRun.push_back({m, n.name, par});
        }

    std::vector<PointG> results(jobsToRun.size());
    ctx.forEach(results.size(), "graph-layer", [&](size_t i) {
        const Job &j = jobsToRun[i];
        results[i] =
            run(ctx, models[j.model], 16, {{j.layer, j.par}});
    });

    size_t i = 0;
    for (size_t m = 0; m < models.size(); ++m) {
        Table t({"layer", "par", "cycles", "cycles (noc)", "GFLOPS"});
        bool any = false;
        for (; i < jobsToRun.size() && jobsToRun[i].model == m; ++i) {
            const Job &j = jobsToRun[i];
            const PointG &pt = results[i];
            t.addRow({j.layer, std::to_string(j.par),
                      std::to_string(pt.r.sim.cycles),
                      std::to_string(pt.nocCycles),
                      Table::fmt(pt.r.gflops(), 1)});
            emitRow(out, "layer", models[m].name, j.layer, j.par, pt);
            any = true;
        }
        if (any)
            std::printf("-- %s --\n%s", models[m].name.c_str(),
                        t.str().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    CliArgs args(argc, argv,
                 std::string("[--quick] ") + BenchContext::kFlags);
    BenchContext ctx;
    while (args.next()) {
        if (args.is("--quick"))
            quick = true;
        else if (!ctx.take(args))
            args.unknown();
    }
    ctx.open();

    std::vector<graph::LayerGraph> models;
    models.push_back(graph::mlpGraph());
    models.push_back(graph::transformerCellGraph());
    models.push_back(graph::resnetBlockGraph());

    const std::vector<int> globalPars =
        quick ? std::vector<int>{4, 16} : std::vector<int>{1, 4, 16, 64};
    const std::vector<int> layerPars =
        quick ? std::vector<int>{4, 64} : std::vector<int>{4, 16, 64};

    BenchJson out("graph");
    globalSweep(ctx, out, models, globalPars);
    layerSweep(ctx, out, models, layerPars);
    out.write();
    ctx.reportCache();
    return 0;
}
