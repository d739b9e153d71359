/**
 * @file
 * Fig. 9 reproduction.
 *
 * (a) Performance and resource scaling vs. par factor for a
 *     resource-bound kernel (mlp) and a bandwidth-bound kernel (rf):
 *     performance should scale near-linearly until on-chip resources
 *     (mlp) or HBM bandwidth (rf) saturate.
 * (b) Performance-resource trade-off space for mlp and lstm across
 *     par factors and optimization sets; the Pareto-frontier points
 *     are marked.
 */

#include "bench/bench_common.h"

using namespace sara;
using namespace sara::bench;

namespace {

/** One sweep point: the fixed-latency outcome plus the cycle count of
 *  the same compiled graph re-simulated through the contended NoC. */
struct Point9
{
    runtime::RunOutcome r;
    uint64_t nocCycles = 0;
};

Point9
run(const BenchContext &ctx, const std::string &name, int par,
    bool allOpts = true)
{
    workloads::WorkloadConfig cfg;
    cfg.par = par;
    auto w = workloads::buildByName(name, cfg);
    runtime::RunConfig rc;
    rc.compiler.spec = arch::PlasticineSpec::paper();
    rc.compiler.pnrIterations = 2000;
    if (!allOpts) {
        rc.compiler.enableMsr = false;
        rc.compiler.enableRtelm = false;
        rc.compiler.enableRetime = false;
        rc.compiler.enableRetimeM = false;
        rc.compiler.enableXbarElm = false;
        rc.compiler.enableMultibuffer = false;
        rc.compiler.enableControlReduction = false;
    }
    ctx.configure(rc);
    Point9 pt;
    pt.r = runtime::runWorkload(w, rc);
    pt.nocCycles = nocCycles(w, rc, pt.r);
    return pt;
}

void
fig9a(const BenchContext &ctx, BenchJson &out)
{
    banner("Fig. 9a: performance & resource scaling vs par factor");
    const std::vector<int> pars = {1, 2, 4, 8, 16, 32, 64, 128, 192, 256};
    const std::vector<std::string> apps = {"mlp", "rf"};

    // Sweep points run in parallel; rows are emitted in order below.
    std::vector<Point9> results(apps.size() * pars.size());
    ctx.forEach(results.size(), "fig9a", [&](size_t i) {
        results[i] =
            run(ctx, apps[i / pars.size()], pars[i % pars.size()]);
    });

    for (size_t a = 0; a < apps.size(); ++a) {
        const std::string &name = apps[a];
        Table t({"par", "cycles", "cycles (noc)", "speedup", "PCUs",
                 "PMUs", "AGs", "DRAM GB/s", "fits"});
        double base = 0.0;
        for (size_t p = 0; p < pars.size(); ++p) {
            int par = pars[p];
            const auto &r = results[a * pars.size() + p].r;
            uint64_t noc = results[a * pars.size() + p].nocCycles;
            if (base == 0.0)
                base = static_cast<double>(r.sim.cycles);
            t.addRow({std::to_string(par), std::to_string(r.sim.cycles),
                      std::to_string(noc),
                      Table::fmtX(base / r.sim.cycles),
                      std::to_string(r.compiled->resources.pcus),
                      std::to_string(r.compiled->resources.pmus),
                      std::to_string(r.compiled->resources.ags),
                      Table::fmt(r.dramGBs(), 1),
                      r.compiled->resources.fits ? "y" : "n"});
            out.beginRow()
                .kv("panel", "a")
                .kv("app", name)
                .kv("par", par)
                .kv("cycles", r.sim.cycles)
                .kv("noc_cycles", noc)
                .kv("speedup", base / r.sim.cycles)
                .kv("pcus", r.compiled->resources.pcus)
                .kv("pmus", r.compiled->resources.pmus)
                .kv("ags", r.compiled->resources.ags)
                .kv("dram_gbs", r.dramGBs())
                .kv("fits", r.compiled->resources.fits)
                .endRow();
        }
        std::printf("-- %s --\n%s", name.c_str(), t.str().c_str());
    }
}

void
fig9b(const BenchContext &ctx, BenchJson &out)
{
    banner("Fig. 9b: performance-resource trade-off (Pareto frontier)");
    const std::vector<int> pars = {1, 4, 16, 64, 128, 256};
    for (const std::string name : {"mlp", "lstm"}) {
        struct Point
        {
            int par;
            bool opts;
            uint64_t cycles;
            int resources;
            uint64_t nocCycles;
        };
        std::vector<Point> pts(pars.size() * 2);
        ctx.forEach(pts.size(), "fig9b-" + name, [&](size_t i) {
            int par = pars[i / 2];
            bool opts = i % 2 == 0;
            auto pt = run(ctx, name, par, opts);
            pts[i] = {par, opts, pt.r.sim.cycles,
                      pt.r.compiled->resources.total(), pt.nocCycles};
        });
        Table t({"par", "opts", "cycles", "cycles (noc)", "total PUs",
                 "pareto"});
        for (const auto &pt : pts) {
            bool dominated = false;
            for (const auto &other : pts)
                if (other.cycles <= pt.cycles &&
                    other.resources <= pt.resources &&
                    (other.cycles < pt.cycles ||
                     other.resources < pt.resources))
                    dominated = true;
            t.addRow({std::to_string(pt.par), pt.opts ? "all" : "none",
                      std::to_string(pt.cycles),
                      std::to_string(pt.nocCycles),
                      std::to_string(pt.resources),
                      dominated ? "" : "*"});
            out.beginRow()
                .kv("panel", "b")
                .kv("app", name)
                .kv("par", pt.par)
                .kv("opts", pt.opts)
                .kv("cycles", pt.cycles)
                .kv("noc_cycles", pt.nocCycles)
                .kv("total_units", pt.resources)
                .kv("pareto", !dominated)
                .endRow();
        }
        std::printf("-- %s --\n%s", name.c_str(), t.str().c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx = BenchContext::parse(argc, argv);
    BenchJson out("fig9");
    fig9a(ctx, out);
    fig9b(ctx, out);
    out.write();
    ctx.reportCache();
    return 0;
}
