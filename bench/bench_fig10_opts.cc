/**
 * @file
 * Fig. 10 reproduction: effectiveness of individual compiler
 * optimizations. For each app, one optimization at a time is disabled
 * and the runtime / resource deltas vs. the all-optimizations build
 * are reported (the paper plots normalized runtime and resource).
 */

#include "bench/bench_common.h"

using namespace sara;
using namespace sara::bench;

namespace {

struct Knob
{
    const char *name;
    void (*disable)(compiler::CompilerOptions &);
};

const Knob kKnobs[] = {
    {"msr", [](compiler::CompilerOptions &o) { o.enableMsr = false; }},
    {"rtelm",
     [](compiler::CompilerOptions &o) { o.enableRtelm = false; }},
    {"retime",
     [](compiler::CompilerOptions &o) { o.enableRetime = false; }},
    {"retime-m",
     [](compiler::CompilerOptions &o) { o.enableRetimeM = false; }},
    {"xbar-elm",
     [](compiler::CompilerOptions &o) { o.enableXbarElm = false; }},
    {"multibuffer",
     [](compiler::CompilerOptions &o) { o.enableMultibuffer = false; }},
    {"ctrl-reduction",
     [](compiler::CompilerOptions &o) {
         o.enableControlReduction = false;
     }},
    {"duplication",
     [](compiler::CompilerOptions &o) { o.enableDuplication = false; }},
};

struct Point10
{
    runtime::RunOutcome r;
    uint64_t nocCycles = 0;
};

Point10
run(const BenchContext &ctx, const workloads::Workload &w,
    const compiler::CompilerOptions &opt)
{
    runtime::RunConfig rc;
    rc.compiler = opt;
    ctx.configure(rc);
    Point10 pt;
    pt.r = runtime::runWorkload(w, rc);
    pt.nocCycles = nocCycles(w, rc, pt.r);
    return pt;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchContext ctx = BenchContext::parse(argc, argv);
    banner("Fig. 10: per-optimization effectiveness "
           "(values normalized to the all-optimizations build; "
           "runtime > 1 means disabling the optimization slows the "
           "app down, resource > 1 means it saves resources)");

    const std::vector<std::string> apps = {"mlp", "lstm", "bs", "gda",
                                           "ms",  "sort", "pr", "rf"};
    constexpr size_t kRuns = 1 + std::size(kKnobs); // ref + each knob.

    // All (app, knob) sweep points run in parallel; the reference run
    // each app normalizes against is just point 0 of its stripe.
    std::vector<workloads::Workload> ws(apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        workloads::WorkloadConfig cfg;
        cfg.par = 64;
        if (apps[a] == "bs" || apps[a] == "ms")
            cfg.scale = 4;
        ws[a] = workloads::buildByName(apps[a], cfg);
    }
    std::vector<Point10> results(apps.size() * kRuns);
    ctx.forEach(results.size(), "fig10", [&](size_t i) {
        compiler::CompilerOptions opt;
        opt.spec = arch::PlasticineSpec::paper();
        opt.pnrIterations = 2000;
        size_t k = i % kRuns;
        if (k > 0)
            kKnobs[k - 1].disable(opt);
        results[i] = run(ctx, ws[i / kRuns], opt);
    });

    BenchJson out("fig10");
    for (size_t a = 0; a < apps.size(); ++a) {
        const std::string &name = apps[a];
        const auto &ref = results[a * kRuns].r;

        Table t({"disabled opt", "runtime x", "resource x", "tokens",
                 "cycles", "cycles (noc)"});
        t.addRow({"(none)", "1.00", "1.00",
                  std::to_string(ref.compiled->lowering.stats.tokens),
                  std::to_string(ref.sim.cycles),
                  std::to_string(results[a * kRuns].nocCycles)});
        out.beginRow()
            .kv("app", name)
            .kv("disabled", "none")
            .kv("runtime_x", 1.0)
            .kv("resource_x", 1.0)
            .kv("tokens", ref.compiled->lowering.stats.tokens)
            .kv("cycles", ref.sim.cycles)
            .kv("noc_cycles", results[a * kRuns].nocCycles)
            .endRow();
        for (size_t k = 0; k < std::size(kKnobs); ++k) {
            const auto &knob = kKnobs[k];
            const auto &r = results[a * kRuns + 1 + k].r;
            uint64_t noc = results[a * kRuns + 1 + k].nocCycles;
            double rt = static_cast<double>(r.sim.cycles) /
                        static_cast<double>(ref.sim.cycles);
            double res =
                static_cast<double>(r.compiled->resources.total()) /
                std::max(1, ref.compiled->resources.total());
            t.addRow({knob.name, Table::fmt(rt), Table::fmt(res),
                      std::to_string(r.compiled->lowering.stats.tokens),
                      std::to_string(r.sim.cycles),
                      std::to_string(noc)});
            out.beginRow()
                .kv("app", name)
                .kv("disabled", knob.name)
                .kv("runtime_x", rt)
                .kv("resource_x", res)
                .kv("tokens", r.compiled->lowering.stats.tokens)
                .kv("cycles", r.sim.cycles)
                .kv("noc_cycles", noc)
                .endRow();
        }
        std::printf("-- %s --\n%s", name.c_str(), t.str().c_str());
    }
    out.write();
    ctx.reportCache();
    return 0;
}
