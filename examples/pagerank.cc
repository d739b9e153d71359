/**
 * @file
 * PageRank from scratch against the public API: demonstrates the
 * data-dependent control features of §III-A2 — per-vertex dynamic
 * loop bounds read from the CSR offsets, indirect gathers through the
 * neighbor list, and a do-while convergence loop that terminates when
 * the rank delta drops below a threshold (the paper's iterative-
 * convergence pattern).
 *
 *   ./build/examples/pagerank [vertices]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "compiler/driver.h"
#include "ir/builder.h"
#include "sim/simulator.h"
#include "support/rng.h"

using namespace sara;
using namespace sara::ir;

int
main(int argc, char **argv)
{
    const int64_t V = argc > 1 ? std::atoll(argv[1]) : 128;
    Rng rng(7);

    // Synthetic CSR graph.
    std::vector<double> offs(V + 1), nbrs, invDeg(V, 0.0);
    for (int64_t v = 0; v < V; ++v) {
        offs[v] = static_cast<double>(nbrs.size());
        int64_t deg = rng.intIn(1, 8);
        for (int64_t e = 0; e < deg; ++e)
            nbrs.push_back(static_cast<double>(rng.index(V)));
    }
    offs[V] = static_cast<double>(nbrs.size());
    std::vector<double> outDeg(V, 0.0);
    for (double u : nbrs)
        outDeg[static_cast<int64_t>(u)] += 1.0;
    for (int64_t v = 0; v < V; ++v)
        invDeg[v] = outDeg[v] > 0 ? 1.0 / outDeg[v] : 0.0;
    const auto E = static_cast<int64_t>(nbrs.size());

    Program p;
    Builder b(p);
    auto dOffs = p.addTensor("offs", MemSpace::Dram, V + 1);
    auto dNbr = p.addTensor("nbr", MemSpace::Dram, E);
    auto dInv = p.addTensor("inv", MemSpace::Dram, V);
    auto dRank = p.addTensor("rank", MemSpace::Dram, V);

    auto offsb = p.addTensor("offsb", MemSpace::OnChip, V + 1);
    auto nbrb = p.addTensor("nbrb", MemSpace::OnChip, E);
    auto invb = p.addTensor("invb", MemSpace::OnChip, V);
    auto rk = p.addTensor("rk", MemSpace::OnChip, V);
    auto rkNew = p.addTensor("rkNew", MemSpace::OnChip, V);

    auto emitCopy = [&](TensorId src, TensorId dst, int64_t n,
                        const std::string &name) {
        auto l = b.beginLoop(name, 0, n, 1, 16);
        b.beginBlock(name + "_b");
        b.write(dst, b.iter(l), b.read(src, b.iter(l)));
        b.endBlock();
        b.endLoop();
    };
    emitCopy(dOffs, offsb, V + 1, "ldo");
    emitCopy(dNbr, nbrb, E, "ldn");
    emitCopy(dInv, invb, V, "ldi");
    {
        auto l = b.beginLoop("init", 0, V, 1, 16);
        b.beginBlock("init_b");
        b.write(rk, b.iter(l), b.cst(1.0 / V));
        b.endBlock();
        b.endLoop();
    }

    // Do-while convergence loop: iterate until the total |delta|
    // drops under the threshold (data-dependent termination — the
    // accelerator runs autonomously with no host intervention).
    b.beginWhile("converge");
    {
        auto v = b.beginLoop("v", 0, V, 1, /*par=*/4);
        b.beginBlock("bounds");
        auto start = b.read(offsb, b.iter(v));
        auto end = b.read(offsb, b.add(b.iter(v), b.cst(1.0)));
        b.endBlock();
        // Dynamic inner bounds (§III-A2a): min and max stream in.
        auto e = b.beginLoopDyn("e", Bound::dynamic(start),
                                Bound::dynamic(end), Bound(1));
        b.beginBlock("gather");
        auto nid = b.read(nbrb, b.iter(e)); // Indirect gather.
        auto contrib = b.mul(b.read(rk, nid), b.read(invb, nid));
        auto sum = b.reduce(OpKind::RedAdd, contrib, e);
        b.endBlock();
        b.endLoop();
        b.beginBlock("update");
        auto newRank =
            b.add(b.cst(0.15 / V), b.mul(b.cst(0.85), sum));
        b.write(rkNew, b.iter(v), newRank);
        auto delta =
            b.unary(OpKind::Abs, b.sub(newRank, b.read(rk, b.iter(v))));
        auto total = b.reduce(OpKind::RedAdd, delta, v);
        b.endBlock();
        b.endLoop();

        // Publish: rk <- rkNew, then decide whether to iterate again.
        auto c = b.beginLoop("pub", 0, V, 1, 16);
        b.beginBlock("pub_b");
        b.write(rk, b.iter(c), b.read(rkNew, b.iter(c)));
        b.endBlock();
        b.endLoop();
        b.beginBlock("decide");
        auto cont = b.binary(OpKind::CmpGt, total, b.cst(1e-3));
        b.endBlock();
        b.endWhile(cont);
    }
    emitCopy(rk, dRank, V, "str");

    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::paper();
    auto compiled = compiler::compile(p, opt);

    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             dram::DramSpec::hbm2());
    simulator.setDramTensor(dOffs, offs);
    simulator.setDramTensor(dNbr, nbrs);
    simulator.setDramTensor(dInv, invDeg);
    auto r = simulator.run();

    double total = 0.0;
    for (int64_t v = 0; v < V; ++v)
        total += r.tensors[dRank.index()][v];
    std::printf("pagerank over %lld vertices / %lld edges: %llu cycles "
                "(%.1f us @1GHz)\n",
                static_cast<long long>(V), static_cast<long long>(E),
                static_cast<unsigned long long>(r.cycles),
                r.cycles / 1e3);
    std::printf("rank mass = %.6f (should be ~1.0), graph: %s\n", total,
                compiled.lowering.graph.summary().c_str());
    return total > 0.9 && total < 1.1 ? 0 : 1;
}
