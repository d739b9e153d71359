/**
 * @file
 * LayerGraph -> SARA IR lowering. Every compute node becomes one loop
 * nest; on-chip activation buffers connect producer and consumer nests
 * (the compiler FIFO-lowers or multibuffers them into inter-layer
 * streams). The emitted patterns are the ones the hand-built workloads
 * established:
 *
 *   matmul     dense dot-product nest (dl.cc emitDense): output
 *              features unrolled by the outer par, the K-dim reduction
 *              vectorized by the inner par.
 *   conv       zero-padded buffer + im2col + GEMM (dl.cc snet),
 *              generalized to any square kernel/pad.
 *   ew         one flat vectorized map loop; gelu is the sigmoid
 *              approximation x * sigmoid(1.702 x) (all ALU ops exist
 *              in the ISA; no erf needed).
 *   reduce     row loop (outer par) over a vectorized reduction of the
 *              last axis.
 *   softmax    three sibling reductions per row: RedMax, then
 *              exp-subtract-accumulate (RedAdd) into a scratch buffer,
 *              then the divide — the cross-loop reduction reads follow
 *              the kmeans argmin pattern (analytics.cc).
 *   attention  single-head: three projection GEMMs, a QK^T score nest
 *              scaled by 1/sqrt(D), row softmax, and the PV output
 *              GEMM.
 *
 * Weights are generated here (seeded, in topological node order, so a
 * graph lowers byte-identically across runs) and staged DRAM ->
 * on-chip immediately before their consuming nest; graph inputs are
 * staged up front and declared outputs stored back to DRAM at the end.
 */

#include <algorithm>
#include <cmath>

#include "graph/lower.h"
#include "support/logging.h"
#include "support/rng.h"

namespace sara::graph {

namespace {

using namespace ir;
using workloads::ParSplit;
using workloads::emitLoad;
using workloads::emitStore;
using workloads::randomData;
using workloads::splitPar;

/** Loop par factors never exceed the trip count. */
int
clampPar(int par, int64_t trip)
{
    return static_cast<int>(std::min<int64_t>(std::max(par, 1), trip));
}

struct Lowerer
{
    const LayerGraph &g;
    const LowerOptions &opt;
    workloads::Workload &w;
    Builder b;
    Rng rng;
    /** Node name -> its on-chip activation buffer. */
    std::map<std::string, TensorId> buf;

    Lowerer(const LayerGraph &graph, const LowerOptions &options,
            workloads::Workload &out)
        : g(graph), opt(options), w(out), b(out.program), rng(options.seed)
    {
    }

    Program &p() { return w.program; }

    int
    layerPar(const Node &n) const
    {
        auto it = opt.parOverride.find(n.name);
        if (it != opt.parOverride.end())
            return std::max(1, it->second);
        return n.par > 0 ? n.par : std::max(1, opt.par);
    }

    /** DRAM weight tensor + staged on-chip copy, data generated now
     *  (call order == topo order => deterministic artifacts). */
    TensorId
    stageWeights(const std::string &name, int64_t n, double lo, double hi,
                 int loadPar)
    {
        TensorId d = p().addTensor("d" + name, MemSpace::Dram, n);
        TensorId on = p().addTensor(name, MemSpace::OnChip, n);
        w.dramInputs[d.v] = randomData(rng, n, lo, hi);
        emitLoad(b, d, on, n, 0, loadPar, "ld_" + name);
        return on;
    }

    // --- Per-kind nest emitters -----------------------------------

    /** y[m, o] = sum_i wt[o*K + i] * x[m*K + i]; wt is [N, K]. */
    void
    emitMatmul(TensorId xb, TensorId wt, TensorId yb, int64_t M,
               int64_t K, int64_t N, ParSplit par, const std::string &nm)
    {
        CtrlId m{};
        bool hasM = M > 1;
        if (hasM)
            m = b.beginLoop(nm + "_m", 0, M);
        auto o = b.beginLoop(nm + "_o", 0, N, 1, clampPar(par.outer, N));
        auto i = b.beginLoop(nm + "_i", 0, K, 1, clampPar(par.inner, K));
        b.beginBlock(nm + "_mac");
        auto wv = b.read(wt, b.add(b.affine(b.iter(o), K, 0), b.iter(i)));
        OpId xaddr = hasM
                         ? b.add(b.affine(b.iter(m), K, 0), b.iter(i))
                         : b.iter(i);
        auto sum = b.reduce(OpKind::RedAdd, b.mul(wv, b.read(xb, xaddr)),
                            i);
        b.endBlock();
        b.endLoop();
        b.beginBlock(nm + "_wb");
        OpId yaddr = hasM
                         ? b.add(b.affine(b.iter(m), N, 0), b.iter(o))
                         : b.iter(o);
        b.write(yb, yaddr, sum);
        b.endBlock();
        b.endLoop();
        if (hasM)
            b.endLoop();
    }

    /** Flat elementwise map over n elements. */
    void
    emitEw(const Node &n, TensorId a, TensorId bb, TensorId yb,
           int64_t elems, int par, const std::string &nm)
    {
        auto l = b.beginLoop(nm, 0, elems, 1, clampPar(par, elems));
        b.beginBlock(nm + "_b");
        auto av = b.read(a, b.iter(l));
        OpId yv;
        switch (n.ewOp) {
          case EwOp::Add:
            yv = b.add(av, b.read(bb, b.iter(l)));
            break;
          case EwOp::Mul:
            yv = b.mul(av, b.read(bb, b.iter(l)));
            break;
          case EwOp::Relu:
            yv = b.unary(OpKind::Relu, av);
            break;
          case EwOp::Gelu:
            // x * sigmoid(1.702 x): the tanh-free GELU approximation.
            yv = b.mul(av, b.unary(OpKind::Sigmoid,
                                   b.mul(av, b.cst(1.702))));
            break;
        }
        b.write(yb, b.iter(l), yv);
        b.endBlock();
        b.endLoop();
    }

    /** y[p] = reduce_j x[p*L + j] over the last axis. */
    void
    emitReduce(RedOp op, TensorId xb, TensorId yb, int64_t P, int64_t L,
               ParSplit par, const std::string &nm)
    {
        OpKind kind = op == RedOp::Add ? OpKind::RedAdd : OpKind::RedMax;
        auto pl = b.beginLoop(nm + "_p", 0, P, 1, clampPar(par.outer, P));
        auto j = b.beginLoop(nm + "_j", 0, L, 1, clampPar(par.inner, L));
        b.beginBlock(nm + "_red");
        auto xv = b.read(xb, b.add(b.affine(b.iter(pl), L, 0), b.iter(j)));
        auto s = b.reduce(kind, xv, j);
        b.endBlock();
        b.endLoop();
        b.beginBlock(nm + "_wb");
        b.write(yb, b.iter(pl), s);
        b.endBlock();
        b.endLoop();
    }

    /** Row softmax over the last axis; eb is an elems-sized scratch
     *  holding the shifted exponentials between the two passes. */
    void
    emitSoftmax(TensorId xb, TensorId eb, TensorId yb, int64_t P,
                int64_t L, ParSplit par, const std::string &nm)
    {
        int inner = clampPar(par.inner, L);
        auto pl = b.beginLoop(nm + "_p", 0, P, 1, clampPar(par.outer, P));
        // Pass 1: row max (numerical stability).
        auto j1 = b.beginLoop(nm + "_max", 0, L, 1, inner);
        b.beginBlock(nm + "_max_b");
        auto mx = b.reduce(
            OpKind::RedMax,
            b.read(xb, b.add(b.affine(b.iter(pl), L, 0), b.iter(j1))),
            j1);
        b.endBlock();
        b.endLoop();
        // Pass 2: e = exp(x - max), stash to scratch, accumulate sum.
        auto j2 = b.beginLoop(nm + "_exp", 0, L, 1, inner);
        b.beginBlock(nm + "_exp_b");
        auto addr2 = b.add(b.affine(b.iter(pl), L, 0), b.iter(j2));
        auto e = b.unary(OpKind::Exp, b.sub(b.read(xb, addr2), mx));
        b.write(eb, addr2, e);
        auto sum = b.reduce(OpKind::RedAdd, e, j2);
        b.endBlock();
        b.endLoop();
        // Pass 3: normalize.
        auto j3 = b.beginLoop(nm + "_div", 0, L, 1, inner);
        b.beginBlock(nm + "_div_b");
        auto addr3 = b.add(b.affine(b.iter(pl), L, 0), b.iter(j3));
        b.write(yb, addr3, b.div(b.read(eb, addr3), sum));
        b.endBlock();
        b.endLoop();
        b.endLoop();
    }

    /** Padded-copy + im2col + GEMM convolution (snet generalized). */
    void
    emitConv(const Node &n, TensorId xb, TensorId yb, const Shape &in,
             ParSplit par, int loadPar)
    {
        const std::string &nm = n.name;
        const int64_t C = in.dims[0], H = in.dims[1], W = in.dims[2];
        const int64_t K = n.channels, k = n.kernel, pad = n.pad;
        const int64_t Hp = H + 2 * pad, Wp = W + 2 * pad;
        const int64_t Ho = Hp - k + 1, Wo = Wp - k + 1;
        const int64_t patch = C * k * k;

        TensorId wt = stageWeights("w_" + nm, K * patch, -0.3, 0.3,
                                   loadPar);

        TensorId pb = xb;
        if (pad > 0) {
            pb = p().addTensor(nm + "_pad", MemSpace::OnChip,
                               C * Hp * Wp);
            // Zero-fill, then copy the interior.
            auto z = b.beginLoop(nm + "_zero", 0, C * Hp * Wp, 1,
                                 clampPar(16, C * Hp * Wp));
            b.beginBlock(nm + "_zero_b");
            b.write(pb, b.iter(z), b.cst(0.0));
            b.endBlock();
            b.endLoop();

            auto c = b.beginLoop(nm + "_pc", 0, C);
            auto y = b.beginLoop(nm + "_py", 0, H);
            auto x = b.beginLoop(nm + "_px", 0, W, 1, clampPar(16, W));
            b.beginBlock(nm + "_pcopy");
            auto src = b.add(b.affine(b.iter(c), H * W, 0),
                             b.add(b.affine(b.iter(y), W, 0), b.iter(x)));
            auto dst = b.add(
                b.affine(b.iter(c), Hp * Wp, 0),
                b.add(b.affine(b.iter(y), Wp, pad * Wp),
                      b.affine(b.iter(x), 1, pad)));
            b.write(pb, dst, b.read(xb, src));
            b.endBlock();
            b.endLoop();
            b.endLoop();
            b.endLoop();
        }

        // im2col: colb[(y*Wo + x)*patch + c*k*k + dy*k + dx] =
        //         pb[c*Hp*Wp + (y+dy)*Wp + (x+dx)]
        TensorId colb = p().addTensor(nm + "_col", MemSpace::OnChip,
                                      Ho * Wo * patch);
        {
            auto y = b.beginLoop(nm + "_cy", 0, Ho);
            auto x = b.beginLoop(nm + "_cx", 0, Wo);
            auto c = b.beginLoop(nm + "_cc", 0, C);
            auto dy = b.beginLoop(nm + "_cdy", 0, k);
            auto dx = b.beginLoop(nm + "_cdx", 0, k, 1,
                                  clampPar(static_cast<int>(std::min<int64_t>(k, 16)), k));
            b.beginBlock(nm + "_col_b");
            auto src = b.add(
                b.add(b.affine(b.iter(c), Hp * Wp, 0),
                      b.mul(b.add(b.iter(y), b.iter(dy)),
                            b.cst(double(Wp)))),
                b.add(b.iter(x), b.iter(dx)));
            auto dst = b.add(
                b.add(b.mul(b.add(b.affine(b.iter(y), Wo, 0), b.iter(x)),
                            b.cst(double(patch))),
                      b.add(b.affine(b.iter(c), k * k, 0),
                            b.affine(b.iter(dy), k, 0))),
                b.iter(dx));
            b.write(colb, dst, b.read(pb, src));
            b.endBlock();
            b.endLoop();
            b.endLoop();
            b.endLoop();
            b.endLoop();
            b.endLoop();
        }

        // GEMM: y[ko, pp] = sum_q wt[ko*patch + q] * colb[pp*patch + q].
        {
            auto ko = b.beginLoop(nm + "_gk", 0, K, 1,
                                  clampPar(par.outer, K));
            auto pp = b.beginLoop(nm + "_gp", 0, Ho * Wo);
            auto q = b.beginLoop(nm + "_gq", 0, patch, 1,
                                 clampPar(par.inner, patch));
            b.beginBlock(nm + "_gemm");
            auto wv = b.read(wt, b.add(b.affine(b.iter(ko), patch, 0),
                                       b.iter(q)));
            auto cv = b.read(colb, b.add(b.affine(b.iter(pp), patch, 0),
                                         b.iter(q)));
            auto acc = b.reduce(OpKind::RedAdd, b.mul(wv, cv), q);
            b.endBlock();
            b.endLoop();
            b.beginBlock(nm + "_gwb");
            b.write(yb, b.add(b.affine(b.iter(ko), Ho * Wo, 0),
                              b.iter(pp)),
                    acc);
            b.endBlock();
            b.endLoop();
            b.endLoop();
        }
    }

    /** Single-head self-attention over x [T, D]. */
    void
    emitAttention(const Node &n, TensorId xb, TensorId yb,
                  const Shape &in, ParSplit par, int loadPar)
    {
        const std::string &nm = n.name;
        const int64_t T = in.dims[0], D = in.dims[1];

        TensorId wq = stageWeights("wq_" + nm, D * D, -0.3, 0.3, loadPar);
        TensorId wk = stageWeights("wk_" + nm, D * D, -0.3, 0.3, loadPar);
        TensorId wv = stageWeights("wv_" + nm, D * D, -0.3, 0.3, loadPar);

        TensorId qb = p().addTensor(nm + "_q", MemSpace::OnChip, T * D);
        TensorId kb = p().addTensor(nm + "_k", MemSpace::OnChip, T * D);
        TensorId vb = p().addTensor(nm + "_v", MemSpace::OnChip, T * D);
        TensorId sb = p().addTensor(nm + "_s", MemSpace::OnChip, T * T);
        TensorId eb = p().addTensor(nm + "_e", MemSpace::OnChip, T * T);
        TensorId pb = p().addTensor(nm + "_p", MemSpace::OnChip, T * T);

        emitMatmul(xb, wq, qb, T, D, D, par, nm + "_q");
        emitMatmul(xb, wk, kb, T, D, D, par, nm + "_k");
        emitMatmul(xb, wv, vb, T, D, D, par, nm + "_v");

        // Scores: sb[t, u] = (q[t] . k[u]) / sqrt(D).
        const double invSqrtD = 1.0 / std::sqrt(double(D));
        {
            auto t = b.beginLoop(nm + "_st", 0, T, 1,
                                 clampPar(par.outer, T));
            auto u = b.beginLoop(nm + "_su", 0, T);
            auto d = b.beginLoop(nm + "_sd", 0, D, 1,
                                 clampPar(par.inner, D));
            b.beginBlock(nm + "_dot");
            auto qv = b.read(qb, b.add(b.affine(b.iter(t), D, 0),
                                       b.iter(d)));
            auto kv = b.read(kb, b.add(b.affine(b.iter(u), D, 0),
                                       b.iter(d)));
            auto dot = b.reduce(OpKind::RedAdd, b.mul(qv, kv), d);
            b.endBlock();
            b.endLoop();
            b.beginBlock(nm + "_scale");
            b.write(sb, b.add(b.affine(b.iter(t), T, 0), b.iter(u)),
                    b.mul(dot, b.cst(invSqrtD)));
            b.endBlock();
            b.endLoop();
            b.endLoop();
        }

        emitSoftmax(sb, eb, pb, T, T, par, nm + "_sm");

        // Output: y[t, d] = sum_u p[t, u] * v[u, d].
        {
            auto t = b.beginLoop(nm + "_ot", 0, T, 1,
                                 clampPar(par.outer, T));
            auto d = b.beginLoop(nm + "_od", 0, D);
            auto u = b.beginLoop(nm + "_ou", 0, T, 1,
                                 clampPar(par.inner, T));
            b.beginBlock(nm + "_omac");
            auto pv = b.read(pb, b.add(b.affine(b.iter(t), T, 0),
                                       b.iter(u)));
            auto vv = b.read(vb, b.add(b.affine(b.iter(u), D, 0),
                                       b.iter(d)));
            auto acc = b.reduce(OpKind::RedAdd, b.mul(pv, vv), u);
            b.endBlock();
            b.endLoop();
            b.beginBlock(nm + "_owb");
            b.write(yb, b.add(b.affine(b.iter(t), D, 0), b.iter(d)),
                    acc);
            b.endBlock();
            b.endLoop();
            b.endLoop();
        }
    }
};

/** Nominal FLOP count of one lowered layer. */
double
layerFlops(const Node &n, const Shape &in, const Shape &out)
{
    switch (n.kind) {
      case NodeKind::Input:
        return 0.0;
      case NodeKind::Matmul: {
        double m = in.rank() == 2 ? double(in.dims[0]) : 1.0;
        return 2.0 * m * double(in.dims.back()) * double(n.features);
      }
      case NodeKind::Conv: {
        double patch = double(in.dims[0]) * n.kernel * n.kernel;
        return 2.0 * double(out.elems()) * patch;
      }
      case NodeKind::Elementwise:
        return double(out.elems()) *
               (n.ewOp == EwOp::Gelu ? 3.0 : 1.0);
      case NodeKind::Reduce:
        return double(in.elems());
      case NodeKind::Softmax:
        return 4.0 * double(in.elems());
      case NodeKind::Attention: {
        double t = double(in.dims[0]), d = double(in.dims[1]);
        return 6.0 * t * d * d   // Q/K/V projections.
               + 2.0 * t * t * d // Scores.
               + 4.0 * t * t     // Softmax.
               + 2.0 * t * t * d; // P x V.
      }
    }
    return 0.0;
}

} // namespace

LowerResult
lowerGraph(const LayerGraph &gIn, const LowerOptions &opt)
{
    // Work on a copy: scaling and par overrides are per-lowering.
    LayerGraph g = gIn;
    for (Node &n : g.nodes)
        if (n.kind == NodeKind::Input && !n.shape.dims.empty())
            n.shape.dims[n.shape.dims.size() == 3 ? 1 : 0] *=
                std::max(1, opt.scale);
    for (const auto &[name, par] : opt.parOverride) {
        if (!g.find(name))
            fatal("graph '", g.name, "': par override for unknown node '",
                  name, "'");
        if (par <= 0)
            fatal("graph '", g.name, "': par override for '", name,
                  "' must be positive");
    }
    std::vector<size_t> order = validate(g);

    LowerResult r;
    r.workload.name = g.name;
    r.workload.computeBound = true;
    Lowerer lw(g, opt, r.workload);
    const int loadPar =
        std::max(16, std::min(std::max(1, opt.par), 32));

    // On-chip activation buffer per node, declared up front so consumer
    // nests can reference producers regardless of emission order.
    for (const Node &n : g.nodes)
        lw.buf[n.name] = lw.p().addTensor(n.name, MemSpace::OnChip,
                                          n.shape.elems());

    for (size_t idx : order) {
        const Node &n = g.nodes[idx];
        if (n.kind == NodeKind::Input) {
            int64_t elems = n.shape.elems();
            TensorId d = lw.p().addTensor("d_" + n.name, MemSpace::Dram,
                                          elems);
            r.workload.dramInputs[d.v] =
                randomData(lw.rng, elems, -1.0, 1.0);
            emitLoad(lw.b, d, lw.buf[n.name], elems, 0, loadPar,
                     "ld_" + n.name);
            continue;
        }

        const Shape &in0 = g.find(n.inputs[0])->shape;
        int par = lw.layerPar(n);
        ParSplit split = splitPar(par);
        TensorId xb = lw.buf[n.inputs[0]];
        TensorId yb = lw.buf[n.name];

        switch (n.kind) {
          case NodeKind::Input:
            break;
          case NodeKind::Matmul: {
            int64_t M = in0.rank() == 2 ? in0.dims[0] : 1;
            int64_t K = in0.dims.back();
            TensorId wt = lw.stageWeights("w_" + n.name, n.features * K,
                                          -0.5, 0.5, loadPar);
            lw.emitMatmul(xb, wt, yb, M, K, n.features, split, n.name);
            break;
          }
          case NodeKind::Conv:
            lw.emitConv(n, xb, yb, in0, split, loadPar);
            break;
          case NodeKind::Elementwise: {
            TensorId bb = n.inputs.size() > 1 ? lw.buf[n.inputs[1]]
                                              : TensorId{};
            lw.emitEw(n, xb, bb, yb, n.shape.elems(), par, n.name);
            break;
          }
          case NodeKind::Reduce: {
            int64_t L = in0.dims.back();
            lw.emitReduce(n.redOp, xb, yb, in0.elems() / L, L, split,
                          n.name);
            break;
          }
          case NodeKind::Softmax: {
            int64_t L = in0.dims.back();
            TensorId eb = lw.p().addTensor(n.name + "_e",
                                           MemSpace::OnChip,
                                           in0.elems());
            lw.emitSoftmax(xb, eb, yb, in0.elems() / L, L, split,
                           n.name);
            break;
          }
          case NodeKind::Attention:
            lw.emitAttention(n, xb, yb, in0, split, loadPar);
            break;
        }

        r.workload.nominalFlops += layerFlops(n, in0, n.shape);
        LoweredLayer ll;
        ll.name = n.name;
        ll.kind = nodeKindName(n.kind);
        ll.in = in0;
        ll.out = n.shape;
        ll.par = par;
        ll.split = split;
        r.layers.push_back(std::move(ll));
    }

    // Declared outputs go back to DRAM.
    for (const std::string &out : g.outputs) {
        const Node *n = g.find(out);
        int64_t elems = n->shape.elems();
        TensorId d = lw.p().addTensor("dout_" + out, MemSpace::Dram,
                                      elems);
        emitStore(lw.b, lw.buf[out], d, elems, 0, loadPar, "st_" + out);
        r.workload.elements += double(elems);
    }
    return r;
}

} // namespace sara::graph
