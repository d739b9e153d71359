#include "artifact/artifact.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <unistd.h>

#include "support/hash.h"
#include "support/logging.h"

namespace sara::artifact {

using namespace ir;
using namespace dfg;

namespace {

constexpr char kMagic[8] = {'S', 'A', 'R', 'A', 'A', 'R', 'T', '1'};

void
encodeBound(Encoder &e, const Bound &b)
{
    e.boolean(b.isConst);
    e.i64(b.cval);
    e.i32(b.op.v);
}

Bound
decodeBound(Decoder &d)
{
    Bound b;
    b.isConst = d.boolean();
    b.cval = d.i64();
    b.op = OpId(d.i32());
    return b;
}

void
encodeIdVec(Encoder &e, const std::vector<CtrlId> &v)
{
    e.u32(static_cast<uint32_t>(v.size()));
    for (CtrlId id : v)
        e.i32(id.v);
}

std::vector<CtrlId>
decodeCtrlIdVec(Decoder &d)
{
    size_t n = d.count(4);
    std::vector<CtrlId> v;
    v.reserve(n);
    for (size_t i = 0; i < n; ++i)
        v.push_back(CtrlId(d.i32()));
    return v;
}

} // namespace

// ---------------------------------------------------------------------------
// ir::Program
// ---------------------------------------------------------------------------

void
encodeProgram(Encoder &e, const Program &p)
{
    e.u32(static_cast<uint32_t>(p.numTensors()));
    for (size_t i = 0; i < p.numTensors(); ++i) {
        const Tensor &t = p.tensor(TensorId(i));
        e.str(t.name);
        e.u8(static_cast<uint8_t>(t.space));
        e.i64(t.size);
    }

    e.u32(static_cast<uint32_t>(p.numCtrls()));
    for (size_t i = 0; i < p.numCtrls(); ++i) {
        const CtrlNode &c = p.ctrl(CtrlId(i));
        e.u8(static_cast<uint8_t>(c.kind));
        e.i32(c.parent.v);
        e.str(c.name);
        encodeIdVec(e, c.children);
        encodeIdVec(e, c.elseChildren);
        encodeBound(e, c.min);
        encodeBound(e, c.step);
        encodeBound(e, c.max);
        e.i32(c.par);
        e.i32(c.vec);
        e.i32(c.cond.v);
        e.u32(static_cast<uint32_t>(c.ops.size()));
        for (OpId o : c.ops)
            e.i32(o.v);
    }

    e.u32(static_cast<uint32_t>(p.numOps()));
    for (size_t i = 0; i < p.numOps(); ++i) {
        const Op &o = p.op(OpId(i));
        e.u8(static_cast<uint8_t>(o.kind));
        e.i32(o.block.v);
        e.u32(static_cast<uint32_t>(o.operands.size()));
        for (OpId operand : o.operands)
            e.i32(operand.v);
        e.f64(o.cval);
        e.i32(o.ctrl.v);
        e.i32(o.tensor.v);
    }
}

Program
decodeProgram(Decoder &d)
{
    Program p;

    size_t numTensors = d.count(13);
    for (size_t i = 0; i < numTensors; ++i) {
        std::string name = d.str();
        auto space = static_cast<MemSpace>(d.u8());
        if (space != MemSpace::OnChip && space != MemSpace::Dram)
            throw ArtifactError("artifact: bad tensor space");
        int64_t size = d.i64();
        if (size <= 0)
            throw ArtifactError("artifact: bad tensor size");
        p.addTensor(name, space, size);
    }

    size_t numCtrls = d.count(4);
    if (numCtrls == 0)
        throw ArtifactError("artifact: program without a root");
    // Pass 1: create the nodes (the constructor made the root; child
    // nodes always have ids greater than their parent's, so creation
    // in id order keeps addCtrl's parent check satisfied).
    struct RawCtrl
    {
        std::vector<CtrlId> children, elseChildren;
        Bound min, step, max;
        int par, vec;
        OpId cond;
        std::vector<OpId> ops;
    };
    std::vector<RawCtrl> raw(numCtrls);
    for (size_t i = 0; i < numCtrls; ++i) {
        auto kind = static_cast<CtrlKind>(d.u8());
        if (kind > CtrlKind::Block)
            throw ArtifactError("artifact: bad ctrl kind");
        CtrlId parent{d.i32()};
        std::string name = d.str();
        if (i == 0) {
            p.ctrl(p.root()).kind = kind;
            p.ctrl(p.root()).name = name;
        } else {
            if (!parent.valid() ||
                parent.index() >= i) // Parents precede children.
                throw ArtifactError("artifact: bad ctrl parent");
            p.addCtrl(kind, parent, name);
        }
        RawCtrl &rc = raw[i];
        rc.children = decodeCtrlIdVec(d);
        rc.elseChildren = decodeCtrlIdVec(d);
        rc.min = decodeBound(d);
        rc.step = decodeBound(d);
        rc.max = decodeBound(d);
        rc.par = d.i32();
        rc.vec = d.i32();
        rc.cond = OpId(d.i32());
        size_t nops = d.count(4);
        rc.ops.reserve(nops);
        for (size_t o = 0; o < nops; ++o)
            rc.ops.push_back(OpId(d.i32()));
    }

    size_t numOps = d.count(25);
    for (size_t i = 0; i < numOps; ++i) {
        auto kind = static_cast<OpKind>(d.u8());
        if (kind > OpKind::RedMul)
            throw ArtifactError("artifact: bad op kind");
        CtrlId block{d.i32()};
        if (!block.valid() || block.index() >= numCtrls ||
            !p.ctrl(block).isLeaf())
            throw ArtifactError("artifact: op outside a hyperblock");
        size_t noperands = d.count(4);
        if (static_cast<int>(noperands) != opArity(kind))
            throw ArtifactError("artifact: op arity mismatch");
        std::vector<OpId> operands;
        operands.reserve(noperands);
        for (size_t o = 0; o < noperands; ++o)
            operands.push_back(OpId(d.i32()));
        OpId id = p.addOp(kind, block, std::move(operands));
        Op &op = p.op(id);
        op.cval = d.f64();
        op.ctrl = CtrlId(d.i32());
        op.tensor = TensorId(d.i32());
    }

    // Pass 2: restore the exact recorded tree shape. addCtrl/addOp
    // appended to children/ops in id order; the recorded lists carry
    // the true program order (clones and combine blocks are spliced,
    // else-clauses live in elseChildren).
    for (size_t i = 0; i < numCtrls; ++i) {
        CtrlNode &c = p.ctrl(CtrlId(i));
        RawCtrl &rc = raw[i];
        for (CtrlId child : rc.children)
            if (!child.valid() || child.index() >= numCtrls)
                throw ArtifactError("artifact: bad child id");
        for (CtrlId child : rc.elseChildren)
            if (!child.valid() || child.index() >= numCtrls)
                throw ArtifactError("artifact: bad else-child id");
        for (OpId o : rc.ops)
            if (!o.valid() || o.index() >= numOps)
                throw ArtifactError("artifact: bad block op id");
        c.children = std::move(rc.children);
        c.elseChildren = std::move(rc.elseChildren);
        c.min = rc.min;
        c.step = rc.step;
        c.max = rc.max;
        c.par = rc.par;
        c.vec = rc.vec;
        c.cond = rc.cond;
        c.ops = std::move(rc.ops);
    }
    return p;
}

// ---------------------------------------------------------------------------
// dfg::Vudfg
// ---------------------------------------------------------------------------

namespace {

void
encodeCounter(Encoder &e, const Counter &c)
{
    e.i64(c.min);
    e.i64(c.step);
    e.i64(c.max);
    e.i32(c.minInput);
    e.i32(c.stepInput);
    e.i32(c.maxInput);
    e.boolean(c.isWhile);
    e.i32(c.whileCondInput);
    e.i32(c.vec);
}

Counter
decodeCounter(Decoder &d)
{
    Counter c;
    c.min = d.i64();
    c.step = d.i64();
    c.max = d.i64();
    c.minInput = d.i32();
    c.stepInput = d.i32();
    c.maxInput = d.i32();
    c.isWhile = d.boolean();
    c.whileCondInput = d.i32();
    c.vec = d.i32();
    return c;
}

} // namespace

void
encodeGraph(Encoder &e, const Vudfg &g)
{
    e.u32(static_cast<uint32_t>(g.numUnits()));
    for (const VUnit &u : g.units()) {
        e.str(u.name);
        e.u8(static_cast<uint8_t>(u.kind));
        e.u32(static_cast<uint32_t>(u.counters.size()));
        for (const Counter &c : u.counters)
            encodeCounter(e, c);
        e.u32(static_cast<uint32_t>(u.lops.size()));
        for (const LOp &l : u.lops) {
            e.u8(static_cast<uint8_t>(l.kind));
            e.i32(l.a);
            e.i32(l.b);
            e.i32(l.c);
            e.f64(l.cval);
            e.i32(l.counter);
            e.i32(l.input);
        }
        e.u32(static_cast<uint32_t>(u.inputs.size()));
        for (const InputBinding &b : u.inputs) {
            e.i32(b.stream.v);
            e.u8(static_cast<uint8_t>(b.role));
            e.i32(b.level);
            e.boolean(b.expectTrue);
        }
        e.u32(static_cast<uint32_t>(u.outputs.size()));
        for (const OutputBinding &b : u.outputs) {
            e.i32(b.stream.v);
            e.i32(b.level);
            e.i32(b.lop);
        }
        e.i32(u.tensor.v);
        e.i64(u.bufferSize);
        e.i32(u.bufferDepth);
        e.i32(u.shardIndex);
        e.i32(u.numShards);
        e.i64(u.shardInterleave);
        e.i32(u.memUnit.v);
        e.u8(static_cast<uint8_t>(u.dir));
        e.i32(u.addrLop);
        e.i32(u.addrInput);
        e.i32(u.dataInput);
        e.i32(u.respOutput);
        e.boolean(u.dynamicBank);
        e.i32(u.rotateLevel);
        e.u8(static_cast<uint8_t>(u.assigned));
        e.i32(u.placeX);
        e.i32(u.placeY);
        e.i32(u.mergedInto);
    }

    e.u32(static_cast<uint32_t>(g.numStreams()));
    for (const Stream &s : g.streams()) {
        e.str(s.name);
        e.u8(static_cast<uint8_t>(s.kind));
        e.i32(s.src.v);
        e.i32(s.dst.v);
        e.i32(s.pushLevel);
        e.i32(s.popLevel);
        e.i32(s.initTokens);
        e.i32(s.vec);
        e.i32(s.depth);
        e.i32(s.latency);
        e.i32(s.srcLop);
        e.u32(static_cast<uint32_t>(s.route.size()));
        for (const RouteLink &rl : s.route) {
            e.i32(rl.x);
            e.i32(rl.y);
            e.u8(static_cast<uint8_t>(rl.dir));
        }
    }
}

Vudfg
decodeGraph(Decoder &d)
{
    Vudfg g;
    size_t numUnits = d.count(4);
    for (size_t i = 0; i < numUnits; ++i) {
        std::string name = d.str();
        auto kind = static_cast<VuKind>(d.u8());
        if (kind > VuKind::Ag)
            throw ArtifactError("artifact: bad unit kind");
        VuId id = g.addUnit(kind, name);
        VUnit &u = g.unit(id);
        size_t nc = d.count(8);
        u.counters.reserve(nc);
        for (size_t c = 0; c < nc; ++c)
            u.counters.push_back(decodeCounter(d));
        size_t nl = d.count(25);
        u.lops.reserve(nl);
        for (size_t l = 0; l < nl; ++l) {
            LOp lop;
            lop.kind = static_cast<OpKind>(d.u8());
            if (lop.kind > OpKind::RedMul)
                throw ArtifactError("artifact: bad lop kind");
            lop.a = d.i32();
            lop.b = d.i32();
            lop.c = d.i32();
            lop.cval = d.f64();
            lop.counter = d.i32();
            lop.input = d.i32();
            u.lops.push_back(lop);
        }
        size_t ni = d.count(13);
        u.inputs.reserve(ni);
        for (size_t b = 0; b < ni; ++b) {
            InputBinding ib;
            ib.stream = StreamId(d.i32());
            ib.role = static_cast<InputRole>(d.u8());
            if (ib.role > InputRole::Gate)
                throw ArtifactError("artifact: bad input role");
            ib.level = d.i32();
            ib.expectTrue = d.boolean();
            u.inputs.push_back(ib);
        }
        size_t no = d.count(12);
        u.outputs.reserve(no);
        for (size_t b = 0; b < no; ++b) {
            OutputBinding ob;
            ob.stream = StreamId(d.i32());
            ob.level = d.i32();
            ob.lop = d.i32();
            u.outputs.push_back(ob);
        }
        u.tensor = TensorId(d.i32());
        u.bufferSize = d.i64();
        u.bufferDepth = d.i32();
        u.shardIndex = d.i32();
        u.numShards = d.i32();
        u.shardInterleave = d.i64();
        u.memUnit = VuId(d.i32());
        u.dir = static_cast<AccessDir>(d.u8());
        u.addrLop = d.i32();
        u.addrInput = d.i32();
        u.dataInput = d.i32();
        u.respOutput = d.i32();
        u.dynamicBank = d.boolean();
        u.rotateLevel = d.i32();
        u.assigned = static_cast<PuType>(d.u8());
        if (u.assigned > PuType::None)
            throw ArtifactError("artifact: bad PU assignment");
        u.placeX = d.i32();
        u.placeY = d.i32();
        u.mergedInto = d.i32();
    }

    size_t numStreams = d.count(25);
    for (size_t i = 0; i < numStreams; ++i) {
        std::string name = d.str();
        auto kind = static_cast<StreamKind>(d.u8());
        if (kind > StreamKind::Token)
            throw ArtifactError("artifact: bad stream kind");
        VuId src{d.i32()}, dst{d.i32()};
        if (!src.valid() || src.index() >= numUnits || !dst.valid() ||
            dst.index() >= numUnits)
            throw ArtifactError("artifact: stream endpoint out of range");
        StreamId id = g.addStream(kind, src, dst, name);
        Stream &s = g.stream(id);
        s.pushLevel = d.i32();
        s.popLevel = d.i32();
        s.initTokens = d.i32();
        s.vec = d.i32();
        s.depth = d.i32();
        s.latency = d.i32();
        s.srcLop = d.i32();
        size_t hops = d.count(9);
        s.route.reserve(hops);
        for (size_t h = 0; h < hops; ++h) {
            RouteLink rl;
            rl.x = static_cast<int16_t>(d.i32());
            rl.y = static_cast<int16_t>(d.i32());
            rl.dir = static_cast<LinkDir>(d.u8());
            if (rl.dir > LinkDir::South)
                throw ArtifactError("artifact: bad route direction");
            s.route.push_back(rl);
        }
    }
    return g;
}

// ---------------------------------------------------------------------------
// Options + content key
// ---------------------------------------------------------------------------

void
encodeOptions(Encoder &e, const compiler::CompilerOptions &opt)
{
    const arch::PlasticineSpec &s = opt.spec;
    e.str(s.name);
    e.i32(s.rows);
    e.i32(s.cols);
    e.i32(s.numAgs);
    e.i32(s.pcu.lanes);
    e.i32(s.pcu.stages);
    e.i32(s.pcu.maxIn);
    e.i32(s.pcu.maxOut);
    e.i32(s.pcu.fifoDepth);
    e.i32(s.pcu.maxCounters);
    e.i32(s.pmu.banks);
    e.i64(s.pmu.capacityWords);
    e.i32(s.pmu.maxIn);
    e.i32(s.pmu.maxOut);
    e.i32(s.pmu.fifoDepth);
    e.i32(s.pmu.maxCounters);
    e.i32(s.pmu.readPorts);
    e.i32(s.pmu.writePorts);
    e.i32(s.net.hopLatency);
    e.i32(s.net.ejectLatency);
    e.i32(s.net.minLatency);
    e.f64(s.clockGhz);

    e.u8(static_cast<uint8_t>(opt.control));
    e.u8(static_cast<uint8_t>(opt.partitioner));
    e.boolean(opt.enableMsr);
    e.boolean(opt.enableRtelm);
    e.boolean(opt.enableRetime);
    e.boolean(opt.enableRetimeM);
    e.boolean(opt.enableXbarElm);
    e.boolean(opt.enableMultibuffer);
    e.boolean(opt.enableControlReduction);
    e.boolean(opt.enableDuplication);
    e.i32(opt.multibufferDepth);
    // Two retired resource-handling flags, always false: keeping their
    // bytes keeps every content key (and the cache entries under it).
    e.boolean(false);
    e.boolean(false);
    e.u64(opt.solverIterations);
    e.u64(opt.solverSeed);
    e.u64(opt.pnrSeed);
    e.i32(opt.pnrIterations);
}

std::string
contentKey(const Program &input, const compiler::CompilerOptions &opt)
{
    Encoder e;
    e.str("sara-artifact-key");
    e.u32(kFormatVersion);
    encodeProgram(e, input);
    encodeOptions(e, opt);
    return support::Sha256::hexOf(e.buffer());
}

// ---------------------------------------------------------------------------
// CompileResult
// ---------------------------------------------------------------------------

std::string
encodeCompileResult(const compiler::CompileResult &r)
{
    Encoder e;
    encodeProgram(e, r.program);
    encodeGraph(e, r.lowering.graph);

    // unordered_map contents in sorted key order — the encoding must
    // not leak hash-table iteration order into the bytes.
    auto encodeVuMap =
        [&](const std::unordered_map<int32_t, VuId> &m) {
            std::map<int32_t, int32_t> sorted;
            for (const auto &[k, v] : m)
                sorted[k] = v.v;
            e.u32(static_cast<uint32_t>(sorted.size()));
            for (const auto &[k, v] : sorted) {
                e.i32(k);
                e.i32(v);
            }
        };
    encodeVuMap(r.lowering.blockUnit);
    encodeVuMap(r.lowering.accessEngine);

    const auto &st = r.lowering.stats;
    e.i32(st.tokens);
    e.i32(st.credits);
    e.i32(st.forwardEdgesBefore);
    e.i32(st.forwardEdgesRemoved);
    e.i32(st.backwardEdgesRemoved);
    e.i32(st.fifoLoweredTensors);
    e.i32(st.copyElidedBlocks);
    e.i32(st.multibufferedTensors);
    e.i32(st.shardedTensors);
    e.i32(st.dynamicPorts);
    e.i32(st.mergeUnits);
    e.i32(st.controllerUnits);

    e.u32(static_cast<uint32_t>(r.lowering.notes.size()));
    for (const auto &note : r.lowering.notes)
        e.str(note);

    e.i32(r.unrollStats.vectorizedLoops);
    e.i32(r.unrollStats.unrolledLoops);
    e.i32(r.unrollStats.clonesCreated);
    e.i32(r.unrollStats.combineBlocks);

    const auto &res = r.resources;
    e.i32(res.pcus);
    e.i32(res.pmus);
    e.i32(res.ags);
    e.i32(res.retimeUnits);
    e.i32(res.mergeUnits);
    e.i32(res.controllerUnits);
    e.i32(res.pcusAvail);
    e.i32(res.pmusAvail);
    e.i32(res.agsAvail);
    e.boolean(res.fits);

    // Spans: structure and pass stats are deterministic, wall-clock
    // times are not — zero the times so identical compiles produce
    // byte-identical artifacts.
    e.u32(static_cast<uint32_t>(r.phases.size()));
    for (const auto &span : r.phases) {
        e.str(span.name);
        e.i32(span.depth);
        e.u32(static_cast<uint32_t>(span.stats.size()));
        for (const auto &[k, v] : span.stats) {
            e.str(k);
            e.f64(v);
        }
    }

    e.i32(r.partitionsCreated);
    e.i32(r.unitsMerged);
    return e.take();
}

compiler::CompileResult
decodeCompileResult(const std::string &payload)
{
    Decoder d(payload);
    compiler::CompileResult r;
    r.program = decodeProgram(d);
    r.lowering.graph = decodeGraph(d);

    auto decodeVuMap = [&](std::unordered_map<int32_t, VuId> &m) {
        size_t n = d.count(8);
        for (size_t i = 0; i < n; ++i) {
            int32_t k = d.i32();
            m[k] = VuId(d.i32());
        }
    };
    decodeVuMap(r.lowering.blockUnit);
    decodeVuMap(r.lowering.accessEngine);

    auto &st = r.lowering.stats;
    st.tokens = d.i32();
    st.credits = d.i32();
    st.forwardEdgesBefore = d.i32();
    st.forwardEdgesRemoved = d.i32();
    st.backwardEdgesRemoved = d.i32();
    st.fifoLoweredTensors = d.i32();
    st.copyElidedBlocks = d.i32();
    st.multibufferedTensors = d.i32();
    st.shardedTensors = d.i32();
    st.dynamicPorts = d.i32();
    st.mergeUnits = d.i32();
    st.controllerUnits = d.i32();

    size_t numNotes = d.count(4);
    r.lowering.notes.reserve(numNotes);
    for (size_t i = 0; i < numNotes; ++i)
        r.lowering.notes.push_back(d.str());

    r.unrollStats.vectorizedLoops = d.i32();
    r.unrollStats.unrolledLoops = d.i32();
    r.unrollStats.clonesCreated = d.i32();
    r.unrollStats.combineBlocks = d.i32();

    auto &res = r.resources;
    res.pcus = d.i32();
    res.pmus = d.i32();
    res.ags = d.i32();
    res.retimeUnits = d.i32();
    res.mergeUnits = d.i32();
    res.controllerUnits = d.i32();
    res.pcusAvail = d.i32();
    res.pmusAvail = d.i32();
    res.agsAvail = d.i32();
    res.fits = d.boolean();

    size_t numSpans = d.count(9);
    r.phases.reserve(numSpans);
    for (size_t i = 0; i < numSpans; ++i) {
        telemetry::Span span;
        span.name = d.str();
        span.depth = d.i32();
        size_t nstats = d.count(12);
        span.stats.reserve(nstats);
        for (size_t s = 0; s < nstats; ++s) {
            std::string k = d.str();
            double v = d.f64();
            span.stats.emplace_back(std::move(k), v);
        }
        r.phases.push_back(std::move(span));
    }

    r.partitionsCreated = d.i32();
    r.unitsMerged = d.i32();
    d.expectEnd();
    return r;
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

std::string
packArtifact(const std::string &key, const compiler::CompileResult &r)
{
    std::string payload = encodeCompileResult(r);
    support::Sha256 sha;
    sha.update(payload);
    auto digest = sha.digest();

    Encoder e;
    e.bytes(kMagic, sizeof kMagic);
    e.u32(kFormatVersion);
    e.str(key);
    e.u64(payload.size());
    e.bytes(digest.data(), digest.size());
    e.bytes(payload.data(), payload.size());
    return e.take();
}

LoadedArtifact
unpackArtifact(const std::string &bytes)
{
    Decoder d(bytes);
    std::string magic = d.raw(sizeof kMagic);
    if (std::memcmp(magic.data(), kMagic, sizeof kMagic) != 0)
        throw ArtifactError("artifact: bad magic");
    uint32_t version = d.u32();
    if (version != kFormatVersion)
        throw ArtifactError("artifact: format version " +
                            std::to_string(version) + " != " +
                            std::to_string(kFormatVersion));
    LoadedArtifact out;
    out.key = d.raw(d.count(1)); // Key: hex string, arbitrary length.
    uint64_t payloadSize = d.u64();
    std::string digest = d.raw(32);
    if (d.remaining() != payloadSize)
        throw ArtifactError("artifact: payload size mismatch");
    std::string payload = d.raw(payloadSize);
    d.expectEnd();

    support::Sha256 sha;
    sha.update(payload);
    auto actual = sha.digest();
    if (std::memcmp(actual.data(), digest.data(), actual.size()) != 0)
        throw ArtifactError("artifact: checksum mismatch (corrupt)");

    out.result = decodeCompileResult(payload);
    return out;
}

namespace {

/** write(2) the whole buffer, riding out EINTR/partial writes. */
bool
writeAll(int fd, const char *data, size_t size)
{
    size_t done = 0;
    while (done < size) {
        ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += static_cast<size_t>(n);
    }
    return true;
}

/** fsync the directory containing `path` so a just-published rename
 *  survives a crash (the rename itself is only durable once the
 *  directory's metadata hits disk). Best-effort: some filesystems
 *  refuse directory fsync; the data fsync already happened. */
void
syncParentDir(const std::string &path)
{
    std::string dir = ".";
    if (size_t slash = path.rfind('/'); slash != std::string::npos)
        dir = slash == 0 ? "/" : path.substr(0, slash);
    int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd < 0)
        return;
    ::fsync(dfd);
    ::close(dfd);
}

} // namespace

void
writeArtifactFile(const std::string &path, const std::string &key,
                  const compiler::CompileResult &r)
{
    std::string bytes = packArtifact(key, r);
    writeArtifactBytes(path, bytes);
}

void
writeArtifactBytes(const std::string &path, const std::string &bytes)
{
    // Crash-safe publish: write a uniquely-named temp file, fsync it,
    // rename over the destination (atomic on POSIX), fsync the
    // directory. A crash at any point leaves either the old entry, no
    // entry plus a stale tmp the recovery scan removes, or the new
    // entry — never a half-written file under the final name.
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        throw ArtifactError("artifact: cannot write " + tmp + ": " +
                            std::strerror(errno));
    if (!writeAll(fd, bytes.data(), bytes.size())) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        throw ArtifactError("artifact: short write to " + tmp + ": " +
                            std::strerror(err));
    }
    if (::fsync(fd) != 0) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        throw ArtifactError("artifact: fsync failed for " + tmp + ": " +
                            std::strerror(err));
    }
    if (::close(fd) != 0) {
        ::unlink(tmp.c_str());
        throw ArtifactError("artifact: close failed for " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        throw ArtifactError("artifact: cannot rename into " + path +
                            ": " + std::strerror(err));
    }
    syncParentDir(path);
}

std::string
readArtifactBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw ArtifactError("artifact: cannot open " + path);
    std::string bytes;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

LoadedArtifact
readArtifactFile(const std::string &path)
{
    return unpackArtifact(readArtifactBytes(path));
}

} // namespace sara::artifact
