#include <algorithm>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "artifact/artifact.h"
#include "bench.h"
#include "ir/interp.h"
#include "runtime/run.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/hostprof.h"
#include "support/logging.h"

namespace sarabench {

namespace {

struct OpTimer
{
    Clock::time_point wall = Clock::now();
    double cpu = threadCpuMs();
    double ms() const { return msBetween(wall, Clock::now()); }
    double cpuMs() const { return threadCpuMs() - cpu; }
};

std::vector<size_t>
shuffled(size_t n, uint64_t seed)
{
    std::vector<size_t> v(n);
    std::iota(v.begin(), v.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(v.begin(), v.end(), rng);
    return v;
}

/** A daemon that stops answering fails the op instead of hanging the
 *  benchmark: recv() gives up after 20 s and Client::call throws. */
void
setRecvTimeout(serve::Client &c)
{
    timeval tv{20, 0};
    ::setsockopt(c.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

void
setInputs(sim::Simulator &s, const workloads::Workload &w)
{
    for (const auto &[tid, data] : w.dramInputs)
        s.setDramTensor(ir::TensorId(tid), data);
}

/** A direct Simulator construct + setDramTensor + run. */
sim::SimResult
directSim(const workloads::Workload &w, const compiler::CompileResult &c,
          const dram::DramSpec &d, bool noc)
{
    sim::Simulator s(c.program, c.lowering.graph, d,
                     simOptionsFor(compiler::CompilerOptions{}, noc));
    setInputs(s, w);
    return s.run();
}

/**
 * Two direct simulations of a compiled entry, both outside any op: a
 * clean one timing the "sim" half of runtime.overhead_ms (and counting
 * its allocations), then one under the host sampling profiler whose
 * NoC-arbitration and DRAM-model sample shares split that time into
 * the noc and dram layers. Returns the clean run's wall ms.
 */
double
calibrateSim(const workloads::Workload &w,
             const compiler::CompileResult &c, const dram::DramSpec &d,
             bool noc, uint64_t expectCycles, SimCounters *sc,
             double &nocMs, double &dramMs, bool &ok)
{
    uint64_t allocs0 = allocCount();
    auto t0 = Clock::now();
    double ms = 0.0;
    uint64_t allocs = 0;
    sim::SimResult r;
    auto &prof = telemetry::HostProfiler::global();
    prof.clearSamples();
    try {
        r = directSim(w, c, d, noc);
        ms = msBetween(t0, Clock::now());
        allocs = allocCount() - allocs0;
        prof.start();
        directSim(w, c, d, noc);
    } catch (const std::exception &) {
        ok = false;
    }
    prof.stop();
    double total = static_cast<double>(prof.totalSamples());
    auto share = [&](telemetry::HostPhase p) {
        return total > 0.0 ? static_cast<double>(prof.samples(p)) / total
                           : 0.0;
    };
    nocMs = ms * share(telemetry::HostPhase::NocArb);
    dramMs = ms * share(telemetry::HostPhase::Dram);
    if (r.cycles != expectCycles)
        ok = false;
    if (sc) {
        sc->add(r);
        sc->ms += ms;
        sc->allocs += allocs;
    }
    return ms;
}

/** Split a runWorkload span into runtime / sim / noc / dram. */
void
deriveRun(Tracer &t, int runIdx, double simMs, double nocMs,
          double dramMs)
{
    int simIdx = t.derive(runIdx, {{"sim.run", simMs}})[0];
    if (simIdx >= 0)
        t.derive(simIdx, {{"noc.model", nocMs}, {"dram.model", dramMs}});
}

const char *kPhases[] = {"unroll", "lower", "partition",
                         "merge",  "pnr",   "retime"};

void
addPhases(LayerStats *ls, const compiler::CompileResult &r, bool solver)
{
    if (!ls)
        return;
    for (const char *p : kPhases)
        ls->add(std::string("compiler.") + p + "_ms", r.phaseMs(p));
    if (solver) {
        ls->add("solver.partition_ms", r.phaseMs("partition"));
        ls->add("solver.merge_ms", r.phaseMs("merge"));
    }
}

} // namespace

std::map<std::string, double>
compileCounts(const compiler::CompileResult &r)
{
    auto stat = [&](const char *phase, const char *key) {
        for (const auto &s : r.phases)
            if (s.name == phase)
                return s.stat(key);
        return 0.0;
    };
    return {
        {"compiler.units",
         static_cast<double>(r.lowering.graph.numUnits())},
        {"compiler.streams",
         static_cast<double>(r.lowering.graph.numStreams())},
        {"compiler.route_hops", stat("pnr", "route-hops")},
        {"compiler.wirelength", stat("pnr", "wirelength")},
        {"compiler.pcus", static_cast<double>(r.resources.pcus)},
        {"compiler.pmus", static_cast<double>(r.resources.pmus)},
    };
}

// ---------------------------------------------------------------------------
// SimPath
// ---------------------------------------------------------------------------

std::string
SimSpec::label() const
{
    std::string s = workload + " par " + std::to_string(par);
    if (scale > 1)
        s += " scale " + std::to_string(scale);
    if (ddr3)
        s += " ddr3";
    s += noc ? " noc" : " fixed";
    return s;
}

SimPath::SimPath(std::vector<SimSpec> specs, uint64_t seed)
    : specs_(std::move(specs)), seed_(seed)
{
}

void
SimPath::setup(LayerStats *ls)
{
    entries.clear();
    entries.reserve(specs_.size());
    for (const auto &spec : specs_) {
        Entry e;
        e.spec = spec;
        workloads::WorkloadConfig cfg;
        cfg.par = spec.par;
        cfg.scale = spec.scale;
        cfg.seed = seed_;
        e.w = workloads::buildByName(spec.workload, cfg);
        e.dram = spec.ddr3 ? dram::DramSpec::ddr3()
                           : dram::DramSpec::hbm2();
        e.compiled = compiler::compile(e.w.program, {});
        addPhases(ls, e.compiled, false);

        ir::Interpreter interp(e.compiled.program);
        for (const auto &[tid, data] : e.w.dramInputs)
            interp.setTensor(ir::TensorId(tid), data);
        e.refTensors = interp.run().tensors;

        runtime::RunConfig rc;
        rc.dram = e.dram;
        rc.sim.useNoc = spec.noc;
        rc.preCompiled = &e.compiled;
        sim::SimResult ref = runtime::runWorkload(e.w, rc).sim;
        if (!tensorsMatch(ref.tensors, e.refTensors))
            fatal("sarabench: ", spec.label(),
                  " differs from the interpreter in setup");
        e.refCycles = ref.cycles;
        entries.push_back(std::move(e));
    }
}

uint64_t
SimPath::passCycles() const
{
    uint64_t sum = 0;
    for (const auto &e : entries)
        sum += e.refCycles;
    return sum;
}

std::map<std::string, double>
SimPath::counts() const
{
    std::map<std::string, double> out;
    for (const auto &e : entries)
        for (const auto &[k, v] : compileCounts(e.compiled))
            out[k] += v;
    return out;
}

OpResult
SimPath::runOp(size_t i, Tracer *t, LayerStats *ls, SimCounters *sc)
{
    Entry &e = entries[i];
    OpResult res;
    double simMs = 0.0, nocMs = 0.0, dramMs = 0.0;
    if (t)
        simMs = calibrateSim(e.w, e.compiled, e.dram, e.spec.noc,
                             e.refCycles, sc, nocMs, dramMs, res.ok);

    runtime::RunConfig rc;
    rc.dram = e.dram;
    rc.sim.useNoc = e.spec.noc;
    rc.preCompiled = &e.compiled;
    runtime::RunOutcome out;
    int runIdx = -1;
    OpTimer timer;
    try {
        Scope op(t, "op", e.spec.label());
        Scope run(t, "runtime.run_workload");
        runIdx = run.index();
        out = runtime::runWorkload(e.w, rc);
    } catch (const std::exception &) {
        res.ok = false;
    }
    res.ms = timer.ms();
    res.cpuMs = timer.cpuMs();

    if (t && runIdx >= 0) {
        deriveRun(*t, runIdx, simMs, nocMs, dramMs);
        if (ls)
            ls->samples["runtime.overhead_ms"].push_back(
                t->durMs(runIdx) - simMs);
    }
    res.ok = res.ok && out.sim.cycles == e.refCycles &&
             tensorsMatch(out.sim.tensors, e.refTensors);
    return res;
}

void
SimPath::loop(LoopStats &st, double seconds, int minPasses, Tracer *t,
              LayerStats *ls, SimCounters *sc)
{
    auto order = shuffled(entries.size(), seed_);
    auto t0 = Clock::now();
    for (int pass = 0;
         pass < minPasses || msBetween(t0, Clock::now()) < seconds * 1e3;
         ++pass) {
        for (size_t i : order) {
            OpResult r = runOp(i, t, ls, sc);
            st.record(i, r.ms, r.cpuMs, r.ok);
        }
        ++st.passes;
    }
}

// ---------------------------------------------------------------------------
// CompilePath
// ---------------------------------------------------------------------------

std::string
CompileSpec::label() const
{
    return workload + " par " + std::to_string(par) +
           (solver ? " solver" : "");
}

CompilePath::CompilePath(std::vector<CompileSpec> specs, uint64_t seed)
    : specs_(std::move(specs)), seed_(seed)
{
}

void
CompilePath::setup(LayerStats *ls)
{
    keys.clear();
    totals.clear();
    for (const auto &spec : specs_) {
        Key k;
        k.spec = spec;
        if (spec.solver)
            k.opt.partitioner = compiler::PartitionAlgo::Solver;
        workloads::WorkloadConfig cfg;
        cfg.par = spec.par;
        cfg.seed = seed_;
        auto w = workloads::buildByName(spec.workload, cfg);
        std::string key = artifact::contentKey(w.program, k.opt);
        auto r = compiler::compile(w.program, k.opt);
        addPhases(ls, r, spec.solver);
        for (const auto &[name, v] : compileCounts(r))
            totals[name] += v;
        k.refBytes = artifact::packArtifact(key, r);
        keys.push_back(std::move(k));
    }
}

OpResult
CompilePath::runOp(size_t i, Tracer *t, LayerStats *ls)
{
    const Key &k = keys[i];
    OpResult res;
    std::string bytes;
    compiler::CompileResult r;
    int buildIdx = -1, keyIdx = -1, compIdx = -1, packIdx = -1;
    OpTimer timer;
    try {
        Scope op(t, "op", k.spec.label());
        workloads::WorkloadConfig cfg;
        cfg.par = k.spec.par;
        cfg.seed = seed_;
        workloads::Workload w;
        {
            Scope s(t, "workloads.build");
            buildIdx = s.index();
            w = workloads::buildByName(k.spec.workload, cfg);
        }
        std::string key;
        {
            Scope s(t, "artifact.content_key");
            keyIdx = s.index();
            key = artifact::contentKey(w.program, k.opt);
        }
        {
            Scope s(t, "compiler.compile");
            compIdx = s.index();
            r = compiler::compile(w.program, k.opt);
        }
        {
            Scope s(t, "artifact.pack");
            packIdx = s.index();
            bytes = artifact::packArtifact(key, r);
        }
    } catch (const std::exception &) {
        res.ok = false;
    }
    res.ms = timer.ms();
    res.cpuMs = timer.cpuMs();
    res.ok = res.ok && bytes == k.refBytes;

    if (t && packIdx >= 0) {
        if (k.spec.solver)
            t->derive(compIdx, {{"solver.partition", r.phaseMs("partition")},
                                {"solver.merge", r.phaseMs("merge")}});
        if (ls) {
            ls->add("workloads.build_ms", t->durMs(buildIdx));
            ls->add("artifact.content_key_ms", t->durMs(keyIdx));
            ls->add("artifact.pack_ms", t->durMs(packIdx));
            ls->add("artifact.bytes", static_cast<double>(bytes.size()));
            addPhases(ls, r, k.spec.solver);
        }
    }
    return res;
}

void
CompilePath::loop(LoopStats &st, double seconds, int minPasses,
                  Tracer *t, LayerStats *ls)
{
    auto order = shuffled(keys.size(), seed_);
    auto t0 = Clock::now();
    for (int pass = 0;
         pass < minPasses || msBetween(t0, Clock::now()) < seconds * 1e3;
         ++pass) {
        for (size_t i : order) {
            OpResult r = runOp(i, t, ls);
            st.record(i, r.ms, r.cpuMs, r.ok);
        }
        ++st.passes;
    }
}

// ---------------------------------------------------------------------------
// ServePath
// ---------------------------------------------------------------------------

std::vector<ServePath::Kind>
serveMix()
{
    std::vector<ServePath::Kind> mix;
    for (auto [name, par] : std::vector<std::pair<const char *, int>>{
             {"sort", 8}, {"rf", 16}, {"mlp", 16}}) {
        ServePath::Kind k;
        k.verb = serve::Verb::Compile;
        k.workload = name;
        k.par = par;
        mix.push_back(std::move(k));
    }
    for (const char *name : {"ms", "bs", "sgd", "logreg"}) {
        for (bool check : {false, true}) {
            ServePath::Kind k;
            k.workload = name;
            k.par = 4;
            k.check = check;
            mix.push_back(std::move(k));
        }
    }
    return mix;
}

ServePath::ServePath(std::vector<Kind> kinds_, uint64_t seed,
                     std::string dir)
    : kinds(std::move(kinds_)), seed_(seed), dir_(std::move(dir))
{
}

ServePath::~ServePath() { stop(); }

void
ServePath::stop()
{
    if (!server_)
        return;
    server_->requestStop();
    server_->wait();
    server_.reset();
}

std::string
ServePath::Kind::label() const
{
    return std::string(serve::verbName(verb)) + " " + workload + " par " +
           std::to_string(par) + (check ? " check" : "");
}

serve::Request
ServePath::request(const Kind &k)
{
    serve::Request r;
    r.id = "q" + std::to_string(nextId_.fetch_add(1));
    r.verb = k.verb;
    r.workload = k.workload;
    r.par = k.par;
    r.check = k.check;
    return r;
}

void
ServePath::setup()
{
    stop();
    cursors_.clear();
    busyMs_ = 0.0;
    // Requests carry no seed, so the daemon builds every workload at
    // the default WorkloadConfig; the direct references do the same.
    for (auto &k : kinds) {
        workloads::WorkloadConfig cfg;
        cfg.par = k.par;
        auto w = workloads::buildByName(k.workload, cfg);
        k.expect = ServeExpect{};
        if (k.verb != serve::Verb::Run)
            continue;
        k.compiled = compiler::compile(w.program, {});
        runtime::RunConfig rc;
        rc.preCompiled = &k.compiled;
        k.expect.run = true;
        k.expect.check = k.check;
        k.expect.cycles = runtime::runWorkload(w, rc).sim.cycles;
    }

    serve::ServerOptions so;
    so.socketPath =
        dir_ + "/sarad-" + std::to_string(::getpid()) + ".sock";
    so.workers = 2;
    server_ = std::make_unique<serve::Server>(so);
    server_->start();
    if (!serve::waitForServer(so.socketPath, 5000))
        fatal("sarabench: in-process sarad did not come up");

    // Warm both caches: the first request of each kind compiles.
    serve::Client client(so.socketPath);
    setRecvTimeout(client);
    for (const auto &k : kinds) {
        json::Value v = client.call(request(k));
        const json::Value *status = v.find("status");
        if (!status || status->str != "ok")
            fatal("sarabench: warm-up ", k.workload, " failed");
    }
}

std::vector<size_t>
ServePath::order(uint64_t salt) const
{
    // Sixteen rounds, each every kind once in a seeded order.
    std::vector<size_t> seq;
    for (uint64_t round = 0; round < 16; ++round) {
        auto r = shuffled(kinds.size(), seed_ * 1000003 + salt * 17 + round);
        seq.insert(seq.end(), r.begin(), r.end());
    }
    return seq;
}

namespace {

double
numField(const json::Value &v, const char *key)
{
    const json::Value *f = v.find(key);
    return f && f->isNumber() ? f->num : 0.0;
}

} // namespace

void
ServePath::loop(LoopStats &st, double seconds, int clients,
                std::vector<Sample> *samples)
{
    std::mutex mu;
    cursors_.resize(std::max<size_t>(cursors_.size(), clients), 0);
    const std::string socket = server_->socketPath();
    auto t0 = Clock::now();
    auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            LoopStats mine(kinds.size());
            std::vector<Sample> mineSamples;
            auto seq = order(static_cast<uint64_t>(c) + 1);
            size_t &j = cursors_[c];
            try {
                serve::Client client(socket);
                setRecvTimeout(client);
                for (; Clock::now() < deadline; ++j) {
                    size_t kind = seq[j % seq.size()];
                    serve::Request req = request(kinds[kind]);
                    OpTimer timer;
                    bool ok = false;
                    json::Value v;
                    try {
                        v = client.call(req);
                        ok = true;
                    } catch (const std::exception &) {
                    }
                    Sample s;
                    s.rttMs = timer.ms();
                    s.doneMs = busyMs_ + msBetween(t0, Clock::now());
                    s.queueMs = numField(v, "queue_ms");
                    s.serviceMs = numField(v, "service_ms");
                    ok = ok && responseOk(v, kinds[kind].expect);
                    mine.record(kind, s.rttMs, timer.cpuMs(), ok);
                    mineSamples.push_back(s);
                }
            } catch (const std::exception &) {
                ++mine.attempted;
                ++mine.failed;
            }
            std::lock_guard<std::mutex> lock(mu);
            for (size_t k = 0; k < kinds.size(); ++k)
                st.itemMs[k].insert(st.itemMs[k].end(),
                                    mine.itemMs[k].begin(),
                                    mine.itemMs[k].end());
            st.opMs.insert(st.opMs.end(), mine.opMs.begin(),
                           mine.opMs.end());
            st.opCpuMs.insert(st.opCpuMs.end(), mine.opCpuMs.begin(),
                              mine.opCpuMs.end());
            st.attempted += mine.attempted;
            st.failed += mine.failed;
            if (samples)
                samples->insert(samples->end(), mineSamples.begin(),
                                mineSamples.end());
        });
    }
    for (auto &th : threads)
        th.join();
    busyMs_ += msBetween(t0, Clock::now());
    ++st.passes;
}

void
ServePath::tracedLoop(LoopStats &st, double seconds, Tracer *t,
                      LayerStats *ls, SimCounters *sc)
{
    serve::Client client(server_->socketPath());
    setRecvTimeout(client);
    // The sequence the untraced single-client loop walks.
    auto seq = order(1);
    auto t0 = Clock::now();
    for (size_t j = 0;
         j < kinds.size() || msBetween(t0, Clock::now()) < seconds * 1e3;
         ++j) {
        size_t kind = seq[j % seq.size()];
        Kind &k = kinds[kind];
        serve::Request req = request(k);
        json::Value v;
        OpResult res;
        int reqIdx = -1;
        OpTimer timer;
        try {
            Scope op(t, "op", k.label());
            Scope rq(t, "serve.request");
            reqIdx = rq.index();
            v = client.call(req);
        } catch (const std::exception &) {
            res.ok = false;
        }
        res.ms = timer.ms();
        res.cpuMs = timer.cpuMs();
        res.ok = res.ok && responseOk(v, k.expect);

        // In-process replay of the daemon's work for this request,
        // through the same public calls its worker makes.
        compiler::CompilerOptions copt;
        workloads::WorkloadConfig cfg;
        cfg.par = k.par;
        OpTimer b;
        auto w = workloads::buildByName(k.workload, cfg);
        double buildMs = b.ms();
        OpTimer kt;
        std::string key = artifact::contentKey(w.program, copt);
        double keyMs = kt.ms();
        double runMs = 0.0, simMs = 0.0, nocMs = 0.0, dramMs = 0.0,
               interpMs = 0.0;
        if (k.verb == serve::Verb::Run) {
            runtime::RunConfig rc;
            rc.preCompiled = &k.compiled;
            OpTimer rt;
            runtime::runWorkload(w, rc);
            runMs = rt.ms();
            simMs = calibrateSim(w, k.compiled, rc.dram, false,
                                 k.expect.cycles, sc, nocMs, dramMs,
                                 res.ok);
            if (k.check) {
                OpTimer it;
                ir::Interpreter interp(k.compiled.program);
                for (const auto &[tid, data] : w.dramInputs)
                    interp.setTensor(ir::TensorId(tid), data);
                interp.run();
                interpMs = it.ms();
                ls->add("ir.interp_ms", interpMs);
            }
            ls->samples["runtime.overhead_ms"].push_back(runMs - simMs);
        }
        ls->add("workloads.build_ms", buildMs);
        ls->add("artifact.content_key_ms", keyMs);

        if (reqIdx >= 0) {
            int service =
                t->derive(reqIdx, {{"serve.queue", numField(v, "queue_ms")},
                                   {"serve.service",
                                    numField(v, "service_ms")}})[1];
            if (service >= 0) {
                int run = t->derive(service,
                                    {{"runtime.run_workload", runMs},
                                     {"workloads.build", buildMs},
                                     {"artifact.content_key", keyMs},
                                     {"ir.interp", interpMs}})[0];
                if (run >= 0)
                    deriveRun(*t, run, simMs, nocMs, dramMs);
            }
        }
        st.record(kind, res.ms, res.cpuMs, res.ok);
    }
    ++st.passes;
}

const std::string &
ServePath::socketPath() const
{
    return server_->socketPath();
}

std::map<std::string, double>
ServePath::counters()
{
    serve::Client client(server_->socketPath());
    setRecvTimeout(client);
    serve::Request r;
    r.id = "stats";
    r.verb = serve::Verb::Stats;
    json::Value v = client.call(r);
    std::map<std::string, double> out;
    if (const json::Value *stats = v.find("stats"))
        if (const json::Value *c = stats->find("counters"))
            for (const auto &[name, val] : c->obj)
                out[name] = val.num;
    return out;
}

} // namespace sarabench
