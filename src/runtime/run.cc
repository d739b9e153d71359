#include "runtime/run.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "ir/interp.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/table.h"

namespace sara::runtime {

namespace {

/** The counter kind of an engine unit: "pcu", "pmu" or "ag". */
const char *
engineKind(const dfg::VUnit &u)
{
    return u.kind == dfg::VuKind::Compute   ? "pcu"
           : u.kind == dfg::VuKind::MemPort ? "pmu"
                                            : "ag";
}

/** Cycles from an engine's last round to the end of the run. */
uint64_t
idleCycles(const sim::UnitStats &s, uint64_t cycles)
{
    return cycles > s.doneAt ? cycles - s.doneAt : 0;
}

/** Each unit's FIFO-occupancy peak: the highest high water over the
 *  streams it produces or consumes. */
std::vector<uint64_t>
occupancyPeaks(const dfg::Vudfg &g, const sim::SimResult &s)
{
    std::vector<uint64_t> peak(g.numUnits(), 0);
    for (size_t i = 0; i < s.fifoStats.size(); ++i) {
        const dfg::Stream &st = g.stream(dfg::StreamId(i));
        for (dfg::VuId u : {st.src, st.dst})
            if (u.valid())
                peak[u.index()] =
                    std::max(peak[u.index()], s.fifoStats[i].highWater);
    }
    return peak;
}

/** One NoC router cell: the telemetry of its outgoing links, summed. */
struct RouterCell
{
    int x = 0, y = 0;
    uint64_t links = 0, streams = 0, traversals = 0, waitCycles = 0;
    uint64_t queuePeak = 0;
};

/** The router cells of a NoC run in (x, y) order (none on fixed-latency
 *  runs, which have no linkUse). linkUse is sorted by (x, y, dir), so
 *  a cell's links are adjacent. */
std::vector<RouterCell>
routerCells(const noc::NocStats &n)
{
    std::vector<RouterCell> cells;
    for (const auto &lu : n.linkUse) {
        if (cells.empty() || cells.back().x != lu.link.x ||
            cells.back().y != lu.link.y)
            cells.push_back({lu.link.x, lu.link.y});
        RouterCell &c = cells.back();
        ++c.links;
        c.streams += static_cast<uint64_t>(lu.streams);
        c.traversals += lu.traversals;
        c.waitCycles += lu.waitCycles;
        c.queuePeak = std::max(c.queuePeak, lu.queueHighWater);
    }
    return cells;
}

} // namespace

RunOutcome
runWorkload(const workloads::Workload &w, const RunConfig &config)
{
    RunOutcome out;
    if (config.preCompiled) {
        // Aliasing constructor with no owner: borrowed, not copied.
        out.compiled = std::shared_ptr<const compiler::CompileResult>(
            std::shared_ptr<const compiler::CompileResult>(),
            config.preCompiled);
        out.fromCache = true;
    } else if (config.cachingCompiler) {
        auto c =
            config.cachingCompiler->compile(w.program, config.compiler);
        out.compiled = std::move(c.result);
        out.fromCache = c.fromCache;
        out.artifactKey = std::move(c.key);
    } else {
        out.compiled = std::make_shared<const compiler::CompileResult>(
            compiler::compile(w.program, config.compiler));
    }
    const compiler::CompileResult &compiled = *out.compiled;

    // Merge the compile phases into the simulator's trace timeline
    // (one unified Chrome-trace file per run).
    sim::SimOptions simOpt = config.sim;
    simOpt.compileSpans = &compiled.phases;
    // NoC timing mirrors the chip's network spec (the same numbers PnR
    // used for its scalar estimates). Tokens ride the arbitrated
    // network only under CMMC; the vanilla FSM control uses dedicated
    // control bits, so they keep their scalar latency there.
    const auto &net = config.compiler.spec.net;
    simOpt.noc.hopLatency = net.hopLatency;
    simOpt.noc.ejectLatency = net.ejectLatency;
    simOpt.noc.minLatency = net.minLatency;
    simOpt.noc.routeTokens =
        config.compiler.control == compiler::ControlScheme::Cmmc;
    // Fabric dimensions for the per-unit counter file / heatmap.
    simOpt.fabricRows = config.compiler.spec.rows;
    simOpt.fabricCols = config.compiler.spec.cols;

    sim::Simulator simulator(compiled.program, compiled.lowering.graph,
                             config.dram, simOpt);
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    out.sim = simulator.run();

    if (config.check) {
        out.checked = true;
        out.correct = matchesReference(
            out.sim.tensors, referenceTensors(compiled.program, w));
        if (!out.correct)
            warn("workload ", w.name,
                 " produced results differing from the interpreter");
    }
    return out;
}

Tensors
referenceTensors(const ir::Program &program, const workloads::Workload &w)
{
    ir::Interpreter interp(program);
    for (const auto &[tid, data] : w.dramInputs)
        interp.setTensor(ir::TensorId(tid), data);
    return interp.run().tensors;
}

bool
matchesReference(const Tensors &simulated, const Tensors &reference)
{
    for (size_t t = 0; t < simulated.size(); ++t) {
        const auto &simT = simulated[t];
        if (simT.empty())
            continue;
        if (t >= reference.size() || simT.size() != reference[t].size())
            return false;
        for (size_t i = 0; i < simT.size(); ++i)
            if (std::abs(simT[i] - reference[t][i]) > 1e-4)
                return false;
    }
    return true;
}

std::string
summarize(const workloads::Workload &w, const RunOutcome &r)
{
    std::ostringstream os;
    os << w.name << ": " << r.sim.cycles << " cycles ("
       << r.timeUs() << " us), " << r.gflops() << " GFLOPS, DRAM "
       << r.dramGBs() << " GB/s, util "
       << r.sim.avgComputeUtilization << ", "
       << r.compiled->resources.str();
    return os.str();
}

std::string
jsonReport(const workloads::Workload &w, const RunConfig &config,
           const RunOutcome &r)
{
    json::Writer j;
    j.beginObject();
    j.kv("schema", "sara-run-report/v1");
    j.kv("workload", w.name);

    j.key("config").beginObject();
    j.kv("chip", config.compiler.spec.name);
    j.kv("dram", config.dram.name);
    j.kv("control",
         config.compiler.control == compiler::ControlScheme::Cmmc
             ? "cmmc"
             : "fsm");
    j.kv("partitioner",
         compiler::partitionAlgoName(config.compiler.partitioner));
    j.endObject();

    j.key("compile").beginObject();
    j.kv("total_ms", r.compiled->totalMs());
    j.kv("from_cache", r.fromCache);
    if (!r.artifactKey.empty())
        j.kv("artifact_key", r.artifactKey);
    j.key("phases").beginArray();
    for (const auto &span : r.compiled->phases) {
        j.beginObject();
        j.kv("name", span.name);
        j.kv("ms", span.durMs);
        j.kv("depth", span.depth);
        j.key("stats").beginObject();
        for (const auto &[k, v] : span.stats)
            j.kv(k, v);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    const auto &res = r.compiled->resources;
    j.key("resources").beginObject();
    j.kv("pcus", res.pcus).kv("pmus", res.pmus).kv("ags", res.ags);
    j.kv("pcus_avail", res.pcusAvail).kv("pmus_avail", res.pmusAvail);
    j.kv("ags_avail", res.agsAvail);
    j.kv("retime_units", res.retimeUnits);
    j.kv("merge_units", res.mergeUnits);
    j.kv("controller_units", res.controllerUnits);
    j.kv("fits", res.fits);
    j.endObject();
    const auto &st = r.compiled->lowering.stats;
    j.key("cmmc").beginObject();
    j.kv("tokens", st.tokens).kv("credits", st.credits);
    j.kv("fwd_edges_pruned", st.forwardEdgesRemoved);
    j.kv("bwd_edges_pruned", st.backwardEdgesRemoved);
    j.kv("fifo_lowered", st.fifoLoweredTensors);
    j.kv("multibuffered", st.multibufferedTensors);
    j.kv("sharded", st.shardedTensors);
    j.kv("copy_elided", st.copyElidedBlocks);
    j.endObject();
    j.kv("partitions_created", r.compiled->partitionsCreated);
    j.kv("units_merged", r.compiled->unitsMerged);
    j.endObject(); // compile

    j.key("sim").beginObject();
    j.kv("cycles", r.sim.cycles);
    j.kv("time_us", r.timeUs());
    j.kv("total_firings", r.sim.totalFirings);
    j.kv("flops", r.sim.flops);
    j.kv("gflops", r.gflops());
    j.kv("compute_utilization", r.sim.avgComputeUtilization);
    j.key("host").beginObject();
    j.kv("events", r.sim.hostEvents);
    j.kv("wakeups", r.sim.wakeups);
    j.kv("spurious_wakeups", r.sim.spuriousWakeups);
    // Per-CV-class wakeup policy accounting: which wait sites pay the
    // thundering-herd cost, and their spurious ratios.
    j.key("wakeup_classes").beginObject();
    for (int c = 0; c < sim::kNumWakeClasses; ++c) {
        uint64_t total = r.sim.wakeupsByClass[c];
        uint64_t spurious = r.sim.spuriousByClass[c];
        j.key(sim::wakeClassName(static_cast<sim::WakeClass>(c)))
            .beginObject();
        j.kv("wakeups", total);
        j.kv("spurious", spurious);
        j.kv("spurious_ratio",
             total ? static_cast<double>(spurious) /
                         static_cast<double>(total)
                   : 0.0);
        j.endObject();
    }
    j.endObject();
    j.endObject();
    j.key("stalls").beginObject();
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        j.kv(sim::stallCauseName(static_cast<sim::StallCause>(c)),
             r.sim.stallTotals[c]);
    j.endObject();
    j.key("dram").beginObject();
    j.kv("bytes", r.sim.dramBytes);
    j.kv("requests", r.sim.dramRequests);
    j.kv("row_hits", r.sim.dramRowHits);
    j.kv("achieved_gbs", r.dramGBs());
    j.kv("peak_gbs", config.dram.totalGBs());
    j.endObject();
    if (r.sim.noc.enabled) {
        const auto &n = r.sim.noc;
        j.key("noc").beginObject();
        j.kv("links", n.links);
        j.kv("peak_stream_load", n.peakStreamLoad);
        j.kv("flits", n.flits);
        j.kv("hops", n.hops);
        j.kv("queue_cycles", n.queueCycles);
        j.kv("peak_inflight", n.peakInflight);
        // The handful of busiest links (by flit-cycles queued) — the
        // hotspots a floorplan fix would target.
        auto links = n.linkUse;
        std::stable_sort(links.begin(), links.end(),
                         [](const auto &a, const auto &b) {
                             return a.waitCycles > b.waitCycles;
                         });
        if (links.size() > 10)
            links.resize(10);
        j.key("hot_links").beginArray();
        for (const auto &lu : links) {
            j.beginObject();
            j.kv("x", lu.link.x).kv("y", lu.link.y);
            j.kv("dir", dfg::linkDirName(lu.link.dir));
            j.kv("streams", lu.streams);
            j.kv("traversals", lu.traversals);
            j.kv("wait_cycles", lu.waitCycles);
            j.kv("queue_high_water", lu.queueHighWater);
            j.endObject();
        }
        j.endArray();
        j.endObject();
    }
    const auto &g = r.compiled->lowering.graph;
    j.key("units").beginArray();
    for (const auto &u : g.units()) {
        const auto &s = r.sim.unitStats[u.id.index()];
        if (s.firings == 0 && s.skips == 0 && s.stallTotal() == 0)
            continue; // VMU storage units and dead engines.
        j.beginObject();
        j.kv("name", u.name);
        j.kv("firings", s.firings);
        j.kv("skips", s.skips);
        j.kv("busy", s.busyCycles);
        j.kv("first_fire", s.firstFire);
        j.kv("last_fire", s.lastFire);
        j.kv("done_at", s.doneAt);
        j.key("stalls").beginObject();
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            j.kv(sim::stallCauseName(static_cast<sim::StallCause>(c)),
                 s.stallCycles[c]);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    // FIFO pressure: report streams that ever came close to their
    // credit window (the interesting, backpressure-prone ones).
    j.key("fifo_pressure").beginArray();
    for (size_t i = 0; i < r.sim.fifoStats.size(); ++i) {
        const auto &fs = r.sim.fifoStats[i];
        if (fs.capacity == UINT64_MAX ||
            fs.highWater * 2 < fs.capacity)
            continue;
        j.beginObject();
        j.kv("name", g.stream(dfg::StreamId(i)).name);
        j.kv("high_water", fs.highWater);
        j.kv("capacity", fs.capacity);
        j.kv("pushes", fs.pushes);
        j.endObject();
    }
    j.endArray();
    // Per-unit performance counters: one block per engine by unit id,
    // then one per NoC router cell; `sarac --counters` renders the same
    // records as a table and a heatmap.
    const std::vector<uint64_t> occ = occupancyPeaks(g, r.sim);
    j.key("counters").beginArray();
    for (const auto &u : g.units()) {
        if (u.kind == dfg::VuKind::Memory)
            continue; // VMU storage has no engine.
        const auto &s = r.sim.unitStats[u.id.index()];
        j.beginObject();
        j.kv("id", u.name);
        j.kv("kind", engineKind(u));
        j.kv("x", u.placeX).kv("y", u.placeY);
        j.key("counters").beginObject();
        j.kv("firings", s.firings);
        j.kv("skips", s.skips);
        j.kv("busy", s.busyCycles);
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            j.kv(std::string("stall.") +
                     sim::stallCauseName(static_cast<sim::StallCause>(c)),
                 s.stallCycles[c]);
        j.kv("idle", idleCycles(s, r.sim.cycles));
        j.kv("bytes", s.bytesMoved);
        j.kv("occ_peak", occ[u.id.index()]);
        j.endObject();
        j.endObject();
    }
    for (const RouterCell &c : routerCells(r.sim.noc)) {
        char id[32];
        std::snprintf(id, sizeof id, "router(%d,%d)", c.x, c.y);
        j.beginObject();
        j.kv("id", id);
        j.kv("kind", "router");
        j.kv("x", c.x).kv("y", c.y);
        j.key("counters").beginObject();
        j.kv("links", c.links);
        j.kv("streams", c.streams);
        j.kv("traversals", c.traversals);
        j.kv("wait_cycles", c.waitCycles);
        j.kv("queue_peak", c.queuePeak);
        j.endObject();
        j.endObject();
    }
    j.endArray();
    j.endObject(); // sim

    j.key("check").beginObject();
    j.kv("checked", r.checked);
    j.kv("correct", r.correct);
    j.endObject();

    j.endObject();
    return j.str();
}

std::string
counterReport(const RunConfig &config, const RunOutcome &r)
{
    const auto &g = r.compiled->lowering.graph;
    const uint64_t cycles = r.sim.cycles;
    const int rows = config.compiler.spec.rows;
    const int cols = config.compiler.spec.cols;
    const std::vector<uint64_t> occ = occupancyPeaks(g, r.sim);

    // Engine rows; the heatmap keeps each grid cell's busiest engine
    // (a PMU's ports sit on its storage's cell), -1 where none is.
    Table t({"unit", "kind", "place", "firings", "skips", "busy",
             "stall", "idle", "bytes", "occ-peak"});
    std::vector<double> util(static_cast<size_t>(rows * cols), -1.0);
    int fringe = 0;
    for (const auto &u : g.units()) {
        if (u.kind == dfg::VuKind::Memory)
            continue;
        const auto &s = r.sim.unitStats[u.id.index()];
        char place[32];
        std::snprintf(place, sizeof place, "(%d,%d)", u.placeX, u.placeY);
        t.addRow({u.name, engineKind(u), place,
                  std::to_string(s.firings), std::to_string(s.skips),
                  std::to_string(s.busyCycles),
                  std::to_string(s.stallTotal()),
                  std::to_string(idleCycles(s, cycles)),
                  std::to_string(s.bytesMoved),
                  std::to_string(occ[u.id.index()])});
        if (u.placeX < 0 || u.placeX >= cols || u.placeY < 0 ||
            u.placeY >= rows) {
            ++fringe;
            continue;
        }
        double busy = cycles ? static_cast<double>(s.busyCycles) /
                                   static_cast<double>(cycles)
                             : 0.0;
        double &cell = util[static_cast<size_t>(u.placeY * cols + u.placeX)];
        cell = std::max(cell, busy);
    }
    std::string out = "-- per-unit performance counters --\n" + t.str();

    std::vector<RouterCell> cells = routerCells(r.sim.noc);
    if (!cells.empty()) {
        uint64_t traversals = 0, waitCycles = 0;
        for (const RouterCell &c : cells) {
            traversals += c.traversals;
            waitCycles += c.waitCycles;
        }
        out += "routers: " + std::to_string(cells.size()) +
               " active cells, " + std::to_string(traversals) +
               " traversals, " + std::to_string(waitCycles) +
               " flit-wait cycles (per-link detail: --noc-stats)\n";
    }

    // Text heatmap on a 10-step ramp; a placed engine is never blank.
    static const char kRamp[] = " .:-=+*#%@";
    out += "fabric utilization (busy cycles / " + std::to_string(cycles) +
           " total, " + std::to_string(cols) + "x" +
           std::to_string(rows) + "):\n";
    std::string border = "    +" + std::string(cols, '-') + "+\n";
    out += border;
    for (int y = rows - 1; y >= 0; --y) {
        char label[16];
        std::snprintf(label, sizeof label, "%3d |", y);
        out += label;
        for (int x = 0; x < cols; ++x) {
            double u = util[static_cast<size_t>(y * cols + x)];
            out += u < 0.0 ? ' '
                           : kRamp[std::clamp(static_cast<int>(u * 10.0),
                                              1, 9)];
        }
        out += "|\n";
    }
    out += border;
    out += "    x: 0.." + std::to_string(cols - 1) +
           " left to right; ramp ' '=unused .<20% :<30% -<40% =<50% "
           "+<60% *<70% #<80% %<90% @>=90%\n";
    if (fringe > 0)
        out += "    (" + std::to_string(fringe) +
               " fringe AG engines at x=-1/x=" + std::to_string(cols) +
               " listed in the table only)\n";
    return out;
}

void
writeJsonReport(const std::string &path, const workloads::Workload &w,
                const RunConfig &config, const RunOutcome &r)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write JSON report to ", path);
    std::string doc = jsonReport(w, config, r);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    inform("wrote run report to ", path);
}

} // namespace sara::runtime
