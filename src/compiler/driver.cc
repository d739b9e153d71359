#include "compiler/driver.h"

#include <sstream>

#include "compiler/duplicate.h"
#include "compiler/merging.h"
#include "compiler/partition.h"
#include "compiler/pnr.h"
#include "compiler/retime.h"
#include "support/logging.h"

namespace sara::compiler {

std::string
ResourceReport::str() const
{
    std::ostringstream os;
    os << "PCU " << pcus << "/" << pcusAvail << ", PMU " << pmus << "/"
       << pmusAvail << ", AG " << ags << "/" << agsAvail
       << (fits ? "" : " [DOES NOT FIT]");
    return os.str();
}

double
CompileResult::phaseMs(const std::string &phase) const
{
    for (const auto &span : phases)
        if (span.name == phase)
            return span.durMs;
    return 0.0;
}

CompileResult
compile(const ir::Program &input, const CompilerOptions &options)
{
    CompileResult result;
    telemetry::SpanRecorder rec;
    telemetry::ScopedSpan all(rec, "compile");

    // 1. Parallelization lowering (consume par factors).
    result.program = input;
    {
        telemetry::ScopedSpan span(rec, "unroll");
        span.stat("ops-in", static_cast<double>(input.numOps()));
        result.unrollStats =
            unrollProgram(result.program, options.spec.pcu.lanes);
        if (options.enableDuplication &&
            options.control == ControlScheme::Cmmc)
            duplicateReadShared(result.program, options);
        span.stat("ops-out",
                  static_cast<double>(result.program.numOps()));
        span.stat("vectorized-loops", result.unrollStats.vectorizedLoops);
        span.stat("unrolled-loops", result.unrollStats.unrolledLoops);
        span.stat("clones-created", result.unrollStats.clonesCreated);
        span.stat("combine-blocks", result.unrollStats.combineBlocks);
    }

    // 2. Imperative-to-dataflow lowering + CMMC.
    {
        telemetry::ScopedSpan span(rec, "lower");
        result.lowering = lowerToVudfg(result.program, options);
        const auto &st = result.lowering.stats;
        span.stat("units",
                  static_cast<double>(result.lowering.graph.numUnits()));
        span.stat("streams",
                  static_cast<double>(result.lowering.graph.numStreams()));
        span.stat("cmmc-tokens", st.tokens);
        span.stat("cmmc-credits", st.credits);
        span.stat("fwd-edges-pruned", st.forwardEdgesRemoved);
        span.stat("bwd-edges-pruned", st.backwardEdgesRemoved);
        span.stat("fifo-lowered", st.fifoLoweredTensors);
        span.stat("copy-elided", st.copyElidedBlocks);
        span.stat("multibuffered", st.multibufferedTensors);
        span.stat("sharded", st.shardedTensors);
    }

    // 3. Compute partitioning: split oversized VCUs (Table I/III).
    {
        telemetry::ScopedSpan span(rec, "partition");
        PartitionReport pr = partitionCompute(result.lowering.graph, options);
        result.partitionsCreated = pr.partitionsCreated;
        span.stat("units-partitioned", pr.unitsPartitioned);
        span.stat("partitions-created", pr.partitionsCreated);
    }

    // 4. Global merging: pack small VUs into physical units.
    MergeReport mr;
    {
        telemetry::ScopedSpan span(rec, "merge");
        mr = globalMerge(result.lowering.graph, options);
        result.unitsMerged = mr.unitsMerged;
        span.stat("units-merged", mr.unitsMerged);
        span.stat("pcu-groups", mr.pcuGroups);
        span.stat("pmu-groups", mr.pmuGroups);
        span.stat("ag-groups", mr.agGroups);
    }

    // 5. Placement & routing: physical latencies per stream.
    {
        telemetry::ScopedSpan span(rec, "pnr");
        PnrReport pnr = placeAndRoute(result.lowering.graph, options);
        span.stat("wirelength", pnr.wirelength);
        span.stat("max-link-load", pnr.maxLinkLoad);
        span.stat("avg-stream-latency", pnr.avgStreamLatency);
        span.stat("routed-streams", pnr.routedStreams);
        span.stat("route-hops", pnr.totalRouteHops);
    }

    // 6. Retiming: deepen FIFOs on imbalanced reconvergent paths
    //    (uses the routed latencies).
    RetimeReport rr;
    {
        telemetry::ScopedSpan span(rec, "retime");
        if (options.enableRetime)
            rr = retimeStreams(result.lowering.graph, options);
        span.stat("streams-deepened", rr.streamsDeepened);
        span.stat("retime-units", rr.retimeUnits);
    }

    // 7. Resource report.
    ResourceReport &res = result.resources;
    res.pcusAvail = options.spec.numPcus();
    res.pmusAvail = options.spec.numPmus();
    res.agsAvail = options.spec.numAgs;
    res.mergeUnits = result.lowering.stats.mergeUnits;
    res.controllerUnits = result.lowering.stats.controllerUnits;
    res.retimeUnits = rr.retimeUnits;
    res.pcus = mr.pcuGroups + res.mergeUnits + res.controllerUnits +
               rr.retimePcus;
    res.pmus = mr.pmuGroups + rr.retimePmus;
    res.ags = mr.agGroups;
    res.fits = res.pcus <= res.pcusAvail && res.pmus <= res.pmusAvail &&
               res.ags <= res.agsAvail;
    if (!res.fits)
        warn("design does not fit: ", res.str());

    all.end();
    result.phases = rec.spans();
    return result;
}

} // namespace sara::compiler
