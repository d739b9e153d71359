/**
 * @file
 * Telemetry subsystem tests: registry semantics (and the disabled
 * no-op guarantee), span nesting, time-series decimation bounds, the
 * JSON writer/parser round-trip, Chrome-trace well-formedness, and
 * the sarac run-report schema.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "runtime/run.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/telemetry.h"

namespace sara {
namespace {

using namespace telemetry;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(Registry, DisabledIsNoOp)
{
    Registry r;
    EXPECT_FALSE(r.enabled());
    r.add("fired");
    r.add("fired", 10);
    EXPECT_EQ(r.counter("fired"), 0u);
    EXPECT_TRUE(r.counters().empty());
}

TEST(Registry, CountersAccumulateAndClear)
{
    Registry r;
    r.setEnabled(true);
    r.add("fired");
    r.add("fired", 4);
    EXPECT_EQ(r.counter("fired"), 5u);
    EXPECT_EQ(r.counter("missing"), 0u);
    EXPECT_NE(r.str().find("fired"), std::string::npos);

    r.clear();
    EXPECT_EQ(r.counter("fired"), 0u);
    EXPECT_TRUE(r.counters().empty());
    EXPECT_TRUE(r.enabled()) << "clear() resets values, not the switch";
}

TEST(Registry, GlobalIsOffByDefault)
{
    EXPECT_FALSE(Registry::global().enabled());
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

TEST(Spans, NestingDepthsAndStats)
{
    SpanRecorder rec;
    {
        ScopedSpan root(rec, "compile");
        {
            ScopedSpan child(rec, "lower");
            child.stat("units", 42.0);
        }
        ScopedSpan sibling(rec, "pnr");
    }
    ASSERT_EQ(rec.spans().size(), 3u);
    const Span *root = rec.find("compile");
    const Span *child = rec.find("lower");
    const Span *sibling = rec.find("pnr");
    ASSERT_NE(root, nullptr);
    ASSERT_NE(child, nullptr);
    ASSERT_NE(sibling, nullptr);
    EXPECT_EQ(root->depth, 0);
    EXPECT_EQ(child->depth, 1);
    EXPECT_EQ(sibling->depth, 1);
    EXPECT_EQ(child->stat("units"), 42.0);
    EXPECT_EQ(child->stat("missing", -1.0), -1.0);
    // Children run inside the root's interval.
    EXPECT_GE(child->startMs, root->startMs);
    EXPECT_GE(root->durMs, child->durMs);
    EXPECT_EQ(rec.ms("missing"), 0.0);
    EXPECT_EQ(rec.find("missing"), nullptr);
}

TEST(Spans, DisabledRecorderIsNoOp)
{
    SpanRecorder rec;
    rec.setEnabled(false);
    {
        ScopedSpan s(rec, "phase");
        s.stat("n", 1.0);
    }
    EXPECT_TRUE(rec.spans().empty());
    EXPECT_EQ(rec.begin("x"), -1);
}

TEST(Spans, ScopedEndIsIdempotent)
{
    SpanRecorder rec;
    ScopedSpan s(rec, "phase");
    s.end();
    s.end(); // Second end (and the destructor) must be harmless.
    ASSERT_EQ(rec.spans().size(), 1u);
}

// ---------------------------------------------------------------------------
// TimeSeries.
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, StaysBoundedAndKeepsLastSample)
{
    TimeSeries ts(16, 1);
    for (uint64_t t = 0; t < 100000; ++t)
        ts.sample(t, static_cast<double>(t));
    EXPECT_LE(ts.size(), 16u);
    EXPECT_GT(ts.interval(), 1u) << "decimation must coarsen the grid";
    ASSERT_FALSE(ts.empty());
    // The most recent value survives decimation exactly.
    EXPECT_EQ(ts.samples().back().first, 99999u);
    EXPECT_EQ(ts.samples().back().second, 99999.0);
    // Samples remain time-ordered.
    for (size_t i = 1; i < ts.size(); ++i)
        EXPECT_LT(ts.samples()[i - 1].first, ts.samples()[i].first);
}

TEST(TimeSeriesTest, CapacityWrapHalvesSamplesAndDoublesStride)
{
    TimeSeries ts(16, 1);
    for (uint64_t t = 0; t < 16; ++t)
        ts.sample(t, static_cast<double>(t));
    // The insert that reaches capacity compacts to every-other sample
    // (always keeping the newest) and doubles the spacing threshold.
    EXPECT_EQ(ts.size(), 8u);
    EXPECT_EQ(ts.interval(), 2u);
    EXPECT_EQ(ts.samples().back().first, 15u);
    EXPECT_EQ(ts.samples().back().second, 15.0);
    for (size_t i = 1; i < ts.size(); ++i)
        EXPECT_LT(ts.samples()[i - 1].first, ts.samples()[i].first);
}

TEST(TimeSeriesTest, StrideGrowsByDoublingFromMinInterval)
{
    TimeSeries ts(16, 8);
    EXPECT_EQ(ts.interval(), 8u);
    for (uint64_t t = 0; t < 100000; t += 8)
        ts.sample(t, 1.0);
    // Decimation only ever doubles: the stride stays a power-of-two
    // multiple of the construction-time minimum.
    EXPECT_GT(ts.interval(), 8u);
    EXPECT_EQ(ts.interval() % 8u, 0u);
    uint64_t ratio = ts.interval() / 8u;
    EXPECT_EQ(ratio & (ratio - 1), 0u) << ts.interval();
}

TEST(TimeSeriesTest, ClearResetsDecimationEpoch)
{
    TimeSeries ts(16, 4);
    for (uint64_t t = 0; t < 10000; t += 4)
        ts.sample(t, 1.0);
    ASSERT_GT(ts.interval(), 4u) << "test needs a decimated series";

    ts.clear();
    EXPECT_TRUE(ts.empty());
    EXPECT_EQ(ts.interval(), 4u)
        << "clear() must rewind the stride to minInterval";
    // A reused series resolves a short run as finely as a fresh one.
    ts.sample(0, 1.0);
    ts.sample(4, 2.0);
    EXPECT_EQ(ts.size(), 2u);
}

TEST(TimeSeriesTest, ConstructorClampsDegenerateArgs)
{
    TimeSeries ts(0, 0); // Clamped to (16, 1).
    EXPECT_EQ(ts.interval(), 1u);
    for (uint64_t t = 0; t < 15; ++t)
        ts.sample(t, static_cast<double>(t));
    EXPECT_EQ(ts.size(), 15u) << "maxSamples clamps up to 16";
}

TEST(TimeSeriesTest, NearbySamplesCollapse)
{
    TimeSeries ts(64, 8);
    ts.sample(0, 1.0);
    ts.sample(3, 2.0); // Within the interval: overwrites the tail.
    ts.sample(5, 3.0);
    ASSERT_EQ(ts.size(), 1u);
    EXPECT_EQ(ts.samples()[0].second, 3.0);
    ts.sample(20, 4.0);
    EXPECT_EQ(ts.size(), 2u);
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

TEST(Json, WriterParserRoundTrip)
{
    json::Writer w;
    w.beginObject();
    w.kv("name", "a \"quoted\"\nstring\t\\");
    w.kv("count", uint64_t{18446744073709551615ULL});
    w.kv("neg", -42);
    w.kv("pi", 3.25);
    w.kv("yes", true);
    w.key("none").null();
    w.key("arr").beginArray().value(1).value(2.5).endArray();
    w.key("nested").beginObject().kv("k", "v").endObject();
    w.endObject();

    json::Value v = json::parse(w.str());
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.at("name").str, "a \"quoted\"\nstring\t\\");
    EXPECT_EQ(v.at("neg").num, -42.0);
    EXPECT_EQ(v.at("pi").num, 3.25);
    EXPECT_TRUE(v.at("yes").boolean);
    EXPECT_EQ(v.at("none").kind, json::Value::Kind::Null);
    ASSERT_TRUE(v.at("arr").isArray());
    ASSERT_EQ(v.at("arr").arr.size(), 2u);
    EXPECT_EQ(v.at("arr").arr[1].num, 2.5);
    EXPECT_EQ(v.at("nested").at("k").str, "v");
    EXPECT_FALSE(v.has("missing"));
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, IntegralDoublesPrintWithoutExponent)
{
    // Cycle counts pass through doubles in span stats; they must stay
    // grep-able integers in the report.
    EXPECT_EQ(json::number(12345.0), "12345");
    EXPECT_EQ(json::number(0.0), "0");
    EXPECT_EQ(json::parse(json::number(0.5)).num, 0.5);
}

TEST(Json, MalformedInputIsFatal)
{
    EXPECT_THROW(json::parse("{\"a\": }"), FatalError);
    EXPECT_THROW(json::parse("[1, 2"), FatalError);
    EXPECT_THROW(json::parse("{} trailing"), FatalError);
    EXPECT_THROW(json::parse(""), FatalError);
}

TEST(Json, UnbalancedWriterPanics)
{
    json::Writer w;
    w.beginObject();
    EXPECT_THROW(w.str(), PanicError);
}

// ---------------------------------------------------------------------------
// Chrome trace writer.
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsParseableEventArray)
{
    std::string path = testing::TempDir() + "trace_unit.json";
    {
        ChromeTraceWriter tw(path);
        ASSERT_TRUE(tw.ok());
        tw.processName(0, "compile");
        tw.threadName(1, 7, "vcu_0");
        tw.complete(1, 7, "firing", 10.0, 2.0);
        tw.counter(1, "dram", 10.0, "outstanding", 3.0);
        tw.close();
        EXPECT_EQ(tw.eventsWritten(), 4u);
    }
    json::Value v = json::parse(slurp(path));
    ASSERT_TRUE(v.isArray());
    ASSERT_EQ(v.arr.size(), 4u);
    EXPECT_EQ(v.arr[0].at("ph").str, "M");
    const json::Value &x = v.arr[2];
    EXPECT_EQ(x.at("ph").str, "X");
    EXPECT_EQ(x.at("name").str, "firing");
    EXPECT_EQ(x.at("pid").num, 1.0);
    EXPECT_EQ(x.at("tid").num, 7.0);
    EXPECT_EQ(x.at("dur").num, 2.0);
    const json::Value &c = v.arr[3];
    EXPECT_EQ(c.at("ph").str, "C");
    EXPECT_EQ(c.at("args").at("outstanding").num, 3.0);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Run report schema.
// ---------------------------------------------------------------------------

TEST(RunReport, SchemaRoundTrip)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 4;
    auto w = workloads::buildByName("logreg", cfg);
    runtime::RunConfig rc;
    rc.check = true;
    auto r = runtime::runWorkload(w, rc);

    json::Value v = json::parse(runtime::jsonReport(w, rc, r));
    EXPECT_EQ(v.at("schema").str, "sara-run-report/v1");
    EXPECT_EQ(v.at("workload").str, w.name);
    EXPECT_EQ(v.at("config").at("control").str, "cmmc");

    // Compile section: a root span plus the six pipeline phases.
    const json::Value &compile = v.at("compile");
    EXPECT_GT(compile.at("total_ms").num, 0.0);
    const json::Value &phases = compile.at("phases");
    ASSERT_TRUE(phases.isArray());
    ASSERT_EQ(phases.arr.size(), 7u);
    EXPECT_EQ(phases.arr[0].at("name").str, "compile");
    for (const char *name :
         {"unroll", "lower", "partition", "merge", "pnr", "retime"}) {
        bool found = false;
        for (const auto &p : phases.arr)
            found = found || p.at("name").str == name;
        EXPECT_TRUE(found) << "missing phase " << name;
    }
    EXPECT_TRUE(compile.at("resources").has("pcus"));
    EXPECT_TRUE(compile.at("cmmc").has("tokens"));

    // Sim section: cycles, one entry per stall cause, unit activity.
    const json::Value &sim = v.at("sim");
    EXPECT_EQ(sim.at("cycles").num, static_cast<double>(r.sim.cycles));
    const json::Value &stalls = sim.at("stalls");
    ASSERT_EQ(stalls.obj.size(),
              static_cast<size_t>(sim::kNumStallCauses));
    double reported = 0.0;
    for (const auto &[cause, val] : stalls.obj)
        reported += val.num;
    uint64_t expected = 0;
    for (uint64_t c : r.sim.stallTotals)
        expected += c;
    EXPECT_EQ(reported, static_cast<double>(expected));
    ASSERT_TRUE(sim.at("units").isArray());
    EXPECT_FALSE(sim.at("units").arr.empty());
    EXPECT_TRUE(sim.at("units").arr[0].at("stalls").has("input-data"));
    EXPECT_TRUE(sim.at("dram").has("bytes"));

    EXPECT_TRUE(v.at("check").at("checked").boolean);
    EXPECT_TRUE(v.at("check").at("correct").boolean);

    // writeJsonReport produces the same document on disk.
    std::string path = testing::TempDir() + "report.json";
    runtime::writeJsonReport(path, w, rc, r);
    json::Value ondisk = json::parse(slurp(path));
    EXPECT_EQ(ondisk.at("schema").str, "sara-run-report/v1");
    EXPECT_EQ(ondisk.at("sim").at("cycles").num, sim.at("cycles").num);
    std::remove(path.c_str());
}

} // namespace
} // namespace sara
