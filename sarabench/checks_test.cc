/**
 * @file
 * The benchmark's own tests: each output check really fails. One
 * perturbation per output kind (a tensor element, a cycle count, an
 * artifact byte, a response status) must turn a passing op into a
 * failed one, so `failed` in the result is live. Also pins the CLI
 * contract and the span reconciliation.
 */

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "bench.h"
#include "runtime/run.h"
#include "serve/client.h"

using namespace sarabench;

namespace {

TEST(Checks, TensorElementAndCycleCountFailTheSimOp)
{
    SimPath p({{"ms", 4, 1, false, false}}, 7);
    p.setup();
    ASSERT_TRUE(p.runOp(0, nullptr, nullptr, nullptr).ok);

    // Perturb one element of a tensor the simulator materializes.
    auto &e = p.entries[0];
    runtime::RunConfig rc;
    rc.preCompiled = &e.compiled;
    auto out = runtime::runWorkload(e.w, rc);
    size_t t = 0;
    while (t < out.sim.tensors.size() && out.sim.tensors[t].empty())
        ++t;
    ASSERT_LT(t, out.sim.tensors.size());
    e.refTensors[t][0] += 1.0;
    EXPECT_FALSE(p.runOp(0, nullptr, nullptr, nullptr).ok);
    e.refTensors[t][0] -= 1.0;
    ASSERT_TRUE(p.runOp(0, nullptr, nullptr, nullptr).ok);

    e.refCycles += 1;
    LoopStats st(1);
    p.loop(st, 0.0, 1);
    EXPECT_EQ(st.attempted, 1u);
    EXPECT_EQ(st.failed, 1u);
}

TEST(Checks, ArtifactByteFailsTheCompileOp)
{
    CompilePath p({{"bs", 4, false}}, 7);
    p.setup();
    ASSERT_TRUE(p.runOp(0, nullptr, nullptr).ok);
    auto &bytes = p.keys[0].refBytes;
    bytes[bytes.size() / 2] ^= 1;
    LoopStats st(1);
    p.loop(st, 0.0, 1);
    EXPECT_EQ(st.failed, st.attempted);
    EXPECT_GE(st.failed, 1u);
}

TEST(Checks, ResponseStatusAndCyclesFailTheServeOp)
{
    std::filesystem::create_directories("sarabench-test");
    ServePath::Kind k;
    k.workload = "ms";
    k.par = 4;
    k.check = true;
    ServePath p({k}, 7, "sarabench-test");
    p.setup();
    LoopStats good(1);
    p.loop(good, 0.2, 1);
    EXPECT_GE(good.attempted, 1u);
    EXPECT_EQ(good.failed, 0u);

    serve::Client client(p.socketPath());
    serve::Request req;
    req.id = "x";
    req.verb = serve::Verb::Run;
    req.workload = "ms";
    req.par = 4;
    req.check = true;
    json::Value v = client.call(req);
    ASSERT_TRUE(responseOk(v, p.kinds[0].expect));
    for (auto &[key, val] : v.obj)
        if (key == "status")
            val.str = "error";
    EXPECT_FALSE(responseOk(v, p.kinds[0].expect));

    p.kinds[0].expect.cycles += 1;
    LoopStats bad(1);
    p.loop(bad, 0.2, 1);
    EXPECT_GE(bad.attempted, 1u);
    EXPECT_EQ(bad.failed, bad.attempted);
    p.stop();
    std::filesystem::remove_all("sarabench-test");
}

TEST(Trace, SelfTimesReconcileWithOpWall)
{
    Tracer t;
    {
        Scope op(&t, "op");
        Scope run(&t, "runtime.run_workload");
    }
    // A derived child larger than its parent is scaled down to fit.
    t.derive(1, {{"sim.run", 1e9}});
    auto r = t.layerReport();
    EXPECT_LT(r["trace.reconcile_err_ms"], 1e-9);
    EXPECT_EQ(r["trace.spans"], 3.0);
    EXPECT_NEAR(r["runtime.self_ms"], 0.0, 1e-9);
}

int
exitCode(const std::string &args)
{
    std::string cmd = std::string(SARABENCH_BIN) + " " + args +
                      " >/dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(Cli, UsageErrorsExitTwoAndHelpExitsZero)
{
    EXPECT_EQ(exitCode("--help"), 0);
    EXPECT_EQ(exitCode("--bogus 1"), 2);
    EXPECT_EQ(exitCode("--workload sim_steady --seed abc"), 2);
    EXPECT_EQ(exitCode("--workload sim_steady --seconds 1x"), 2);
    EXPECT_EQ(exitCode("--workload nope --seed 1"), 2);
    EXPECT_EQ(exitCode("--workload sim_steady --trace"), 2);
}

} // namespace
