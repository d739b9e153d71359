/**
 * @file
 * End-to-end CLI tests: drives the real sarac binary (path injected by
 * CMake as SARAC_PATH; sarad's as SARAD_PATH; the bench binaries sit
 * in BENCH_DIR) and checks the exit-code contract — 0 success (and
 * --help), 2 usage, 3 invalid input / exhausted cycle budget, 4
 * internal — plus the artifact emit/load flags and cache-cold vs
 * cache-warm --batch.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <tuple>

namespace {

namespace fs = std::filesystem;

struct CmdResult
{
    int exitCode = -1;
    std::string output; ///< stdout + stderr, interleaved.
};

/** Run `binary args`; `redirect` picks what the pipe captures
 *  (default: stdout and stderr interleaved). */
CmdResult
runTool(const std::string &binary, const std::string &args,
        const std::string &redirect = "2>&1")
{
    std::string cmd = binary + " " + args + " " + redirect;
    std::FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << cmd;
    CmdResult r;
    std::array<char, 4096> buf;
    size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), n);
    int status = pclose(pipe);
    r.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return r;
}

CmdResult
runSarac(const std::string &args)
{
    return runTool(SARAC_PATH, args);
}

struct TempDir
{
    fs::path path;
    explicit TempDir(const std::string &name)
        : path(fs::temp_directory_path() / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

TEST(Cli, SuccessfulRunExitsZero)
{
    auto r = runSarac("ms --par 8 --check");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("verification: PASS"), std::string::npos)
        << r.output;
}

TEST(Cli, NocRunVerifiesAndPrintsLinkStats)
{
    // --noc-stats implies --noc; the run must still verify (the NoC
    // only changes timing) and print the network summary + link table.
    auto r = runSarac("ms --par 8 --check --noc-stats");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("verification: PASS"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("noc:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("wait-cycles"), std::string::npos)
        << r.output;
}

TEST(Cli, CountersFlagRendersTableAndHeatmap)
{
    auto r = runSarac("ms --par 8 --counters");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("-- per-unit performance counters --"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("fabric utilization"), std::string::npos)
        << r.output;
    // Engine rows carry a kind and a placement.
    EXPECT_NE(r.output.find("pcu"), std::string::npos) << r.output;
}

/** A usage error: exit 2, nothing on stdout, the usage on stderr. */
void
expectUsageError(const std::string &binary, const std::string &args)
{
    auto out = runTool(binary, args, "2>/dev/null");
    EXPECT_EQ(out.exitCode, 2) << binary << " " << args;
    EXPECT_EQ(out.output, "") << binary << " " << args;
    auto err = runTool(binary, args, "2>&1 >/dev/null");
    EXPECT_NE(err.output.find("usage: "), std::string::npos)
        << binary << " " << args << ": " << err.output;
}

TEST(Cli, UsageErrorsExitTwo)
{
    // Unknown flags, a missing workload, two workloads without
    // --batch, missing or malformed values, and names outside an
    // enum flag's list.
    for (const char *args :
         {"--frobnicate", "", "mlp lstm", "mlp --par abc", "mlp --par 2x",
          "mlp --max-cycles x", "mlp --par", "ms --par 4 --dram foo",
          "ms --par 4 --chip foo", "ms --par 4 --control foo",
          "ms --par 4 --partitioner foo"})
        expectUsageError(SARAC_PATH, args);
    // --par and --scale outside the ranges sarad requests accept
    // (--par 0 used to die of SIGFPE, --scale 0 of an internal
    // assertion); the reason names the range.
    for (const auto &[args, range] :
         {std::pair{"mlp --par 0", "[1, 4096]"}, {"rf --par 0", "[1, 4096]"},
          {"sort --par 0", "[1, 4096]"}, {"mlp --par -4", "[1, 4096]"},
          {"mlp --par 4097", "[1, 4096]"}, {"mlp --scale 0", "[1, 1024]"},
          {"mlp --scale -1", "[1, 1024]"},
          {"mlp --scale 1025", "[1, 1024]"}}) {
        expectUsageError(SARAC_PATH, args);
        auto err = runTool(SARAC_PATH, args, "2>&1 >/dev/null");
        EXPECT_NE(err.output.find(range), std::string::npos)
            << args << ": " << err.output;
    }
    // Thread counts outside [1, 256] and retries outside [0, 100]
    // (--retries 2147483647 would overflow the attempt count). An
    // over-range thread count is tested with 257, never a huge value:
    // a binary that wrongly accepted it would start that many threads.
    const std::string sarad = std::string("timeout 10 ") + SARAD_PATH;
    const std::string bench = std::string("timeout 10 ") + BENCH_DIR;
    for (const auto &[binary, args, range] :
         {std::tuple{std::string(SARAC_PATH), "--batch ms -j 0", "[1, 256]"},
          {SARAC_PATH, "--batch ms -j -2", "[1, 256]"},
          {SARAC_PATH, "--batch ms -j 257", "[1, 256]"},
          {SARAC_PATH, "ms --retries -1", "[0, 100]"},
          {SARAC_PATH, "ms --retries 101", "[0, 100]"},
          {SARAC_PATH, "ms --retries 2147483647", "[0, 100]"},
          // A value sarad wrongly accepted would start serving: the
          // timeout turns that into a failed check, not a hung test.
          {sarad, "--workers 0", "[1, 256]"},
          {sarad, "--workers 257", "[1, 256]"},
          {sarad, "--retries -1", "[0, 100]"},
          {sarad, "--retries 2147483647", "[0, 100]"},
          // Durations and weights must be finite and in range: NaN
          // never half-opens a breaker, 1e12 overflows the watchdog's
          // tick, and an infinite weight starves every other tenant.
          {sarad, "--read-deadline-ms nan", "[0, 86400000]"},
          {sarad, "--request-deadline-ms 1e12", "[0, 86400000]"},
          {sarad, "--breaker-cooldown-ms -1", "[0, 86400000]"},
          {sarad, "--tenant-weight a=inf", "[0.001, 1000]"},
          {sarad, "--tenant-weight a=0", "[0.001, 1000]"},
          {bench + "/bench_fig10_opts", "-j 0", "[1, 256]"},
          {bench + "/bench_serve", "--workers 257", "[1, 256]"}}) {
        expectUsageError(binary, args);
        auto err = runTool(binary, args, "2>&1 >/dev/null");
        EXPECT_NE(err.output.find(range), std::string::npos)
            << binary << " " << args << ": " << err.output;
    }
    for (const char *args :
         {"--workers abc", "--max-conns zz", "--workers",
          "--queue-depth -1"})
        expectUsageError(sarad, args);
}

TEST(Cli, HelpPrintsUsageOnStdoutAndExitsZero)
{
    for (const char *binary : {SARAC_PATH, SARAD_PATH}) {
        for (const char *flag : {"--help", "-h"}) {
            auto r = runTool(binary, flag, "2>/dev/null");
            EXPECT_EQ(r.exitCode, 0) << binary << " " << flag;
            EXPECT_EQ(r.output.rfind("usage: ", 0), 0u)
                << binary << " " << flag << ": " << r.output;
        }
        // A usage error still prints to stderr and exits 2.
        auto bad = runTool(binary, "--frobnicate", "2>/dev/null");
        EXPECT_EQ(bad.exitCode, 2) << binary;
        EXPECT_EQ(bad.output, "") << binary;
    }
}

TEST(Cli, BenchBinariesFollowTheUsageContract)
{
    for (const char *name :
         {"bench_chaos", "bench_fig9_scaling", "bench_fig10_opts",
          "bench_fig11_partition", "bench_graph", "bench_serve",
          "bench_table5_pc", "bench_table6_gpu"}) {
        std::string binary = std::string(BENCH_DIR) + "/" + name;
        auto help = runTool(binary, "--help", "2>/dev/null");
        EXPECT_EQ(help.exitCode, 0) << name;
        EXPECT_EQ(help.output.rfind("usage: ", 0), 0u)
            << name << ": " << help.output;
        // Usage errors print only to stderr and exit 2.
        auto bad = runTool(binary, "--bogus", "2>/dev/null");
        EXPECT_EQ(bad.exitCode, 2) << name;
        EXPECT_EQ(bad.output, "") << name;
        auto why = runTool(binary, "--bogus", "2>&1 >/dev/null");
        EXPECT_NE(why.output.find("usage: "), std::string::npos)
            << name << ": " << why.output;
    }
}

TEST(Cli, UnknownWorkloadExitsNonzero)
{
    auto r = runSarac("not-a-workload");
    EXPECT_EQ(r.exitCode, 3) << r.output;
    EXPECT_NE(r.output.find("unknown workload"), std::string::npos);
    // The error names the valid choices, graph models included.
    EXPECT_NE(r.output.find("valid:"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("mlp_graph"), std::string::npos)
        << r.output;
}

TEST(Cli, GraphFileCompilesAndVerifies)
{
    auto r = runSarac(std::string("--graph ") + EXAMPLES_DIR +
                      "/mlp.graph.json --check");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("model mlp_graph"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("fc1"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("verification: PASS"), std::string::npos)
        << r.output;
}

TEST(Cli, GraphFileWithSyntaxErrorExitsThree)
{
    TempDir dir("sara_cli_badgraph");
    fs::path bad = dir.path / "bad.graph.json";
    std::FILE *f = std::fopen(bad.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema\": \"sara-graph/v1\", \"name\": \"g\"}\n", f);
    std::fclose(f);
    auto r = runSarac("--graph " + bad.string());
    EXPECT_EQ(r.exitCode, 3) << r.output;
    EXPECT_NE(r.output.find("bad.graph.json"), std::string::npos)
        << r.output;
}

TEST(Cli, ExhaustedCycleBudgetExitsNonzero)
{
    // A 10-cycle budget cannot finish any workload: the simulator's
    // livelock valve must surface as a clean internal-failure exit
    // (4, like a detected deadlock), not an abort.
    auto r = runSarac("ms --par 8 --max-cycles 10");
    EXPECT_EQ(r.exitCode, 4) << r.output;
    EXPECT_NE(r.output.find("exceeded"), std::string::npos) << r.output;
}

TEST(Cli, ExhaustedCycleBudgetClassifiedWithDiagnosis)
{
    // The overrun goes through the wait-for graph classifier: a
    // structured failure report flagged as a budget overrun,
    // classified livelock (no wait cycle closes over engines that are
    // still making progress).
    TempDir tmp("sara-cli-budget-test");
    std::string json = (tmp.path / "failure.json").string();
    auto r = runSarac("ms --par 8 --max-cycles 10 --json " + json);
    EXPECT_EQ(r.exitCode, 4) << r.output;
    EXPECT_NE(r.output.find("exceeded"), std::string::npos) << r.output;
    std::FILE *f = std::fopen(json.c_str(), "r");
    ASSERT_NE(f, nullptr) << "no failure report written";
    std::string doc;
    std::array<char, 4096> buf;
    size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), f)) > 0)
        doc.append(buf.data(), n);
    std::fclose(f);
    EXPECT_NE(doc.find("\"sara-failure-report/v1\""), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"budget_exceeded\":true"), std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"classification\":\"starvation-livelock\""),
              std::string::npos)
        << doc;
}

TEST(Cli, ExhaustedCycleBudgetListsFiringEngineAsRunning)
{
    // rd_dInMs_1 fires at every cycle up to the 10-cycle budget, so
    // the overrun snapshot finds it unparked: the report says it was
    // running, not that it waits on some unknown resource, and the
    // classification stays starvation-livelock.
    TempDir tmp("sara-cli-budget-running");
    std::string json = (tmp.path / "failure.json").string();
    auto r = runSarac("ms --par 8 --max-cycles 10 --json " + json);
    EXPECT_EQ(r.exitCode, 4) << r.output;
    EXPECT_NE(r.output.find("rd_dInMs_1: running"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("unknown"), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("@10 fire rd_dInMs_1"), std::string::npos)
        << r.output;
    std::ifstream in(json);
    std::string doc((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_NE(doc.find("\"classification\":\"starvation-livelock\""),
              std::string::npos)
        << doc;
    EXPECT_NE(doc.find("\"unit\":\"rd_dInMs_1\",\"wants\":\"\","
                       "\"resource\":\"\",\"provider_finished\":false,"
                       "\"running\":true"),
              std::string::npos)
        << doc;
}

TEST(Cli, ArtifactEmitLoadRoundTrip)
{
    TempDir tmp("sara-cli-artifact");
    std::string file = (tmp.path / "ms.sara").string();

    auto emit = runSarac("ms --par 8 --emit-artifact " + file);
    EXPECT_EQ(emit.exitCode, 0) << emit.output;
    EXPECT_TRUE(fs::exists(file));

    auto load =
        runSarac("ms --par 8 --load-artifact " + file + " --check");
    EXPECT_EQ(load.exitCode, 0) << load.output;
    EXPECT_NE(load.output.find("loaded from artifact"),
              std::string::npos)
        << load.output;
    EXPECT_NE(load.output.find("verification: PASS"),
              std::string::npos);

    // A corrupt artifact degrades to a fresh compile, still exit 0.
    {
        std::FILE *f = std::fopen(file.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f);
        std::fclose(f);
    }
    auto corrupt = runSarac("ms --par 8 --load-artifact " + file);
    EXPECT_EQ(corrupt.exitCode, 0) << corrupt.output;
    EXPECT_NE(corrupt.output.find("falling back"), std::string::npos)
        << corrupt.output;
}

TEST(Cli, BatchColdThenWarmCache)
{
    TempDir tmp("sara-cli-batch-cache");
    std::string common =
        "--batch ms bs sgd --par 8 -j 2 --cache-dir " +
        tmp.path.string();

    auto cold = runSarac(common);
    EXPECT_EQ(cold.exitCode, 0) << cold.output;
    EXPECT_NE(cold.output.find("cache 0 hits / 3 misses"),
              std::string::npos)
        << cold.output;

    auto warm = runSarac(common);
    EXPECT_EQ(warm.exitCode, 0) << warm.output;
    EXPECT_NE(warm.output.find("cache 3 hits / 0 misses"),
              std::string::npos)
        << warm.output;
    EXPECT_NE(warm.output.find("[cached]"), std::string::npos);
}

TEST(Cli, BatchFailureExitsNonzero)
{
    auto r = runSarac("--batch ms not-a-workload --par 8 -j 1");
    EXPECT_EQ(r.exitCode, 1) << r.output;
    EXPECT_NE(r.output.find("FAILED"), std::string::npos) << r.output;
}

// --- Fault injection & hang diagnosis --------------------------------------

TEST(Cli, BenignInjectionStillExitsZero)
{
    // A timing-only fault slows the run but completes and verifies.
    auto r = runSarac("ms --par 8 --check "
                      "--inject dram-tail@0.5:delay=100 --inject-seed 3");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("verification: PASS"), std::string::npos)
        << r.output;
}

TEST(Cli, MalformedInjectSpecExitsThree)
{
    auto r = runSarac("ms --par 8 --inject no-such-fault");
    EXPECT_EQ(r.exitCode, 3) << r.output;
    EXPECT_NE(r.output.find("unknown fault kind"), std::string::npos)
        << r.output;
}

TEST(Cli, InjectedHangIsClassifiedAndExitsFour)
{
    TempDir tmp("sara-cli-hang-test");
    std::string json = (tmp.path / "failure.json").string();
    auto r = runSarac("ms --par 8 --noc "
                      "--inject stuck-credit:window=200-:delay=64 "
                      "--json " + json);
    EXPECT_EQ(r.exitCode, 4) << r.output;
    EXPECT_NE(r.output.find("injected-fault-induced"),
              std::string::npos)
        << r.output;
    // The structured FailureReport landed in the report file.
    std::FILE *f = std::fopen(json.c_str(), "r");
    ASSERT_NE(f, nullptr) << "no failure report written";
    std::string doc;
    std::array<char, 4096> buf;
    size_t n;
    while ((n = fread(buf.data(), 1, buf.size(), f)) > 0)
        doc.append(buf.data(), n);
    std::fclose(f);
    EXPECT_NE(doc.find("\"sara-failure-report/v1\""), std::string::npos);
    EXPECT_NE(doc.find("\"injected-fault-induced\""), std::string::npos);
    EXPECT_NE(doc.find("\"culprit_site\""), std::string::npos);
    // The flight-recorder timeline rode along with the diagnosis.
    EXPECT_NE(doc.find("\"timeline\""), std::string::npos);
    EXPECT_NE(doc.find("\"timeline_dropped\""), std::string::npos);
}

TEST(Cli, FlatHangWithoutDiagnosisStillExitsFour)
{
    auto r = runSarac("ms --par 8 --noc "
                      "--inject stuck-credit:window=200-:delay=64");
    EXPECT_EQ(r.exitCode, 4) << r.output;
    // Legacy panic path, now with stall histograms (no classifier).
    EXPECT_NE(r.output.find("stalls:"), std::string::npos) << r.output;
}

} // namespace
