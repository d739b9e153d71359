/**
 * @file
 * Property test: for randomly generated nested programs (random loop
 * nests, branches, do-while, dynamic bounds, affine and indirect
 * accesses, reductions, par factors), the memory state after spatially
 * pipelined CMMC execution equals the sequential interpreter's —
 * across optimization variants and partitioners, on fixed-latency and
 * NoC runs. The simulated timing of every generated program is pinned
 * by tests/golden/property_sim.txt, and must not move when each
 * cycle's events run in a seeded permutation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "ir/builder.h"
#include "support/rng.h"
#include "tests/helpers.h"
#include "tests/program_gen.h"

namespace sara {
namespace {

using namespace ir;
using test::ProgramGen;
using test::runAndCompare;

struct Variant
{
    const char *name;
    compiler::CompilerOptions opt;
};

Variant
makeVariant(int which)
{
    Variant v;
    v.opt = test::tinyOptions();
    switch (which) {
      case 0:
        v.name = "all-opts";
        break;
      case 1:
        v.name = "no-opts";
        v.opt.enableMsr = false;
        v.opt.enableRtelm = false;
        v.opt.enableXbarElm = false;
        v.opt.enableMultibuffer = false;
        v.opt.enableControlReduction = false;
        v.opt.enableRetime = false;
        break;
      case 2:
        v.name = "bfs-bwd";
        v.opt.partitioner = compiler::PartitionAlgo::BfsBwd;
        break;
      default:
        v.name = "deep-multibuffer";
        v.opt.multibufferDepth = 3;
        break;
    }
    return v;
}

/** One golden line: the run's timing and host-event counters. */
std::string
timingLine(const std::string &key, const sim::SimResult &r)
{
    std::ostringstream os;
    os << key << " cycles=" << r.cycles << " hostEvents=" << r.hostEvents
       << " wakeups=" << r.wakeups << " spurious=" << r.spuriousWakeups
       << " stalls=";
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        os << (c ? "," : "") << r.stallTotals[c];
    return os.str();
}

/** Simulate the compiled program on `so` (inputs preset). */
sim::SimResult
simulate(const test::E2EResult &res, const sim::SimOptions &so,
         const std::map<int32_t, std::vector<double>> &dramInputs)
{
    sim::Simulator s(res.compiled.program, res.compiled.lowering.graph,
                     dram::DramSpec::hbm2(), so);
    for (const auto &[tid, data] : dramInputs)
        s.setDramTensor(ir::TensorId(tid), data);
    return s.run();
}

/** Cycles and stall totals do not depend on the host's order of each
 *  cycle's events (three seeded permutations). */
void
expectInterleaveFree(const sim::SimResult &want, const test::E2EResult &res,
                     const sim::SimOptions &so,
                     const std::map<int32_t, std::vector<double>> &inputs,
                     const char *mode)
{
    for (uint64_t seed : {1, 2, 3}) {
        sim::Scheduler::ScopedShuffle shuffle(seed);
        const sim::SimResult got = simulate(res, so, inputs);
        EXPECT_EQ(got.cycles, want.cycles) << mode << " seed " << seed;
        EXPECT_EQ(got.stallTotals, want.stallTotals)
            << mode << " seed " << seed;
    }
}

/**
 * Compare `lines` (keyed by their first two fields) against the golden
 * file; with SARA_UPDATE_GOLDEN set, replace those entries instead.
 * Each case rewrites the whole file, so regenerate from one process.
 */
void
checkTimingGolden(const std::vector<std::string> &lines)
{
    const std::string golden =
        std::string(GOLDEN_DIR) + "/property_sim.txt";
    const std::string howTo =
        "; if the change is intended, regenerate tests/golden/"
        "property_sim.txt with SARA_UPDATE_GOLDEN=1 test_property";
    auto keyOf = [](const std::string &line) {
        size_t sp = line.find(' ', line.find(' ') + 1);
        return line.substr(0, sp);
    };
    // Keyed "seed/variant mode", sorted by seed then variant.
    auto order = [](const std::string &a, const std::string &b) {
        int sa = std::atoi(a.c_str()), sb = std::atoi(b.c_str());
        return sa != sb ? sa < sb : a < b;
    };
    std::map<std::string, std::string, decltype(order)> want(order);
    {
        std::ifstream in(golden);
        for (std::string line; std::getline(in, line);)
            if (!line.empty())
                want[keyOf(line)] = line;
    }
    if (std::getenv("SARA_UPDATE_GOLDEN")) {
        for (const auto &line : lines)
            want[keyOf(line)] = line;
        std::ofstream out(golden);
        for (const auto &[key, line] : want)
            out << line << "\n";
        return;
    }
    for (const auto &line : lines) {
        auto it = want.find(keyOf(line));
        ASSERT_NE(it, want.end())
            << keyOf(line) << ": no golden timing" << howTo;
        EXPECT_EQ(it->second, line) << "simulated timing changed" << howTo;
    }
}

class CmmcProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CmmcProperty, MatchesSequentialSemantics)
{
    auto [seed, variantIdx] = GetParam();
    ProgramGen gen(static_cast<uint64_t>(seed) * 7919 + 13);
    auto generated = gen.generate();
    Variant v = makeVariant(variantIdx);
    SCOPED_TRACE(std::string("variant=") + v.name +
                 " seed=" + std::to_string(seed));
    auto res = runAndCompare(generated.program, v.opt, generated.dramInputs);
    expectInterleaveFree(res.sim, res, sim::SimOptions{},
                         generated.dramInputs, "fixed");

    // The same compiled program on the cycle-level NoC model.
    sim::SimOptions so;
    so.useNoc = true;
    so.noc.hopLatency = v.opt.spec.net.hopLatency;
    so.noc.ejectLatency = v.opt.spec.net.ejectLatency;
    so.noc.minLatency = v.opt.spec.net.minLatency;
    const sim::SimResult nocRes = simulate(res, so, generated.dramInputs);
    test::expectMatchesInterpreter(res.compiled.program, nocRes, res.ref);
    expectInterleaveFree(nocRes, res, so, generated.dramInputs, "noc");

    const std::string key =
        std::to_string(seed) + "/" + std::to_string(variantIdx);
    checkTimingGolden({timingLine(key + " fixed", res.sim),
                       timingLine(key + " noc", nocRes)});
}

INSTANTIATE_TEST_SUITE_P(
    RandomPrograms, CmmcProperty,
    ::testing::Combine(::testing::Range(1, 41),
                       ::testing::Range(0, 4)));

} // namespace
} // namespace sara
