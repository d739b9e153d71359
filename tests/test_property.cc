/**
 * @file
 * Property test: for randomly generated nested programs (random loop
 * nests, branches, do-while, dynamic bounds, affine and indirect
 * accesses, reductions, par factors), the memory state after spatially
 * pipelined CMMC execution equals the sequential interpreter's —
 * across optimization variants and partitioners. The simulated timing
 * of every generated program (fixed-latency and NoC runs) is pinned by
 * tests/golden/property_sim.txt.
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

    // The same compiled program on the cycle-level NoC model.
    sim::SimOptions so;
    so.useNoc = true;
    so.noc.hopLatency = v.opt.spec.net.hopLatency;
    so.noc.ejectLatency = v.opt.spec.net.ejectLatency;
    so.noc.minLatency = v.opt.spec.net.minLatency;
    sim::Simulator noc(res.compiled.program, res.compiled.lowering.graph,
                       dram::DramSpec::hbm2(), so);
    for (const auto &[tid, data] : generated.dramInputs)
        noc.setDramTensor(ir::TensorId(tid), data);
    sim::SimResult nocRes = noc.run();

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
