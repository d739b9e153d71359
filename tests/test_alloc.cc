/**
 * @file
 * Allocation gate for the simulator's fire path. This binary replaces
 * the global operator new with a counting one (test-only: src/ defines
 * no allocation operators). Each case runs one simulation first, then
 * counts every heap allocation made inside a second Simulator::run() —
 * coroutine frames, NoC flits, FIFO storage and scheduler storage
 * alike — and bounds it below 0.1 per firing. Each engine runs as one
 * coroutine frame allocated from the heap, so a frame per firing would
 * read at least one allocation per firing, and an element buffer per
 * pushed firing (rather than the streams' preallocated rings) would
 * read more than 0.1: the gate pins both.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "compiler/driver.h"
#include "sim/simulator.h"
#include "workloads/workload.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

} // namespace

// Out of line: this file's own new/delete calls must not see the
// malloc/free pairing underneath.
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// The library's array and nothrow forms forward to these.
[[gnu::noinline]] void operator delete(void *p) noexcept { std::free(p); }
[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace sara {
namespace {

struct AllocCase
{
    std::string workload;
    int par;
    bool noc;
    bool ddr3 = false;
};

void
PrintTo(const AllocCase &c, std::ostream *os)
{
    *os << c.workload << " par " << c.par << (c.ddr3 ? " ddr3" : "")
        << (c.noc ? " noc" : " fixed");
}

std::string
caseName(const testing::TestParamInfo<AllocCase> &info)
{
    return info.param.workload + "_par" + std::to_string(info.param.par) +
           (info.param.ddr3 ? "_ddr3" : "") +
           (info.param.noc ? "_noc" : "_fixed");
}

class FirePathAllocs : public testing::TestWithParam<AllocCase>
{
};

TEST_P(FirePathAllocs, WarmRunAllocatesUnderTenthPerFiring)
{
    const AllocCase &c = GetParam();
    workloads::WorkloadConfig cfg;
    cfg.par = c.par;
    auto w = workloads::buildByName(c.workload, cfg);
    compiler::CompilerOptions copt;
    auto compiled = compiler::compile(w.program, copt);

    sim::SimOptions so;
    so.useNoc = c.noc;
    so.noc.hopLatency = copt.spec.net.hopLatency;
    so.noc.ejectLatency = copt.spec.net.ejectLatency;
    so.noc.minLatency = copt.spec.net.minLatency;
    auto simulate = [&](uint64_t *allocs) {
        sim::Simulator s(compiled.program, compiled.lowering.graph,
                         c.ddr3 ? dram::DramSpec::ddr3()
                                : dram::DramSpec::hbm2(),
                         so);
        for (const auto &[tid, data] : w.dramInputs)
            s.setDramTensor(ir::TensorId(tid), data);
        uint64_t before = g_allocs.load(std::memory_order_relaxed);
        sim::SimResult r = s.run();
        if (allocs)
            *allocs = g_allocs.load(std::memory_order_relaxed) - before;
        return r;
    };

    sim::SimResult warm = simulate(nullptr);
    uint64_t allocs = 0;
    sim::SimResult r = simulate(&allocs);
    ASSERT_EQ(r.cycles, warm.cycles);
    ASSERT_GT(r.totalFirings, 0u);
    double perFiring = static_cast<double>(allocs) /
                       static_cast<double>(r.totalFirings);
    EXPECT_LT(perFiring, 0.1)
        << allocs << " allocations over " << r.totalFirings
        << " firings";
}

INSTANTIATE_TEST_SUITE_P(
    SimSteady, FirePathAllocs,
    testing::Values(AllocCase{"mlp", 8, false}, AllocCase{"mlp", 8, true},
                    AllocCase{"pr", 8, true}, AllocCase{"lstm", 8, false},
                    AllocCase{"rf", 16, false, /*ddr3=*/true}),
    caseName);

} // namespace
} // namespace sara
