/**
 * @file
 * Artifact subsystem tests: lossless round-trips of compiled programs
 * (byte-level, textual, and — the bar that matters — cycle-for-cycle
 * identical simulation), deterministic re-compilation and content
 * keys, container corruption detection, and the on-disk cache
 * (hit/miss/corrupt counters, LRU trim).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "artifact/artifact.h"
#include "artifact/cache.h"
#include "fault/fault.h"
#include "sim/simulator.h"
#include "support/logging.h"
#include "support/hash.h"
#include "support/telemetry.h"
#include "workloads/workload.h"

namespace sara {
namespace {

namespace fs = std::filesystem;

compiler::CompilerOptions
testOptions()
{
    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::paper();
    opt.pnrIterations = 200;
    return opt;
}

/** Simulate a compiled result the way runtime::runWorkload does. */
sim::SimResult
simulate(const workloads::Workload &w, const compiler::CompileResult &r,
         bool useNoc = false)
{
    sim::SimOptions opt;
    // The NoC replays the routes the artifact carries, so a decoded
    // artifact must also be cycle-identical under `--noc` (the default
    // NocSpec mirrors arch::NetSpec, Cmmc control routes tokens).
    opt.useNoc = useNoc;
    sim::Simulator simulator(r.program, r.lowering.graph,
                             dram::DramSpec::hbm2(), opt);
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    return simulator.run();
}

/** A scratch directory wiped on destruction. */
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

// --- Round trips -----------------------------------------------------------

TEST(Artifact, ProgramRoundTripsTextually)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    for (const auto &name : workloads::workloadNames()) {
        auto w = workloads::buildByName(name, cfg);
        artifact::Encoder e;
        artifact::encodeProgram(e, w.program);
        artifact::Decoder d(e.buffer());
        ir::Program back = artifact::decodeProgram(d);
        d.expectEnd();
        EXPECT_EQ(w.program.str(), back.str()) << name;
    }
}

TEST(Artifact, CompileResultRoundTripIsCycleIdentical)
{
    // The acceptance bar: for every registered workload, simulating
    // the decoded artifact must be indistinguishable from simulating
    // the original compile.
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto opt = testOptions();
    for (const auto &name : workloads::workloadNames()) {
        auto w = workloads::buildByName(name, cfg);
        auto r = compiler::compile(w.program, opt);

        std::string payload = artifact::encodeCompileResult(r);
        auto back = artifact::decodeCompileResult(payload);

        EXPECT_EQ(r.program.str(), back.program.str()) << name;
        EXPECT_EQ(r.lowering.graph.str(), back.lowering.graph.str())
            << name;
        EXPECT_EQ(r.resources.str(), back.resources.str()) << name;
        EXPECT_EQ(r.partitionsCreated, back.partitionsCreated) << name;
        EXPECT_EQ(r.unitsMerged, back.unitsMerged) << name;

        // Physical routes survive the trip (v2 codec): the graph dump
        // omits them, so compare link by link.
        const auto &sa = r.lowering.graph.streams();
        const auto &sb = back.lowering.graph.streams();
        ASSERT_EQ(sa.size(), sb.size()) << name;
        for (size_t i = 0; i < sa.size(); ++i) {
            ASSERT_EQ(sa[i].route.size(), sb[i].route.size())
                << name << " stream " << sa[i].name;
            for (size_t h = 0; h < sa[i].route.size(); ++h)
                EXPECT_TRUE(sa[i].route[h] == sb[i].route[h])
                    << name << " stream " << sa[i].name << " hop " << h;
        }

        auto simA = simulate(w, r);
        auto simB = simulate(w, back);
        EXPECT_EQ(simA.cycles, simB.cycles) << name;
        EXPECT_EQ(simA.totalFirings, simB.totalFirings) << name;
        EXPECT_EQ(simA.flops, simB.flops) << name;
        EXPECT_EQ(simA.dramBytes, simB.dramBytes) << name;
        EXPECT_EQ(simA.dramRequests, simB.dramRequests) << name;
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            EXPECT_EQ(simA.stallTotals[c], simB.stallTotals[c])
                << name << " stall cause " << c;
        ASSERT_EQ(simA.tensors.size(), simB.tensors.size()) << name;
        for (size_t t = 0; t < simA.tensors.size(); ++t)
            EXPECT_EQ(simA.tensors[t], simB.tensors[t])
                << name << " tensor " << t;

        // And again through the cycle-level NoC: contended timing is a
        // pure function of the routes, so the decoded artifact must
        // replay cycle-for-cycle there too.
        auto nocA = simulate(w, r, /*useNoc=*/true);
        auto nocB = simulate(w, back, /*useNoc=*/true);
        EXPECT_EQ(nocA.cycles, nocB.cycles) << name << " (noc)";
        EXPECT_EQ(nocA.totalFirings, nocB.totalFirings)
            << name << " (noc)";
        EXPECT_EQ(nocA.noc.flits, nocB.noc.flits) << name << " (noc)";
        EXPECT_EQ(nocA.noc.hops, nocB.noc.hops) << name << " (noc)";
        EXPECT_EQ(nocA.noc.queueCycles, nocB.noc.queueCycles)
            << name << " (noc)";
        for (int c = 0; c < sim::kNumStallCauses; ++c)
            EXPECT_EQ(nocA.stallTotals[c], nocB.stallTotals[c])
                << name << " (noc) stall cause " << c;
    }
}

// --- Determinism (satellite: unordered-map iteration audit) ---------------

TEST(Artifact, CompileTwiceYieldsByteIdenticalArtifacts)
{
    // Compiling the same input twice must produce byte-identical
    // encodings — this is what catches unordered-container iteration
    // order leaking into compiler output.
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto opt = testOptions();
    for (const auto &name : {"mlp", "lstm", "sort", "kmeans"}) {
        auto w1 = workloads::buildByName(name, cfg);
        auto w2 = workloads::buildByName(name, cfg);
        auto r1 = compiler::compile(w1.program, opt);
        auto r2 = compiler::compile(w2.program, opt);
        EXPECT_EQ(artifact::encodeCompileResult(r1),
                  artifact::encodeCompileResult(r2))
            << name;
    }
}

// --- Artifact digest golden -------------------------------------------------

/** One compile of the digest golden: the sarabench compile_cold keys. */
struct DigestKey
{
    std::string workload;
    int par = 0;
    bool solver = false;

    std::string
    label() const
    {
        return workload + " par " + std::to_string(par) +
               (solver ? " solver" : "");
    }
};

std::vector<DigestKey>
digestKeys()
{
    std::vector<DigestKey> keys;
    for (const auto &name : workloads::allWorkloadNames())
        for (int par : {4, 8, 16, 32})
            keys.push_back({name, par, false});
    for (auto [name, par] : std::vector<std::pair<const char *, int>>{
             {"bs", 8}, {"bs", 16}, {"bs", 32}, {"lstm", 32},
             {"logreg", 32}, {"rf", 16}})
        keys.push_back({name, par, true});
    return keys;
}

TEST(Artifact, PackedBytesMatchDigestGolden)
{
    // Placement, partitions and token streams are all serialized, so a
    // matching digest proves that the compiler made every decision the
    // same way as the build that wrote the golden.
    const std::string golden =
        std::string(GOLDEN_DIR) + "/artifact_sha256.txt";
    const std::string howTo =
        "; if the change is intended, regenerate tests/golden/"
        "artifact_sha256.txt with SARA_UPDATE_GOLDEN=1 test_artifact "
        "--gtest_filter=Artifact.PackedBytesMatchDigestGolden";

    std::vector<std::pair<std::string, std::string>> got;
    for (const auto &k : digestKeys()) {
        workloads::WorkloadConfig cfg;
        cfg.par = k.par;
        cfg.seed = 42;
        compiler::CompilerOptions opt;
        if (k.solver)
            opt.partitioner = compiler::PartitionAlgo::Solver;
        auto w = workloads::buildByName(k.workload, cfg);
        std::string key = artifact::contentKey(w.program, opt);
        auto r = compiler::compile(w.program, opt);
        got.emplace_back(
            k.label(),
            support::Sha256::hexOf(artifact::packArtifact(key, r)));
    }

    if (std::getenv("SARA_UPDATE_GOLDEN")) {
        std::ofstream out(golden);
        for (const auto &[label, hex] : got)
            out << hex << "  " << label << "\n";
        GTEST_SKIP() << "regenerated " << golden;
    }
    std::ifstream in(golden);
    ASSERT_TRUE(in.good()) << "missing " << golden << howTo;
    std::map<std::string, std::string> want;
    for (std::string line; std::getline(in, line);)
        if (line.size() > 66)
            want[line.substr(66)] = line.substr(0, 64);
    EXPECT_EQ(want.size(), got.size()) << "key set drifted" << howTo;
    for (const auto &[label, hex] : got) {
        auto it = want.find(label);
        ASSERT_NE(it, want.end()) << label << ": no golden digest" << howTo;
        EXPECT_EQ(it->second, hex)
            << label << ": packed artifact bytes changed" << howTo;
    }
}

TEST(Artifact, ContentKeyIsStableAndInputSensitive)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildByName("mlp", cfg);
    auto w2 = workloads::buildByName("mlp", cfg);
    auto opt = testOptions();

    std::string k1 = artifact::contentKey(w.program, opt);
    EXPECT_EQ(k1.size(), 64u); // SHA-256 hex.
    EXPECT_EQ(k1, artifact::contentKey(w2.program, opt));

    // Any knob flip re-keys.
    auto opt2 = opt;
    opt2.enableRetime = false;
    EXPECT_NE(k1, artifact::contentKey(w.program, opt2));

    // A different program re-keys.
    auto wl = workloads::buildByName("lstm", cfg);
    EXPECT_NE(k1, artifact::contentKey(wl.program, opt));

    // A different par factor changes the program, hence the key.
    workloads::WorkloadConfig cfg2;
    cfg2.par = 32;
    auto w32 = workloads::buildByName("mlp", cfg2);
    EXPECT_NE(k1, artifact::contentKey(w32.program, opt));
}

// --- Container integrity ---------------------------------------------------

TEST(Artifact, ContainerDetectsCorruption)
{
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    auto r = compiler::compile(w.program, opt);
    std::string key = artifact::contentKey(w.program, opt);
    std::string bytes = artifact::packArtifact(key, r);

    // The pristine container parses and echoes the key.
    auto loaded = artifact::unpackArtifact(bytes);
    EXPECT_EQ(loaded.key, key);

    // Bad magic.
    {
        std::string bad = bytes;
        bad[0] ^= 0x40;
        EXPECT_THROW(artifact::unpackArtifact(bad),
                     artifact::ArtifactError);
    }
    // Version skew.
    {
        std::string bad = bytes;
        bad[8] = static_cast<char>(0xEE);
        EXPECT_THROW(artifact::unpackArtifact(bad),
                     artifact::ArtifactError);
    }
    // Payload bit-flip breaks the checksum.
    {
        std::string bad = bytes;
        bad[bytes.size() - 7] ^= 0x01;
        EXPECT_THROW(artifact::unpackArtifact(bad),
                     artifact::ArtifactError);
    }
    // Truncation.
    EXPECT_THROW(
        artifact::unpackArtifact(bytes.substr(0, bytes.size() / 2)),
        artifact::ArtifactError);
    EXPECT_THROW(artifact::unpackArtifact(""),
                 artifact::ArtifactError);
    // Trailing garbage.
    EXPECT_THROW(artifact::unpackArtifact(bytes + "x"),
                 artifact::ArtifactError);
}

TEST(Artifact, FileRoundTrip)
{
    TempDir tmp("sara-artifact-file-test");
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    auto r = compiler::compile(w.program, opt);
    std::string key = artifact::contentKey(w.program, opt);

    std::string path = (tmp.path / "ms.sara").string();
    artifact::writeArtifactFile(path, key, r);
    auto loaded = artifact::readArtifactFile(path);
    EXPECT_EQ(loaded.key, key);
    EXPECT_EQ(loaded.result.lowering.graph.str(),
              r.lowering.graph.str());

    EXPECT_THROW(
        artifact::readArtifactFile((tmp.path / "absent.sara").string()),
        artifact::ArtifactError);
}

// --- Cache -----------------------------------------------------------------

TEST(ArtifactCache, MissStoreHit)
{
    TempDir tmp("sara-cache-test");
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    artifact::ArtifactCache cache(tmp.path.string());
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    std::string key = artifact::contentKey(w.program, opt);

    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(reg.counter("artifact.cache.miss"), 1u);
    EXPECT_FALSE(cache.contains(key));

    auto r = compiler::compile(w.program, opt);
    cache.store(key, r);
    EXPECT_EQ(reg.counter("artifact.cache.store"), 1u);
    EXPECT_TRUE(cache.contains(key));

    auto hit = cache.lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(reg.counter("artifact.cache.hit"), 1u);
    EXPECT_EQ(hit->lowering.graph.str(), r.lowering.graph.str());

    reg.setEnabled(false);
}

TEST(ArtifactCache, CorruptEntryIsQuarantinedAndMisses)
{
    TempDir tmp("sara-cache-corrupt-test");
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    artifact::ArtifactCache cache(tmp.path.string());
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    std::string key = artifact::contentKey(w.program, opt);
    cache.store(key, compiler::compile(w.program, opt));

    // Scribble over the stored artifact.
    {
        std::ofstream f(cache.pathFor(key), std::ios::binary);
        f << "not an artifact";
    }
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(reg.counter("artifact.cache.corrupt"), 1u);
    EXPECT_EQ(reg.counter("artifact.cache.quarantined"), 1u);
    // The bad entry is parked, never served and never silently
    // deleted: the caller recompiles, the evidence survives.
    EXPECT_FALSE(fs::exists(cache.pathFor(key)));
    EXPECT_TRUE(fs::exists(cache.quarantinePathFor(key)));
    EXPECT_EQ(cache.quarantinedCount(), 1);

    reg.setEnabled(false);
}

TEST(ArtifactCache, TrimEvictsOldestFirst)
{
    TempDir tmp("sara-cache-trim-test");
    artifact::ArtifactCache cache(tmp.path.string(), /*maxBytes=*/0);
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    auto r = compiler::compile(w.program, opt);

    // Three entries under synthetic keys, with distinct mtimes.
    std::vector<std::string> keys = {std::string(64, 'a'),
                                     std::string(64, 'b'),
                                     std::string(64, 'c')};
    uint64_t each = 0;
    for (const auto &k : keys) {
        cache.store(k, r);
        each = fs::file_size(cache.pathFor(k));
        auto now = fs::last_write_time(cache.pathFor(k));
        // Backdate earlier keys so LRU order is deterministic.
        auto age = std::chrono::seconds(
            10 * (keys.size() - (&k - keys.data())));
        fs::last_write_time(cache.pathFor(k), now - age);
    }

    // Budget for two entries: the oldest ('a') must go.
    int evicted = cache.trim(2 * each + each / 2);
    EXPECT_EQ(evicted, 1);
    EXPECT_FALSE(cache.contains(keys[0]));
    EXPECT_TRUE(cache.contains(keys[1]));
    EXPECT_TRUE(cache.contains(keys[2]));

    EXPECT_EQ(cache.clear(), 2);
    EXPECT_FALSE(cache.contains(keys[1]));
}

TEST(ArtifactCache, TrimHoldsRecentlyOpenedEntries)
{
    TempDir tmp("sara-cache-hold-test");
    artifact::ArtifactCache cache(tmp.path.string(), /*maxBytes=*/0);
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto r = compiler::compile(w.program, testOptions());

    std::string hot(64, 'a'), cold(64, 'b');
    cache.store(hot, r);
    cache.store(cold, r);

    // Open `hot`, then backdate its mtime so plain LRU would pick it
    // as the eviction victim: only the in-memory hold can save it.
    ASSERT_TRUE(cache.lookup(hot).has_value());
    auto now = fs::last_write_time(cache.pathFor(hot));
    fs::last_write_time(cache.pathFor(hot),
                        now - std::chrono::hours(1));

    int evicted = cache.trim(1); // budget forces eviction
    EXPECT_EQ(evicted, 1);
    EXPECT_TRUE(cache.contains(hot));   // held: opened this window
    EXPECT_FALSE(cache.contains(cold)); // evictable, gone

    // Once the window expires the hold lapses and trim reclaims it.
    cache.setTrimWindowMs(0.0);
    EXPECT_EQ(cache.trim(1), 1);
    EXPECT_FALSE(cache.contains(hot));
}

TEST(ArtifactCache, ConcurrentLookupsSurviveTrimChurn)
{
    // Readers hammer one hot entry while another thread stores filler
    // entries and trims to a tiny budget. With hold-or-skip eviction a
    // hit can never dangle on a deleted file, so every lookup of the
    // hot key must succeed (pre-fix, trim could delete it between a
    // reader's existence probe and its read).
    TempDir tmp("sara-cache-churn-test");
    artifact::ArtifactCache cache(tmp.path.string(), /*maxBytes=*/0);
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto r = compiler::compile(w.program, testOptions());

    std::string hot(64, 'f');
    cache.store(hot, r);
    uint64_t each = fs::file_size(cache.pathFor(hot));

    std::atomic<int> misses{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t)
        readers.emplace_back([&] {
            for (int i = 0; i < 50; ++i)
                if (!cache.lookup(hot).has_value())
                    ++misses;
        });
    std::thread churn([&] {
        for (int i = 0; i < 50; ++i) {
            std::string filler = std::string(63, 'e') +
                                 static_cast<char>('0' + i % 10);
            cache.store(filler, r);
            cache.trim(each); // budget of ~one entry
        }
    });
    for (auto &t : readers)
        t.join();
    churn.join();

    EXPECT_EQ(misses.load(), 0);
    EXPECT_TRUE(cache.contains(hot));
}

TEST(CachingCompiler, SecondCompileComesFromCache)
{
    TempDir tmp("sara-cachecompile-test");
    artifact::ArtifactCache cache(tmp.path.string());
    artifact::CachingCompiler cc(&cache);

    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();

    auto first = cc.compile(w.program, opt);
    EXPECT_FALSE(first.fromCache);
    auto second = cc.compile(w.program, opt);
    EXPECT_TRUE(second.fromCache);
    EXPECT_EQ(first.key, second.key);
    EXPECT_EQ(first.result->lowering.graph.str(),
              second.result->lowering.graph.str());

    auto simA = simulate(w, *first.result);
    auto simB = simulate(w, *second.result);
    EXPECT_EQ(simA.cycles, simB.cycles);
}

TEST(CachingCompiler, NoDiskCompilesEachSequentialRepeat)
{
    // Nothing is kept in memory: without a disk, a repeat that joins
    // no compile in flight compiles again.
    artifact::CachingCompiler cc(nullptr);
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();

    auto first = cc.compile(w.program, opt);
    auto second = cc.compile(w.program, opt);
    EXPECT_FALSE(first.fromCache || first.deduped);
    EXPECT_FALSE(second.fromCache || second.deduped);
    EXPECT_EQ(second.key, first.key);
    EXPECT_NE(second.result.get(), first.result.get());
}

TEST(CachingCompiler, FailedCompileFailsEveryCallerAndLeavesNoEntry)
{
    // Vanilla PC control cannot map sort's multi-accessor tensors:
    // lowering throws FatalError. Every concurrent caller, whether it
    // compiled or joined, sees that error, and nothing stays behind.
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);
    artifact::CachingCompiler cc(nullptr);
    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildByName("sort", cfg);
    auto opt = testOptions();
    opt.control = compiler::ControlScheme::HierarchicalFsm;
    const std::string message = "vanilla PC supports a single write and "
                                "a single read accessor per VMU";

    constexpr int kCallers = 8;
    std::atomic<int> failed{0};
    std::vector<std::thread> callers;
    for (int i = 0; i < kCallers; ++i)
        callers.emplace_back([&] {
            try {
                cc.compile(w.program, opt);
            } catch (const FatalError &e) {
                if (std::string(e.what()).find(message) !=
                    std::string::npos)
                    ++failed;
            }
        });
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(failed.load(), kCallers);

    // A later call compiles (and fails) afresh: it neither joins a
    // failed entry nor finds a result.
    uint64_t joins = reg.counter("jobs.compile.deduped");
    try {
        cc.compile(w.program, opt);
        ADD_FAILURE() << "a later compile succeeded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos);
    }
    EXPECT_EQ(reg.counter("jobs.compile.deduped"), joins);
    reg.setEnabled(false);
}

// --- Hash support ----------------------------------------------------------

// --- Corruption fallback, section by section -------------------------------

TEST(ArtifactCache, ByteFlipInEverySectionFallsBackToRecompile)
{
    // Flip one byte in each container section — header (magic/version),
    // SHA-256 checksum, codec payload — of a stored `SARAART1` entry
    // and assert the cache treats every variant as a miss, drops the
    // bad file, and a recompile-and-restore heals it.
    TempDir tmp("sara-cache-flip-test");
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    artifact::ArtifactCache cache(tmp.path.string());
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    std::string key = artifact::contentKey(w.program, opt);
    auto r = compiler::compile(w.program, opt);
    std::string clean = artifact::packArtifact(key, r);
    size_t payloadSize = artifact::encodeCompileResult(r).size();
    ASSERT_GT(clean.size(), payloadSize + 52); // magic+ver+key+len+sha.

    struct Case
    {
        const char *section;
        size_t offset;
    } cases[] = {
        {"header-magic", 0},
        {"header-version", 8},
        {"checksum", clean.size() - payloadSize - 16},
        {"payload", clean.size() - payloadSize / 2},
    };
    uint64_t corrupt = 0;
    for (const Case &c : cases) {
        cache.store(key, r);
        ASSERT_TRUE(cache.contains(key)) << c.section;
        std::string bad = clean;
        bad[c.offset] ^= 0x01;
        {
            std::ofstream f(cache.pathFor(key), std::ios::binary);
            f.write(bad.data(),
                    static_cast<std::streamsize>(bad.size()));
        }
        EXPECT_FALSE(cache.lookup(key).has_value()) << c.section;
        EXPECT_EQ(reg.counter("artifact.cache.corrupt"), ++corrupt)
            << c.section;
        EXPECT_FALSE(fs::exists(cache.pathFor(key))) << c.section;

        // The caller's fallback: recompile, re-store, clean hit.
        artifact::CachingCompiler compiler(&cache);
        auto healed = compiler.compile(w.program, opt);
        EXPECT_FALSE(healed.fromCache) << c.section;
        EXPECT_EQ(healed.key, key);
        EXPECT_TRUE(cache.lookup(key).has_value()) << c.section;
    }

    reg.setEnabled(false);
}

TEST(ArtifactCache, InjectedBitFlipExercisesTheFallback)
{
    // The artifact-flip fault model drives the same path without
    // touching the file by hand: the injected flip corrupts the read,
    // the entry drops, and the compile front-end self-heals.
    TempDir tmp("sara-cache-inject-flip-test");
    artifact::ArtifactCache cache(tmp.path.string());
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    std::string key = artifact::contentKey(w.program, opt);
    cache.store(key, compiler::compile(w.program, opt));

    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("artifact-flip:count=1")};
    fault::FaultInjector inj(plan, 5);
    cache.setFaultInjector(&inj);

    artifact::CachingCompiler compiler(&cache);
    compiler.setFaultInjector(&inj);
    auto out = compiler.compile(w.program, opt);
    // The one armed flip corrupted the stored entry: recompiled.
    EXPECT_FALSE(out.fromCache);
    EXPECT_EQ(inj.totalInjections(), 1u);
    // The count cap is exhausted; the re-stored entry now hits.
    auto again = compiler.compile(w.program, opt);
    EXPECT_TRUE(again.fromCache);
}

TEST(CachingCompiler, InjectedCompileFaultIsTransient)
{
    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("compile-fault:count=1")};
    fault::FaultInjector inj(plan, 5);
    artifact::CachingCompiler compiler(nullptr);
    compiler.setFaultInjector(&inj);

    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    EXPECT_THROW(compiler.compile(w.program, opt), TransientError);
    // The retry (attempt 2) passes the count cap and compiles.
    EXPECT_NO_THROW(compiler.compile(w.program, opt));
}

// --- Crash safety ----------------------------------------------------------

TEST(Artifact, AtomicWriteLeavesNoTempBehind)
{
    TempDir tmp("sara-artifact-atomic-test");
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    auto r = compiler::compile(w.program, opt);

    std::string path = (tmp.path / "entry.sara").string();
    artifact::writeArtifactFile(path, "entry", r);
    EXPECT_EQ(artifact::readArtifactFile(path).key, "entry");
    // The publish is temp + fsync + rename: nothing but the final
    // file may remain.
    int files = 0;
    for (const auto &de : fs::directory_iterator(tmp.path)) {
        ++files;
        EXPECT_EQ(de.path().filename().string(), "entry.sara");
    }
    EXPECT_EQ(files, 1);
}

TEST(ArtifactCache, RecoverySweepQuarantinesTornAndRemovesTemps)
{
    TempDir tmp("sara-cache-recover-test");
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    auto r = compiler::compile(w.program, opt);

    // One intact entry, one torn entry (as a crashed non-atomic
    // writer or a bad disk would leave it), one stale writer temp.
    artifact::writeArtifactFile((tmp.path / "good.sara").string(),
                                "good", r);
    std::string packed = artifact::packArtifact("torn", r);
    packed.resize(packed.size() / 2);
    {
        std::ofstream f(tmp.path / "torn.sara", std::ios::binary);
        f.write(packed.data(),
                static_cast<std::streamsize>(packed.size()));
    }
    {
        std::ofstream f(tmp.path / "junk.sara.tmp.1234",
                        std::ios::binary);
        f << "half a write";
    }

    artifact::ArtifactCache cache(tmp.path.string(), 0);
    auto st = cache.recover();
    EXPECT_EQ(st.scanned, 2);
    EXPECT_EQ(st.ok, 1);
    EXPECT_EQ(st.quarantined, 1);
    EXPECT_EQ(st.tmpRemoved, 1);
    EXPECT_TRUE(fs::exists(tmp.path / "good.sara"));
    EXPECT_TRUE(fs::exists(tmp.path / "torn.sara.quarantine"));
    EXPECT_FALSE(fs::exists(tmp.path / "torn.sara"));
    EXPECT_FALSE(fs::exists(tmp.path / "junk.sara.tmp.1234"));
    EXPECT_EQ(cache.quarantinedCount(), 1);
    EXPECT_EQ(reg.counter("artifact.cache.recovered"), 1u);
    EXPECT_EQ(reg.counter("artifact.cache.tmp_removed"), 1u);
    // The surviving entry still decodes.
    EXPECT_EQ(artifact::readArtifactFile(
                  (tmp.path / "good.sara").string())
                  .key,
              "good");

    reg.setEnabled(false);
}

TEST(ArtifactCache, KillNineDuringStoreLeavesCacheLoadable)
{
    // The crash-only contract, enforced with a real SIGKILL: fork a
    // writer child that hammers atomic publishes, kill it mid-write,
    // and assert the recovery sweep leaves every surviving entry
    // loadable with at most the in-flight entry quarantined.
    TempDir tmp("sara-cache-kill9-test");
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    auto r = compiler::compile(w.program, opt);
    artifact::writeArtifactFile((tmp.path / "pre.sara").string(),
                                "pre", r);

    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        try {
            for (uint64_t n = 0;; ++n) {
                std::string k = "hot" + std::to_string(n % 2);
                artifact::writeArtifactFile(
                    (tmp.path / (k + ".sara")).string(), k, r);
            }
        } catch (const std::exception &) {
        }
        _exit(2);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(7));
    kill(pid, SIGKILL);
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFSIGNALED(status));

    artifact::ArtifactCache cache(tmp.path.string(), 0);
    auto st = cache.recover();
    EXPECT_LE(st.quarantined, 1);
    EXPECT_EQ(st.ok + st.quarantined, st.scanned);
    // Survivors (the pre-existing entry included) all decode.
    EXPECT_EQ(artifact::readArtifactFile(
                  (tmp.path / "pre.sara").string())
                  .key,
              "pre");
    for (const auto &de : fs::directory_iterator(tmp.path)) {
        if (de.path().extension() == ".sara") {
            EXPECT_NO_THROW(
                artifact::readArtifactFile(de.path().string()))
                << de.path();
        }
    }
}

TEST(ArtifactCache, InjectedEnospcFailsStoreCleanly)
{
    TempDir tmp("sara-cache-enospc-test");
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    artifact::ArtifactCache cache(tmp.path.string());
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    std::string key = artifact::contentKey(w.program, opt);
    auto r = compiler::compile(w.program, opt);

    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("disk-enospc:count=1")};
    fault::FaultInjector inj(plan, 3);
    cache.setFaultInjector(&inj);

    // The full disk fails the store without publishing anything and
    // without throwing — the compile already succeeded.
    EXPECT_NO_THROW(cache.store(key, r));
    EXPECT_FALSE(cache.contains(key));
    EXPECT_EQ(reg.counter("artifact.cache.fault.enospc"), 1u);
    EXPECT_EQ(reg.counter("artifact.cache.store_failed"), 1u);

    // Count cap exhausted: the retry publishes and hits.
    cache.store(key, r);
    EXPECT_TRUE(cache.lookup(key).has_value());

    reg.setEnabled(false);
}

TEST(ArtifactCache, InjectedShortWriteIsCaughtByValidation)
{
    TempDir tmp("sara-cache-shortwrite-test");
    auto &reg = telemetry::Registry::global();
    reg.clear();
    reg.setEnabled(true);

    artifact::ArtifactCache cache(tmp.path.string());
    workloads::WorkloadConfig cfg;
    cfg.par = 8;
    auto w = workloads::buildByName("ms", cfg);
    auto opt = testOptions();
    std::string key = artifact::contentKey(w.program, opt);
    auto r = compiler::compile(w.program, opt);

    std::vector<fault::FaultSpec> plan = {
        fault::parseFaultSpec("disk-short-write:count=1")};
    fault::FaultInjector inj(plan, 3);
    cache.setFaultInjector(&inj);

    // The torn store publishes a truncated final file — exactly the
    // state an atomic writer can never produce — and only checksum
    // validation stands between it and a wrong answer.
    cache.store(key, r);
    EXPECT_TRUE(cache.contains(key));
    EXPECT_EQ(reg.counter("artifact.cache.fault.short_write"), 1u);
    EXPECT_FALSE(cache.lookup(key).has_value());
    EXPECT_EQ(reg.counter("artifact.cache.corrupt"), 1u);
    EXPECT_TRUE(fs::exists(cache.quarantinePathFor(key)));

    // Self-heal: re-store (cap exhausted), clean hit.
    cache.store(key, r);
    EXPECT_TRUE(cache.lookup(key).has_value());

    reg.setEnabled(false);
}

TEST(Hash, Sha256KnownVectors)
{
    // FIPS 180-2 test vectors.
    EXPECT_EQ(support::Sha256::hexOf(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(support::Sha256::hexOf("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        support::Sha256::hexOf("abcdbcdecdefdefgefghfghighijhijkijkl"
                               "jklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039"
        "a33ce45964ff2167f6ecedd419db06c1");

    // Incremental == one-shot.
    support::Sha256 h;
    h.update("ab", 2);
    h.update("c", 1);
    EXPECT_EQ(h.hex(), support::Sha256::hexOf("abc"));
}

} // namespace
} // namespace sara
