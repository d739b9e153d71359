/**
 * @file
 * Unit tests for the support library: digraph algorithms (topological
 * sort, transitive reduction, SCC, reachability), table formatting,
 * the JSON parser's edge cases (escapes, unicode, deep nesting,
 * strict numbers, error positions), Rng against the standard engine
 * and distributions, and SHA-256's hardware block path against the
 * portable one.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <limits>
#include <random>

#include "support/digraph.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/table.h"
#include "tests/helpers.h"

namespace sara {
namespace {

TEST(Digraph, TopoSortLinear)
{
    Digraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3);
    auto order = g.topoSort();
    ASSERT_TRUE(order.has_value());
    EXPECT_EQ(*order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(Digraph, TopoSortDetectsCycle)
{
    Digraph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    EXPECT_FALSE(g.topoSort().has_value());
    EXPECT_TRUE(g.hasCycle());
}

TEST(Digraph, TopoSortDeterministicTieBreak)
{
    Digraph g(4);
    g.addEdge(3, 1);
    g.addEdge(2, 1);
    auto order = g.topoSort();
    ASSERT_TRUE(order.has_value());
    // Roots 0,2,3 come in id order; 1 after its preds.
    EXPECT_EQ(*order, (std::vector<size_t>{0, 2, 3, 1}));
}

TEST(Digraph, TransitiveReductionDiamond)
{
    // 0->1->3, 0->2->3, plus redundant 0->3.
    Digraph g(4);
    g.addEdge(0, 1);
    g.addEdge(0, 2);
    g.addEdge(1, 3);
    g.addEdge(2, 3);
    g.addEdge(0, 3);
    g.transitiveReduction();
    EXPECT_FALSE(g.hasEdge(0, 3));
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(0, 2));
    EXPECT_TRUE(g.hasEdge(1, 3));
    EXPECT_TRUE(g.hasEdge(2, 3));
    EXPECT_EQ(g.numEdges(), 4u);
}

TEST(Digraph, TransitiveReductionChain)
{
    // Full order on 5 nodes reduces to a chain.
    Digraph g(5);
    for (size_t i = 0; i < 5; ++i)
        for (size_t j = i + 1; j < 5; ++j)
            g.addEdge(i, j);
    g.transitiveReduction();
    EXPECT_EQ(g.numEdges(), 4u);
    for (size_t i = 0; i + 1 < 5; ++i)
        EXPECT_TRUE(g.hasEdge(i, i + 1));
}

TEST(Digraph, TransitiveReductionPreservesReachability)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        size_t n = 10;
        Digraph g(n);
        for (size_t i = 0; i < n; ++i)
            for (size_t j = i + 1; j < n; ++j)
                if (rng.chance(0.35))
                    g.addEdge(i, j);
        // Record reachability before.
        std::vector<std::vector<bool>> before;
        for (size_t i = 0; i < n; ++i)
            before.push_back(g.reachableFrom(i));
        g.transitiveReduction();
        for (size_t i = 0; i < n; ++i) {
            auto after = g.reachableFrom(i);
            EXPECT_EQ(before[i], after) << "trial " << trial
                                        << " node " << i;
        }
    }
}

TEST(Digraph, TransitiveReductionMatchesPerEdgeOracle)
{
    Rng rng(11);
    size_t removed = 0;
    for (size_t n : {1, 2, 3, 8, 30, 90, 180, 300}) {
        for (int trial = 0; trial < 4; ++trial) {
            // A random DAG over a shuffled topological order, with
            // some duplicate edges.
            std::vector<size_t> perm(n);
            for (size_t i = 0; i < n; ++i)
                perm[i] = i;
            for (size_t i = n; i > 1; --i)
                std::swap(perm[i - 1], perm[rng.index(i)]);
            double density = n > 60 ? 12.0 / n : 0.3;
            Digraph g(n);
            for (size_t i = 0; i < n; ++i) {
                for (size_t j = i + 1; j < n; ++j) {
                    if (!rng.chance(density))
                        continue;
                    g.addEdge(perm[i], perm[j]);
                    if (rng.chance(0.1))
                        g.addEdge(perm[i], perm[j], /*dedup=*/false);
                }
            }
            std::vector<std::vector<bool>> before;
            for (size_t u = 0; u < n; ++u)
                before.push_back(g.reachableFrom(u));

            Digraph want = g;
            test::referenceTransitiveReduction(want);
            removed += g.numEdges() - want.numEdges();
            Reachability reach = g.transitiveReduction();
            for (size_t u = 0; u < n; ++u) {
                EXPECT_EQ(g.succs(u), want.succs(u))
                    << "n " << n << " trial " << trial << " node " << u;
                EXPECT_EQ(g.preds(u), want.preds(u))
                    << "n " << n << " trial " << trial << " node " << u;
                for (size_t v = 0; v < n; ++v)
                    ASSERT_EQ(reach.reaches(u, v),
                              u != v && before[u][v])
                        << "n " << n << " reach " << u << "->" << v;
            }
        }
    }
    EXPECT_GT(removed, 1000u); // The DAGs are dense enough to reduce.
}

TEST(Digraph, ReachableSkipDirect)
{
    Digraph g(3);
    g.addEdge(0, 2);
    EXPECT_TRUE(g.reachable(0, 2));
    EXPECT_FALSE(g.reachable(0, 2, /*skip_direct=*/true));
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    EXPECT_TRUE(g.reachable(0, 2, /*skip_direct=*/true));
}

TEST(Digraph, SccComponents)
{
    // Two 2-cycles and one singleton.
    Digraph g(5);
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    g.addEdge(2, 3);
    g.addEdge(3, 2);
    g.addEdge(1, 2);
    auto comp = g.scc();
    EXPECT_EQ(comp[0], comp[1]);
    EXPECT_EQ(comp[2], comp[3]);
    EXPECT_NE(comp[0], comp[2]);
    EXPECT_NE(comp[4], comp[0]);
    EXPECT_NE(comp[4], comp[2]);
}

TEST(Digraph, AddEdgeDeduplicates)
{
    Digraph g(2);
    g.addEdge(0, 1);
    g.addEdge(0, 1);
    EXPECT_EQ(g.numEdges(), 1u);
    g.addEdge(0, 1, /*dedup=*/false);
    EXPECT_EQ(g.numEdges(), 2u);
}

TEST(Table, AlignmentAndFormat)
{
    Table t({"app", "speedup"});
    t.addRow({"mlp", Table::fmtX(4.9)});
    t.addRow({"longname", Table::fmt(1.234, 1)});
    std::string s = t.str();
    EXPECT_NE(s.find("4.90x"), std::string::npos);
    EXPECT_NE(s.find("1.2"), std::string::npos);
    EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(Logging, PanicThrows)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("user error"), FatalError);
}

/**
 * Rng reproduces std::mt19937_64 driving libstdc++'s
 * uniform_int_distribution<int64_t> and
 * uniform_real_distribution<double> bit for bit: every call kind,
 * interleaved, over ranges that include a negative lo, a single value,
 * the whole int64 range and a range just above 2^63 (where the
 * rejection loop draws again half the time), and enough draws per
 * seed to cross many 312-word refills.
 */
TEST(Rng, MatchesStdEngineAndDistributions)
{
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    const int64_t kMax = std::numeric_limits<int64_t>::max();
    const std::pair<int64_t, int64_t> ranges[] = {
        {0, 1},          {0, 1000},       {-7, 7},
        {-1000000, -3},  {42, 42},        {kMin, kMax},
        {kMin, 1},       {-5, kMax},      {0, (int64_t{1} << 40) + 17}};
    const std::pair<double, double> reals[] = {
        {0.0, 1.0}, {-3.5, 7.25}, {1e-3, 1e3}, {-1.0, -0.5}};
    size_t draws = 0;
    for (uint64_t seed : {uint64_t{1}, uint64_t{0}, uint64_t{5},
                          uint64_t{42}, uint64_t{0x9e3779b97f4a7c15}}) {
        Rng rng(seed);
        std::mt19937_64 eng(seed);
        // Picks the call and its arguments, apart from both engines.
        std::minstd_rand pick(static_cast<uint32_t>(seed) + 1);
        for (int i = 0; i < 250000; ++i, ++draws) {
            switch (pick() % 4) {
              case 0: {
                auto [lo, hi] = ranges[pick() % std::size(ranges)];
                ASSERT_EQ(rng.intIn(lo, hi),
                          std::uniform_int_distribution<int64_t>(lo, hi)(
                              eng))
                    << "seed " << seed << " draw " << i;
                break;
              }
              case 1: {
                size_t n = 1 + pick() % 5000;
                ASSERT_EQ(rng.index(n),
                          static_cast<size_t>(
                              std::uniform_int_distribution<int64_t>(
                                  0, static_cast<int64_t>(n) - 1)(eng)))
                    << "seed " << seed << " draw " << i;
                break;
              }
              case 2: {
                auto [lo, hi] = reals[pick() % std::size(reals)];
                double want =
                    std::uniform_real_distribution<double>(lo, hi)(eng);
                double got = rng.realIn(lo, hi);
                ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                    << "seed " << seed << " draw " << i << ": " << got
                    << " vs " << want;
                break;
              }
              default: {
                double p = static_cast<double>(pick() % 101) / 100.0;
                ASSERT_EQ(rng.chance(p),
                          std::uniform_real_distribution<double>(0.0, 1.0)(
                              eng) < p)
                    << "seed " << seed << " draw " << i;
                break;
              }
            }
        }
        // Both engines end at the same point of the same sequence.
        EXPECT_EQ(rng.intIn(kMin, kMax),
                  std::uniform_int_distribution<int64_t>(kMin, kMax)(eng));
    }
    EXPECT_GE(draws, 1000000u);
}

// --- SHA-256: the SHA-extension block path against the portable one --------

using BlockFn = void (*)(support::sha256::State &, const uint8_t *, size_t);

/** One-shot SHA-256 on one block function, with FIPS 180-4 padding
 *  written apart from Sha256's. */
std::string
referenceSha256(BlockFn compress, const std::vector<uint8_t> &msg)
{
    support::sha256::State st = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                 0xa54ff53a, 0x510e527f, 0x9b05688c,
                                 0x1f83d9ab, 0x5be0cd19};
    size_t whole = msg.size() / 64;
    std::vector<uint8_t> tail(msg.begin() + static_cast<long>(whole * 64),
                              msg.end());
    if (whole > 0)
        compress(st, msg.data(), whole);
    tail.push_back(0x80);
    while (tail.size() % 64 != 56)
        tail.push_back(0);
    uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
    for (int i = 7; i >= 0; --i)
        tail.push_back(static_cast<uint8_t>(bits >> (i * 8)));
    compress(st, tail.data(), tail.size() / 64);
    uint8_t out[32];
    for (int i = 0; i < 32; ++i)
        out[i] = static_cast<uint8_t>(st[i / 4] >> (24 - 8 * (i % 4)));
    return support::toHex(out, sizeof out);
}

std::vector<uint8_t>
bytesOf(const std::string &s)
{
    return {s.begin(), s.end()};
}

/** FIPS 180-2 vectors, the last one a million 'a's. */
std::vector<std::pair<std::vector<uint8_t>, std::string>>
fipsVectors()
{
    return {
        {bytesOf(""), "e3b0c44298fc1c149afbf4c8996fb924"
                      "27ae41e4649b934ca495991b7852b855"},
        {bytesOf("abc"), "ba7816bf8f01cfea414140de5dae2223"
                         "b00361a396177a9cb410ff61f20015ad"},
        {bytesOf("abcdbcdecdefdefgefghfghighijhijkijkl"
                 "jklmklmnlmnomnopnopq"),
         "248d6a61d20638b8e5c026930c3e6039"
         "a33ce45964ff2167f6ecedd419db06c1"},
        {std::vector<uint8_t>(1000000, 'a'),
         "cdc76e5c9914fb9281a1c7e284d73e67"
         "f1809a48a497200e046d39ccc7112cd0"},
    };
}

/** Messages of every length 0-300, then random 1 KiB-512 KiB ones. */
std::vector<std::vector<uint8_t>>
shaMessages()
{
    Rng rng(17);
    std::vector<std::vector<uint8_t>> msgs;
    for (size_t len = 0; len <= 300; ++len) {
        msgs.emplace_back(len);
        for (auto &b : msgs.back())
            b = static_cast<uint8_t>(rng.intIn(0, 255));
    }
    for (int i = 0; i < 12; ++i) {
        msgs.emplace_back(static_cast<size_t>(rng.intIn(1024, 512 * 1024)));
        for (auto &b : msgs.back())
            b = static_cast<uint8_t>(rng.intIn(0, 255));
    }
    return msgs;
}

/** Sha256 fed the whole message in one update, and in ragged chunks
 *  (empty ones, partial blocks, runs of whole blocks). */
std::pair<std::string, std::string>
sha256WholeAndRagged(const std::vector<uint8_t> &msg, Rng &rng)
{
    support::Sha256 one;
    one.update(msg.data(), msg.size());
    support::Sha256 ragged;
    size_t at = 0;
    while (at < msg.size()) {
        size_t n = std::min(msg.size() - at,
                            static_cast<size_t>(rng.chance(0.2)
                                                    ? rng.intIn(64, 4096)
                                                    : rng.intIn(0, 70)));
        ragged.update(msg.data() + at, n);
        at += n;
    }
    return {one.hex(), ragged.hex()};
}

TEST(Sha256, PortablePathMatchesFipsVectors)
{
    for (const auto &[msg, want] : fipsVectors())
        EXPECT_EQ(referenceSha256(support::sha256::compressPortable, msg),
                  want)
            << msg.size() << " bytes";
}

TEST(Sha256, ShaExtensionPathMatchesFipsVectors)
{
    if (!support::sha256::hasShaExtensions())
        GTEST_SKIP() << "this CPU has no SHA extensions";
    for (const auto &[msg, want] : fipsVectors())
        EXPECT_EQ(
            referenceSha256(support::sha256::compressShaExtensions, msg),
            want)
            << msg.size() << " bytes";
}

TEST(Sha256, UpdateMatchesPortableReference)
{
    // Sha256 takes whichever block path this CPU has; fed whole or in
    // ragged chunks it must agree with the portable one-shot.
    Rng rng(23);
    for (const auto &msg : shaMessages()) {
        std::string want =
            referenceSha256(support::sha256::compressPortable, msg);
        auto [one, ragged] = sha256WholeAndRagged(msg, rng);
        EXPECT_EQ(one, want) << msg.size() << " bytes, one update";
        EXPECT_EQ(ragged, want) << msg.size() << " bytes, ragged";
    }
    for (const auto &[msg, want] : fipsVectors()) {
        auto [one, ragged] = sha256WholeAndRagged(msg, rng);
        EXPECT_EQ(one, want) << msg.size() << " bytes, one update";
        EXPECT_EQ(ragged, want) << msg.size() << " bytes, ragged";
    }
}

TEST(Sha256, ShaExtensionPathMatchesPortable)
{
    if (!support::sha256::hasShaExtensions())
        GTEST_SKIP() << "this CPU has no SHA extensions";
    for (const auto &msg : shaMessages())
        EXPECT_EQ(
            referenceSha256(support::sha256::compressShaExtensions, msg),
            referenceSha256(support::sha256::compressPortable, msg))
            << msg.size() << " bytes";
    // Block by block from random states, one block and several at once.
    Rng rng(29);
    for (int t = 0; t < 2000; ++t) {
        support::sha256::State st;
        for (auto &w : st)
            w = static_cast<uint32_t>(rng.intIn(0, 0xffffffff));
        std::vector<uint8_t> blocks(64 * static_cast<size_t>(
                                              rng.intIn(1, 4)));
        for (auto &b : blocks)
            b = static_cast<uint8_t>(rng.intIn(0, 255));
        support::sha256::State hw = st, sw = st;
        support::sha256::compressShaExtensions(hw, blocks.data(),
                                               blocks.size() / 64);
        support::sha256::compressPortable(sw, blocks.data(),
                                          blocks.size() / 64);
        ASSERT_EQ(hw, sw) << "trial " << t;
    }
}

// --- JSON parser edge cases ------------------------------------------------

/** Parse errors are FatalError; returns the message for inspection. */
static std::string
parseError(const std::string &doc)
{
    try {
        json::parse(doc);
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected parse failure for: " << doc;
    return "";
}

TEST(Json, EscapedStringsRoundTrip)
{
    json::Value v = json::parse(
        R"({"s": "a\"b\\c\/d\n\t\r\b\f"})");
    EXPECT_EQ(v.at("s").str, "a\"b\\c/d\n\t\r\b\f");

    // Writer escapes control characters; the parser decodes them back.
    json::Writer w;
    std::string nasty = "line1\nline2\ttab \"quoted\" back\\slash";
    nasty += '\x01';
    w.beginObject().kv("k", nasty).endObject();
    EXPECT_EQ(json::parse(w.str()).at("k").str, nasty);
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    // 2-byte: U+00E9 (é), 3-byte: U+20AC (€).
    EXPECT_EQ(json::parse("\"caf\\u00e9\"").str, "caf\xC3\xA9");
    EXPECT_EQ(json::parse("\"\\u20AC\"").str, "\xE2\x82\xAC");
    // Surrogate pair: U+1F600 (grinning face).
    EXPECT_EQ(json::parse("\"\\uD83D\\uDE00\"").str,
              "\xF0\x9F\x98\x80");
    // Raw UTF-8 passes through untouched.
    EXPECT_EQ(json::parse("\"\xC3\xA9\"").str, "\xC3\xA9");

    // Unpaired or malformed surrogates are errors, not mojibake.
    EXPECT_THROW(json::parse(R"("\uD83D")"), FatalError);
    EXPECT_THROW(json::parse(R"("\uD83Dx")"), FatalError);
    EXPECT_THROW(json::parse(R"("\uDE00")"), FatalError);
    EXPECT_THROW(json::parse(R"("\uD83DA")"), FatalError);
    EXPECT_THROW(json::parse(R"("\u12G4")"), FatalError);
    EXPECT_THROW(json::parse(R"("\u12")"), FatalError);
}

TEST(Json, StrictNumbers)
{
    EXPECT_EQ(json::parse("0").num, 0.0);
    EXPECT_EQ(json::parse("-0.5e-3").num, -0.5e-3);
    EXPECT_EQ(json::parse("1e+6").num, 1e6);
    EXPECT_EQ(json::parse("123456789012345").num, 123456789012345.0);

    // The C library accepts these; JSON does not.
    EXPECT_THROW(json::parse("NaN"), FatalError);
    EXPECT_THROW(json::parse("nan"), FatalError);
    EXPECT_THROW(json::parse("Infinity"), FatalError);
    EXPECT_THROW(json::parse("-inf"), FatalError);
    EXPECT_THROW(json::parse("0x10"), FatalError);
    EXPECT_THROW(json::parse("+1"), FatalError);
    EXPECT_THROW(json::parse("1."), FatalError);
    EXPECT_THROW(json::parse(".5"), FatalError);
    EXPECT_THROW(json::parse("1e"), FatalError);
    EXPECT_THROW(json::parse("01"), FatalError);
    EXPECT_THROW(json::parse("--1"), FatalError);

    // The writer never emits non-finite numbers either.
    EXPECT_EQ(json::number(std::nan("")), "null");
    EXPECT_EQ(json::number(1.0 / 0.0), "null");
}

TEST(Json, DeepNestingBoundedNotCrashing)
{
    // 200 levels: fine. 300 levels: clean error instead of a stack
    // overflow.
    auto nest = [](int depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    json::Value v = json::parse(nest(200));
    const json::Value *p = &v;
    int measured = 0;
    while (p->isArray()) {
        ++measured;
        p = &p->arr[0];
    }
    EXPECT_EQ(measured, 200);
    EXPECT_EQ(p->num, 1.0);

    std::string err = parseError(nest(300));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

TEST(Json, ErrorsReportPositions)
{
    // The bad token starts at line 2, column 8.
    std::string err = parseError("{\n  \"a\": tru\n}");
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    err = parseError("{\"a\": 1,\n \"b\": }");
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;

    err = parseError("[1, 2");
    EXPECT_NE(err.find("line 1, column 6"), std::string::npos) << err;

    err = parseError("{} x");
    EXPECT_NE(err.find("trailing"), std::string::npos) << err;
    EXPECT_NE(err.find("column 4"), std::string::npos) << err;
}

TEST(Json, RejectsUnescapedControlCharacters)
{
    EXPECT_THROW(json::parse("\"a\nb\""), FatalError);
    EXPECT_THROW(json::parse(std::string("\"a\x01") + "b\""),
                 FatalError);
}

} // namespace
} // namespace sara
