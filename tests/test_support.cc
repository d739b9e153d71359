/**
 * @file
 * Unit tests for the support library: digraph algorithms (topological
 * sort, transitive reduction, SCC, reachability), table formatting,
 * and the JSON parser's edge cases (escapes, unicode, deep nesting,
 * strict numbers, error positions).
 */

#include <gtest/gtest.h>

#include "support/digraph.h"
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

TEST(Rng, Deterministic)
{
    Rng a(5), b(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.intIn(0, 1000), b.intIn(0, 1000));
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
