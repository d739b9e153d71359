/**
 * @file
 * NN layer-graph frontend tests: JSON loader diagnostics carry
 * line:column positions, invalid graphs (shape mismatches, cycles,
 * bad references) are rejected, the C++ builder and the JSON loader
 * lower to byte-identical programs, all three shipped models verify
 * against the sequential interpreter in fixed-latency and NoC modes,
 * graph-built programs re-compile byte-identically (artifact
 * determinism), and the workload registry exposes the models.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "artifact/artifact.h"
#include "graph/graph.h"
#include "graph/lower.h"
#include "graph/models.h"
#include "helpers.h"
#include "workloads/workload.h"

namespace sara {
namespace {

/** Parse a JSON graph expecting failure; returns the fatal message. */
std::string
graphError(const std::string &text)
{
    try {
        graph::parseGraphJson(text, "model.json");
    } catch (const FatalError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected graph rejection for: " << text;
    return "";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

compiler::CompilerOptions
graphOptions()
{
    compiler::CompilerOptions opt;
    opt.spec = arch::PlasticineSpec::paper();
    opt.pnrIterations = 200;
    return opt;
}

/** Compile a lowered model and check sim-vs-interpreter equality in
 *  the requested timing mode (the CMMC correctness oracle). */
void
verifyModel(const graph::LayerGraph &g, int par, bool useNoc,
            int scale = 1)
{
    graph::LowerOptions o;
    o.par = par;
    o.scale = scale;
    graph::LowerResult lowered = graph::lowerGraph(g, o);
    const workloads::Workload &w = lowered.workload;
    auto r = compiler::compile(w.program, graphOptions());

    ir::Interpreter interp(r.program);
    for (const auto &[tid, data] : w.dramInputs)
        interp.setTensor(ir::TensorId(tid), data);
    auto ref = interp.run();

    sim::SimOptions sopt;
    sopt.useNoc = useNoc;
    sim::Simulator simulator(r.program, r.lowering.graph,
                             dram::DramSpec::hbm2(), sopt);
    for (const auto &[tid, data] : w.dramInputs)
        simulator.setDramTensor(ir::TensorId(tid), data);
    auto res = simulator.run();

    EXPECT_GT(res.cycles, 0u) << g.name;
    for (size_t t = 0; t < r.program.numTensors(); ++t) {
        const auto &simT = res.tensors[t];
        if (simT.empty())
            continue; // Fifo-lowered scratchpads leave no contents.
        const auto &refT = ref.tensors[t];
        ASSERT_EQ(simT.size(), refT.size())
            << g.name << " tensor "
            << r.program.tensor(ir::TensorId(t)).name;
        for (size_t i = 0; i < simT.size(); ++i)
            ASSERT_NEAR(refT[i], simT[i], 1e-6)
                << g.name << (useNoc ? " (noc)" : " (fixed)")
                << " tensor "
                << r.program.tensor(ir::TensorId(t)).name << " index "
                << i;
    }
}

// --- Loader diagnostics ----------------------------------------------------

TEST(GraphLoader, ShapeMismatchReportsLineAndColumn)
{
    // The offending `add` node sits on line 8 of this document.
    std::string msg = graphError(R"({
  "schema": "sara-graph/v1",
  "name": "bad",
  "inputs": [{ "name": "x", "shape": [4, 8] }],
  "nodes": [
    { "name": "a", "kind": "matmul", "input": "x", "features": 16 },
    { "name": "b", "kind": "matmul", "input": "x", "features": 8 },
    { "name": "oops", "kind": "elementwise", "op": "add",
      "inputs": ["a", "b"] }
  ],
  "outputs": ["oops"]
})");
    EXPECT_NE(msg.find("model.json:8:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("differ"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[4, 16]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[4, 8]"), std::string::npos) << msg;
}

TEST(GraphLoader, CycleReportsNodePosition)
{
    std::string msg = graphError(R"({
  "schema": "sara-graph/v1",
  "name": "loopy",
  "inputs": [{ "name": "x", "shape": [8] }],
  "nodes": [
    { "name": "a", "kind": "elementwise", "op": "add",
      "inputs": ["x", "b"] },
    { "name": "b", "kind": "elementwise", "op": "relu", "input": "a" }
  ],
  "outputs": ["b"]
})");
    EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
    EXPECT_NE(msg.find("model.json:6:"), std::string::npos) << msg;
}

TEST(GraphLoader, BadReferencesAndKeysAreRejected)
{
    const char *header = R"({
  "schema": "sara-graph/v1", "name": "g",
  "inputs": [{ "name": "x", "shape": [8] }],)";

    // Unknown input name.
    EXPECT_NE(
        graphError(std::string(header) + R"(
  "nodes": [{ "name": "a", "kind": "elementwise", "op": "relu",
              "input": "nope" }],
  "outputs": ["a"] })")
            .find("unknown input 'nope'"),
        std::string::npos);

    // Duplicate node names.
    EXPECT_NE(graphError(std::string(header) + R"(
  "nodes": [
    { "name": "a", "kind": "elementwise", "op": "relu", "input": "x" },
    { "name": "a", "kind": "elementwise", "op": "relu", "input": "x" }
  ],
  "outputs": ["a"] })")
                  .find("duplicate node name"),
              std::string::npos);

    // Unknown elementwise op.
    EXPECT_NE(graphError(std::string(header) + R"(
  "nodes": [{ "name": "a", "kind": "elementwise", "op": "tanh",
              "input": "x" }],
  "outputs": ["a"] })")
                  .find("unknown elementwise op"),
              std::string::npos);

    // Unrecognized node key (typo'd "featurs").
    EXPECT_NE(graphError(std::string(header) + R"(
  "nodes": [{ "name": "a", "kind": "matmul", "input": "x",
              "featurs": 4 }],
  "outputs": ["a"] })")
                  .find("unknown key \"featurs\""),
              std::string::npos);

    // Wrong schema tag.
    EXPECT_NE(graphError(R"({ "schema": "sara-graph/v2", "name": "g",
  "inputs": [{ "name": "x", "shape": [8] }],
  "nodes": [{ "name": "a", "kind": "elementwise", "op": "relu",
              "input": "x" }],
  "outputs": ["a"] })")
                  .find("sara-graph/v1"),
              std::string::npos);
}

TEST(GraphBuilder, RejectsBadGraphsWithGraphName)
{
    graph::GraphBuilder b("builderbad");
    b.input("x", {4, 8});
    b.matmul("a", "x", 16);
    b.matmul("c", "x", 8);
    b.add("sum", "a", "c");
    b.output("sum");
    try {
        b.build();
        FAIL() << "expected shape mismatch";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("graph 'builderbad'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("differ"), std::string::npos) << msg;
    }
}

// --- Builder / JSON equivalence --------------------------------------------

TEST(GraphFrontend, BuilderAndJsonExamplesLowerIdentically)
{
    struct Pair
    {
        graph::LayerGraph built;
        const char *file;
    };
    std::vector<Pair> pairs;
    pairs.push_back({graph::mlpGraph(), "mlp.graph.json"});
    pairs.push_back(
        {graph::transformerCellGraph(), "transformer_cell.graph.json"});
    pairs.push_back(
        {graph::resnetBlockGraph(), "resnet_block.graph.json"});

    for (auto &[built, file] : pairs) {
        graph::LayerGraph fromJson = graph::parseGraphJson(
            readFile(std::string(EXAMPLES_DIR "/") + file), file);
        EXPECT_EQ(built.name, fromJson.name);

        graph::LowerOptions o;
        auto a = graph::lowerGraph(built, o);
        auto b = graph::lowerGraph(fromJson, o);
        EXPECT_EQ(a.workload.program.str(), b.workload.program.str())
            << file;
        EXPECT_EQ(a.workload.dramInputs, b.workload.dramInputs)
            << file;
        EXPECT_EQ(a.workload.nominalFlops, b.workload.nominalFlops)
            << file;
        EXPECT_EQ(a.layers.size(), b.layers.size()) << file;
    }
}

// --- End-to-end correctness ------------------------------------------------

TEST(GraphFrontend, MlpVerifiesFixedAndNoc)
{
    verifyModel(graph::mlpGraph(), 16, /*useNoc=*/false);
    verifyModel(graph::mlpGraph(), 16, /*useNoc=*/true);
}

TEST(GraphFrontend, TransformerCellVerifiesFixedAndNoc)
{
    verifyModel(graph::transformerCellGraph(), 16, false);
    verifyModel(graph::transformerCellGraph(), 16, true);
}

TEST(GraphFrontend, ResnetBlockVerifiesFixedAndNoc)
{
    verifyModel(graph::resnetBlockGraph(), 16, false);
    verifyModel(graph::resnetBlockGraph(), 16, true);
}

TEST(GraphFrontend, AllModelsVerifyAtScaleTwo)
{
    // Scale grows a conv input's height, not its channels, so the conv
    // output still matches resnet_block's skip input.
    for (const auto &g : {graph::mlpGraph(), graph::transformerCellGraph(),
                          graph::resnetBlockGraph()}) {
        verifyModel(g, 16, /*useNoc=*/false, /*scale=*/2);
        verifyModel(g, 16, /*useNoc=*/true, /*scale=*/2);
    }
}

// --- Determinism -----------------------------------------------------------

TEST(GraphFrontend, CompileTwiceIsByteIdentical)
{
    std::vector<graph::LayerGraph> models = {
        graph::mlpGraph(), graph::transformerCellGraph(),
        graph::resnetBlockGraph()};
    for (const auto &g : models) {
        graph::LowerOptions o;
        auto first = graph::lowerGraph(g, o);
        auto second = graph::lowerGraph(g, o);
        EXPECT_EQ(first.workload.program.str(),
                  second.workload.program.str())
            << g.name;
        EXPECT_EQ(first.workload.dramInputs, second.workload.dramInputs)
            << g.name;

        auto opt = graphOptions();
        std::string a = artifact::encodeCompileResult(
            compiler::compile(first.workload.program, opt));
        std::string b = artifact::encodeCompileResult(
            compiler::compile(second.workload.program, opt));
        EXPECT_EQ(a, b) << g.name;
    }
}

// --- Per-layer parallelism -------------------------------------------------

TEST(GraphLower, ParOverrideRetunesOneLayer)
{
    graph::LowerOptions lo, hi;
    lo.par = 16;
    hi.par = 16;
    lo.parOverride = {{"fc1", 4}};
    hi.parOverride = {{"fc1", 64}};
    auto a = graph::lowerGraph(graph::mlpGraph(), lo);
    auto b = graph::lowerGraph(graph::mlpGraph(), hi);

    auto layerPar = [](const graph::LowerResult &r,
                       const std::string &name) {
        for (const auto &l : r.layers)
            if (l.name == name)
                return l.par;
        ADD_FAILURE() << "no layer " << name;
        return -1;
    };
    EXPECT_EQ(layerPar(a, "fc1"), 4);
    EXPECT_EQ(layerPar(b, "fc1"), 64);
    EXPECT_EQ(layerPar(a, "fc2"), layerPar(b, "fc2"));
    EXPECT_NE(a.workload.program.str(), b.workload.program.str());
}

TEST(GraphLower, UnknownParOverrideIsFatal)
{
    graph::LowerOptions o;
    o.parOverride = {{"no_such_layer", 4}};
    EXPECT_THROW(graph::lowerGraph(graph::mlpGraph(), o), FatalError);
}

// --- Registry --------------------------------------------------------------

TEST(GraphRegistry, ModelsAreRegistered)
{
    auto graphs = workloads::graphWorkloadNames();
    ASSERT_EQ(graphs.size(), 3u);
    EXPECT_EQ(graphs[0], "mlp_graph");
    EXPECT_EQ(graphs[1], "transformer_cell");
    EXPECT_EQ(graphs[2], "resnet_block");

    // The classic suite list is unchanged (golden bench row-sets key
    // on it); the combined list carries both.
    auto suite = workloads::workloadNames();
    auto all = workloads::allWorkloadNames();
    EXPECT_EQ(all.size(), suite.size() + graphs.size());

    workloads::WorkloadConfig cfg;
    cfg.par = 16;
    auto w = workloads::buildByName("transformer_cell", cfg);
    EXPECT_GT(w.program.numTensors(), 0u);
    EXPECT_GT(w.nominalFlops, 0.0);
}

TEST(GraphRegistry, UnknownWorkloadErrorListsValidNames)
{
    workloads::WorkloadConfig cfg;
    try {
        workloads::buildByName("definitely_not_a_workload", cfg);
        FAIL() << "expected unknown-workload fatal";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown workload"), std::string::npos);
        EXPECT_NE(msg.find("valid:"), std::string::npos) << msg;
        EXPECT_NE(msg.find("mlp_graph"), std::string::npos) << msg;
        EXPECT_NE(msg.find("kmeans"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace sara
