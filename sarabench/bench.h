#ifndef SARABENCH_BENCH_H
#define SARABENCH_BENCH_H

/**
 * @file
 * The repository benchmark (see README.md in this directory): three
 * timed paths over the public SARA API, their output checks, and the
 * benchmark-side span tracer that attributes each op's wall time to
 * the layer it called into.
 *
 *   SimPath      runtime::runWorkload(preCompiled) over a mix of
 *                compiled entries; checks cycles and final tensors.
 *   CompilePath  buildByName -> contentKey -> compile -> packArtifact;
 *                checks the packed bytes.
 *   ServePath    an in-process sarad (serve::Server) driven by
 *                closed-loop serve::Client connections; checks status,
 *                cache hits, cycles and `correct`.
 *
 * Every path runs whole passes over its items, so each item's time is
 * its best over passes and the end-to-end figures are built from those
 * (robust to a noisy shared host).
 */

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "dram/dram.h"
#include "serve/protocol.h"
#include "sim/simulator.h"
#include "support/json.h"
#include "workloads/workload.h"

namespace sara::serve {
class Server;
}

namespace sarabench {

using namespace sara;
using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point a, Clock::time_point b);
/** CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), ms. */
double threadCpuMs();
/** Global operator new calls made by this process so far (alloc.cc). */
uint64_t allocCount();

/** Linear-interpolated quantile, q in [0, 1]; 0 for an empty set. */
double quantile(std::vector<double> xs, double q);

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/** One recorded span. Names are "<layer>.<call>"; the op root is "op". */
struct Span
{
    std::string name;
    std::string label; ///< What an op root ran (an entry, key, request).
    double startMs = 0.0; ///< Since the tracer's epoch.
    double endMs = 0.0;
    double cpuMs = 0.0; ///< Thread CPU inside the span.
    int parent = -1;    ///< Index of the parent span; -1 for an op root.
    uint64_t op = 0;
    /** Attributed from a separate measurement (a phase span, a sampled
     *  share, an in-process replay) rather than wrapped around a call. */
    bool derived = false;
};

/** In-memory span recorder; written out once when the run ends. */
class Tracer
{
  public:
    Tracer();

    /** Open a span under the innermost open one (a new op if none). */
    int open(const std::string &name, std::string label = {});
    void close(int idx);
    /**
     * Attribute `parts` (name, ms) as derived children of span
     * `parent`, laid end to end from its start. When they sum past the
     * parent they are scaled down to fit, so self times never go
     * negative. CPU is prorated from the parent's. Returns each
     * part's span index (-1 for a part of no duration, which is
     * skipped).
     */
    std::vector<int>
    derive(int parent,
           const std::vector<std::pair<std::string, double>> &parts);

    double durMs(int idx) const
    {
        return spans_[idx].endMs - spans_[idx].startMs;
    }

    /** Per-layer self time and CPU per op, `other` for the op roots,
     *  and the worst per-op reconciliation residual. */
    std::map<std::string, double> layerReport() const;
    void writeJson(const std::string &path,
                   const std::string &hostJson) const;

  private:
    double nowMs() const;
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
    uint64_t ops_ = 0;
};

/** RAII span; a no-op when the tracer is null (untraced runs). */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, std::string label = {}) : t_(t)
    {
        if (t_)
            idx_ = t_->open(name, std::move(label));
    }
    ~Scope()
    {
        if (t_)
            t_->close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int index() const { return idx_; }

  private:
    Tracer *t_;
    int idx_ = -1;
};

/** The layers a span name may start with, in report order. */
const std::vector<std::string> &layerNames();

// ---------------------------------------------------------------------------
// Layer counters gathered while tracing (means per call / per run)
// ---------------------------------------------------------------------------

struct LayerStats
{
    std::map<std::string, double> sum; ///< Metric name -> running sum.
    std::map<std::string, uint64_t> n; ///< Metric name -> sample count.
    /** Metrics reported as a median: differences of two noisy timings. */
    std::map<std::string, std::vector<double>> samples;
    void add(const std::string &k, double v)
    {
        sum[k] += v;
        ++n[k];
    }
    double mean(const std::string &k) const
    {
        auto it = n.find(k);
        return it == n.end() || !it->second ? 0.0
                                            : sum.at(k) / it->second;
    }
};

/** Direct Simulator counters summed over calibration runs. */
struct SimCounters
{
    uint64_t runs = 0, events = 0, firings = 0, wakeups = 0,
             spurious = 0, allocs = 0, flits = 0, hops = 0,
             queueCycles = 0, dramRequests = 0, dramRowHits = 0;
    double ms = 0.0;
    std::array<uint64_t, sim::kNumStallCauses> stalls{};
    void add(const sim::SimResult &r);
};

// ---------------------------------------------------------------------------
// Ops, checks and loop statistics
// ---------------------------------------------------------------------------

/** One timed op: wall and thread-CPU time, and whether its output
 *  checked out (an exception counts as a wrong output). */
struct OpResult
{
    bool ok = true;
    double ms = 0.0;
    double cpuMs = 0.0;
};

/** Samples from a run of whole passes over a path's items. */
struct LoopStats
{
    std::vector<std::vector<double>> itemMs; ///< Per item, per pass.
    std::vector<double> opMs, opCpuMs;
    uint64_t attempted = 0, failed = 0, passes = 0;

    explicit LoopStats(size_t items = 0) : itemMs(items) {}
    /** Each item's best (lowest) time over passes: a noisy neighbour
     *  only ever slows a pass down, so the best pass is the steadiest
     *  estimate of an item's own cost. */
    std::vector<double> itemBest() const;
    void record(size_t item, double ms, double cpuMs, bool ok);
};

/** Final tensors within the runWorkload check tolerance (1e-4) of the
 *  reference, for every tensor the simulator materialized. */
bool tensorsMatch(const std::vector<std::vector<double>> &sim,
                  const std::vector<std::vector<double>> &ref);

/** What a serve response must carry to count as a correct op. */
struct ServeExpect
{
    bool run = false;
    bool check = false;
    uint64_t cycles = 0;
};
bool responseOk(const json::Value &v, const ServeExpect &e);

/** Options handed to every run of an entry: the runtime layer's own
 *  NoC/fabric wiring, so a direct Simulator matches runWorkload. */
sim::SimOptions simOptionsFor(const compiler::CompilerOptions &copt,
                              bool noc);

/** Design-size counts of one compile (units, streams, route hops,
 *  wirelength, PCUs, PMUs), keyed by their per-layer metric names. */
std::map<std::string, double>
compileCounts(const compiler::CompileResult &r);

// ---------------------------------------------------------------------------
// Paths
// ---------------------------------------------------------------------------

struct SimSpec
{
    std::string workload;
    int par = 8;
    int scale = 1;
    bool ddr3 = false;
    bool noc = false;
    std::string label() const;
};

class SimPath
{
  public:
    struct Entry
    {
        SimSpec spec;
        workloads::Workload w;
        compiler::CompileResult compiled;
        dram::DramSpec dram;
        uint64_t refCycles = 0;
        std::vector<std::vector<double>> refTensors;
    };

    SimPath(std::vector<SimSpec> specs, uint64_t seed);
    /** Build, compile, interpreter reference, reference simulation;
     *  compile phase times go to `ls` when set. */
    void setup(LayerStats *ls = nullptr);
    /** One runWorkload(preCompiled) + output check. Under a tracer it
     *  first calibrates a direct Simulator run (outside the op) so the
     *  op's runtime span can be split into runtime / sim / noc / dram. */
    OpResult runOp(size_t i, Tracer *t, LayerStats *ls, SimCounters *sc);
    /** Whole passes (in a seeded order) until `seconds` elapse, at
     *  least `minPasses`; samples are appended to `st`. */
    void loop(LoopStats &st, double seconds, int minPasses,
              Tracer *t = nullptr, LayerStats *ls = nullptr,
              SimCounters *sc = nullptr);

    std::vector<Entry> entries;
    /** Simulated cycles of one pass over the entries. */
    uint64_t passCycles() const;
    /** compileCounts() summed over the entries. */
    std::map<std::string, double> counts() const;

  private:
    std::vector<SimSpec> specs_;
    uint64_t seed_;
};

struct CompileSpec
{
    std::string workload;
    int par = 8;
    bool solver = false;
    std::string label() const;
};

class CompilePath
{
  public:
    struct Key
    {
        CompileSpec spec;
        compiler::CompilerOptions opt;
        std::string refBytes; ///< Setup's packed artifact.
    };

    CompilePath(std::vector<CompileSpec> specs, uint64_t seed);
    /** Compile every key once: reference bytes and counts. */
    void setup(LayerStats *ls = nullptr);
    OpResult runOp(size_t i, Tracer *t, LayerStats *ls);
    /** As SimPath::loop. */
    void loop(LoopStats &st, double seconds, int minPasses,
              Tracer *t = nullptr, LayerStats *ls = nullptr);

    std::vector<Key> keys;
    /** compileCounts() summed over the keys. */
    std::map<std::string, double> totals;

  private:
    std::vector<CompileSpec> specs_;
    uint64_t seed_;
};

class ServePath
{
  public:
    struct Kind
    {
        serve::Verb verb = serve::Verb::Run;
        std::string workload;
        int par = 4;
        bool check = false;
        ServeExpect expect;
        std::string label() const;
        /** Replay state (run kinds): the same compile the server holds. */
        compiler::CompileResult compiled;
    };
    struct Sample
    {
        double doneMs = 0.0; ///< Completion, on the loop-time clock.
        double rttMs = 0.0, queueMs = 0.0, serviceMs = 0.0;
    };

    /** `dir` holds the daemon socket (relative paths are fine). */
    ServePath(std::vector<Kind> kinds, uint64_t seed, std::string dir);
    ~ServePath();
    ServePath(const ServePath &) = delete;
    ServePath &operator=(const ServePath &) = delete;

    /** Direct reference runs, daemon start, cache warm-up. */
    void setup();
    /** Stop and join the daemon (idempotent; also run by ~ServePath). */
    void stop();
    /** `clients` closed loops for `seconds`, each resuming its seeded
     *  request sequence where its previous loop stopped; samples are
     *  appended, completion times on a clock of loop time only. */
    void loop(LoopStats &st, double seconds, int clients,
              std::vector<Sample> *samples = nullptr);
    /** One client, each request followed by its in-process replay. */
    void tracedLoop(LoopStats &st, double seconds, Tracer *t,
                    LayerStats *ls, SimCounters *sc);
    const std::string &socketPath() const;
    /** The daemon's `stats` counters. */
    std::map<std::string, double> counters();

    std::vector<Kind> kinds;

  private:
    std::vector<size_t> order(uint64_t salt) const;
    serve::Request request(const Kind &k);
    uint64_t seed_;
    std::string dir_;
    std::unique_ptr<serve::Server> server_;
    std::atomic<uint64_t> nextId_{0};
    std::vector<size_t> cursors_; ///< Per-client sequence position.
    double busyMs_ = 0.0;         ///< Loop time so far.
};

/** Default serve mix: warm compile hits on large programs plus small
 *  run requests, half of them with `check`. */
std::vector<ServePath::Kind> serveMix();

} // namespace sarabench

#endif // SARABENCH_BENCH_H
