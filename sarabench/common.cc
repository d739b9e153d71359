#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "bench.h"

namespace sarabench {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "workloads", "artifact", "compiler", "solver", "runtime", "sim",
        "noc",       "dram",     "ir",       "serve",  "other"};
    return names;
}

Tracer::Tracer() : epoch_(Clock::now()) {}

double
Tracer::nowMs() const
{
    return msBetween(epoch_, Clock::now());
}

int
Tracer::open(const std::string &name, std::string label)
{
    Span s;
    s.name = name;
    s.label = std::move(label);
    if (stack_.empty()) {
        s.op = ++ops_;
    } else {
        s.parent = stack_.back();
        s.op = spans_[s.parent].op;
    }
    s.cpuMs = -threadCpuMs();
    s.startMs = nowMs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
}

void
Tracer::close(int idx)
{
    Span &s = spans_[idx];
    s.endMs = nowMs();
    s.cpuMs += threadCpuMs();
    if (stack_.empty() || stack_.back() != idx)
        std::fprintf(stderr, "sarabench: span %s closed out of order\n",
                     s.name.c_str());
    stack_.pop_back();
}

std::vector<int>
Tracer::derive(int parent,
               const std::vector<std::pair<std::string, double>> &parts)
{
    std::vector<int> idx;
    double total = 0.0;
    for (const auto &[name, ms] : parts)
        total += std::max(0.0, ms);
    const Span p = spans_[parent];
    double room = p.endMs - p.startMs;
    double scale = total > room && total > 0.0 ? room / total : 1.0;
    double at = p.startMs;
    for (const auto &[name, ms] : parts) {
        if (!(ms > 0.0)) {
            idx.push_back(-1);
            continue;
        }
        Span s;
        s.name = name;
        s.parent = parent;
        s.op = p.op;
        s.derived = true;
        s.startMs = at;
        s.endMs = at + ms * scale;
        s.cpuMs = room > 0.0 ? p.cpuMs * (s.endMs - s.startMs) / room : 0.0;
        at = s.endMs;
        spans_.push_back(std::move(s));
        idx.push_back(static_cast<int>(spans_.size() - 1));
    }
    return idx;
}

std::map<std::string, double>
Tracer::layerReport() const
{
    // Self time = duration minus the part covered by direct children.
    std::vector<double> childMs(spans_.size(), 0.0),
        childCpu(spans_.size(), 0.0);
    for (const auto &s : spans_) {
        if (s.parent < 0)
            continue;
        childMs[s.parent] += s.endMs - s.startMs;
        childCpu[s.parent] += s.cpuMs;
    }
    std::map<std::string, double> selfMs, selfCpu;
    std::map<uint64_t, double> opWall, opSelfSum;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::string layer = s.parent < 0
                                ? "other"
                                : s.name.substr(0, s.name.find('.'));
        double self = (s.endMs - s.startMs) - childMs[i];
        selfMs[layer] += self;
        selfCpu[layer] += s.cpuMs - childCpu[i];
        opSelfSum[s.op] += self;
        if (s.parent < 0)
            opWall[s.op] = s.endMs - s.startMs;
    }
    std::map<std::string, double> out;
    double ops = std::max<double>(1.0, static_cast<double>(ops_));
    for (const auto &layer : layerNames()) {
        out[layer + ".self_ms"] = selfMs[layer] / ops;
        out[layer + ".cpu_ms"] = selfCpu[layer] / ops;
    }
    double worst = 0.0;
    for (const auto &[op, wall] : opWall)
        worst = std::max(worst, std::abs(opSelfSum[op] - wall));
    out["trace.reconcile_err_ms"] = worst;
    out["trace.spans"] = static_cast<double>(spans_.size());
    return out;
}

void
Tracer::writeJson(const std::string &path,
                  const std::string &hostJson) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "sarabench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\"host\": %s,\n\"spans\": [\n", hostJson.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"label\":\"%s\",\"start_ms\":%.4f,"
                     "\"end_ms\":%.4f,\"cpu_ms\":%.4f,\"parent\":%d,"
                     "\"op\":%llu,\"derived\":%s}%s\n",
                     s.name.c_str(), s.label.c_str(), s.startMs, s.endMs,
                     s.cpuMs,
                     s.parent, static_cast<unsigned long long>(s.op),
                     s.derived ? "true" : "false",
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

// ---------------------------------------------------------------------------
// Counters, loop statistics, checks
// ---------------------------------------------------------------------------

void
SimCounters::add(const sim::SimResult &r)
{
    ++runs;
    events += r.hostEvents;
    firings += r.totalFirings;
    wakeups += r.wakeups;
    spurious += r.spuriousWakeups;
    flits += r.noc.flits;
    hops += r.noc.hops;
    queueCycles += r.noc.queueCycles;
    dramRequests += r.dramRequests;
    dramRowHits += r.dramRowHits;
    for (int c = 0; c < sim::kNumStallCauses; ++c)
        stalls[c] += r.stallTotals[c];
}

std::vector<double>
LoopStats::itemBest() const
{
    std::vector<double> out;
    for (const auto &xs : itemMs)
        out.push_back(xs.empty() ? 0.0
                                 : *std::min_element(xs.begin(), xs.end()));
    return out;
}

void
LoopStats::record(size_t item, double ms, double cpuMs, bool ok)
{
    itemMs[item].push_back(ms);
    opMs.push_back(ms);
    opCpuMs.push_back(cpuMs);
    ++attempted;
    if (!ok)
        ++failed;
}

bool
tensorsMatch(const std::vector<std::vector<double>> &sim,
             const std::vector<std::vector<double>> &ref)
{
    if (sim.size() > ref.size())
        return false;
    for (size_t t = 0; t < sim.size(); ++t) {
        if (sim[t].empty())
            continue;
        if (sim[t].size() != ref[t].size())
            return false;
        for (size_t i = 0; i < sim[t].size(); ++i)
            if (!(std::abs(sim[t][i] - ref[t][i]) <= 1e-4))
                return false;
    }
    return true;
}

bool
responseOk(const json::Value &v, const ServeExpect &e)
{
    const json::Value *status = v.find("status");
    if (!status || !status->isString() || status->str != "ok")
        return false;
    const json::Value *fromCache = v.find("from_cache");
    if (!fromCache || !fromCache->boolean)
        return false;
    if (!e.run)
        return true;
    const json::Value *cycles = v.find("cycles");
    if (!cycles || !cycles->isNumber() ||
        static_cast<uint64_t>(cycles->num) != e.cycles)
        return false;
    if (e.check) {
        const json::Value *correct = v.find("correct");
        if (!correct || !correct->boolean)
            return false;
    }
    return true;
}

sim::SimOptions
simOptionsFor(const compiler::CompilerOptions &copt, bool noc)
{
    sim::SimOptions o;
    o.useNoc = noc;
    const auto &net = copt.spec.net;
    o.noc.hopLatency = net.hopLatency;
    o.noc.ejectLatency = net.ejectLatency;
    o.noc.minLatency = net.minLatency;
    o.noc.routeTokens = copt.control == compiler::ControlScheme::Cmmc;
    o.fabricRows = copt.spec.rows;
    o.fabricCols = copt.spec.cols;
    return o;
}

} // namespace sarabench
