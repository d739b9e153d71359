#include "support/telemetry.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "support/json.h"
#include "support/logging.h"

namespace sara::telemetry {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

uint64_t
Registry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t>
Registry::counterSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    counters_.clear();
}

std::string
Registry::str() const
{
    std::ostringstream os;
    for (const auto &[name, v] : counters_)
        os << name << " = " << v << "\n";
    return os.str();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

double
Span::stat(const std::string &key, double fallback) const
{
    for (const auto &[k, v] : stats)
        if (k == key)
            return v;
    return fallback;
}

SpanRecorder::SpanRecorder() : epochNs_(nowNs()) {}

double
SpanRecorder::nowMs() const
{
    return static_cast<double>(nowNs() - epochNs_) / 1e6;
}

int
SpanRecorder::begin(const std::string &name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.startMs = nowMs();
    s.depth = static_cast<int>(open_.size());
    spans_.push_back(std::move(s));
    int idx = static_cast<int>(spans_.size()) - 1;
    open_.push_back(idx);
    return idx;
}

void
SpanRecorder::end(int idx)
{
    if (idx < 0)
        return;
    SARA_ASSERT(!open_.empty() && open_.back() == idx,
                "span ", idx, " closed out of LIFO order");
    open_.pop_back();
    spans_[idx].durMs = nowMs() - spans_[idx].startMs;
}

void
SpanRecorder::stat(int idx, const std::string &key, double value)
{
    if (idx < 0)
        return;
    SARA_ASSERT(idx < static_cast<int>(spans_.size()),
                "stat on unknown span ", idx);
    spans_[idx].stats.emplace_back(key, value);
}

const Span *
SpanRecorder::find(const std::string &name) const
{
    for (const auto &s : spans_)
        if (s.name == name)
            return &s;
    return nullptr;
}

double
SpanRecorder::ms(const std::string &name) const
{
    const Span *s = find(name);
    return s ? s->durMs : 0.0;
}

void
SpanRecorder::clear()
{
    spans_.clear();
    open_.clear();
    epochNs_ = nowNs();
}

// ---------------------------------------------------------------------------
// TimeSeries
// ---------------------------------------------------------------------------

void
TimeSeries::sample(uint64_t t, double value)
{
    if (!samples_.empty()) {
        auto &[lastT, lastV] = samples_.back();
        if (t <= lastT + interval_ - 1) {
            // Too close to the previous sample: keep the tail exact
            // by overwriting (monotone time assumed).
            if (t >= lastT) {
                lastT = t;
                lastV = value;
            }
            return;
        }
    }
    samples_.emplace_back(t, value);
    if (samples_.size() >= maxSamples_) {
        // Halve the resolution: keep every other sample (always the
        // last one) and double the spacing threshold.
        size_t kept = 0;
        for (size_t i = samples_.size() & 1 ? 0 : 1; i < samples_.size();
             i += 2)
            samples_[kept++] = samples_[i];
        samples_.resize(kept);
        interval_ *= 2;
    }
}

// ---------------------------------------------------------------------------
// ChromeTraceWriter
// ---------------------------------------------------------------------------

ChromeTraceWriter::ChromeTraceWriter(const std::string &path)
{
    f_ = std::fopen(path.c_str(), "w");
    if (!f_) {
        warn("cannot open trace file ", path);
        return;
    }
    std::fputs("[\n", f_);
}

ChromeTraceWriter::~ChromeTraceWriter()
{
    close();
}

void
ChromeTraceWriter::emit(const std::string &event)
{
    if (!f_)
        return;
    if (!first_)
        std::fputs(",\n", f_);
    first_ = false;
    std::fputs(event.c_str(), f_);
    ++events_;
}

void
ChromeTraceWriter::processName(int pid, const std::string &name)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"%s\"}}",
                  pid, json::escape(name).c_str());
    emit(buf);
}

void
ChromeTraceWriter::threadName(int pid, int tid, const std::string &name)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                  pid, tid, json::escape(name).c_str());
    emit(buf);
}

void
ChromeTraceWriter::complete(int pid, int tid, const std::string &name,
                            double tsUs, double durUs)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                  "\"ts\":%s,\"dur\":%s}",
                  json::escape(name).c_str(), pid, tid,
                  json::number(tsUs).c_str(), json::number(durUs).c_str());
    emit(buf);
}

void
ChromeTraceWriter::counter(int pid, const std::string &name, double tsUs,
                           const std::string &key, double value)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":%d,\"ts\":%s,"
                  "\"args\":{\"%s\":%s}}",
                  json::escape(name).c_str(), pid,
                  json::number(tsUs).c_str(), json::escape(key).c_str(),
                  json::number(value).c_str());
    emit(buf);
}

void
ChromeTraceWriter::instant(int pid, int tid, const std::string &name,
                           double tsUs)
{
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"i\",\"pid\":%d,"
                  "\"tid\":%d,\"ts\":%s,\"s\":\"t\"}",
                  json::escape(name).c_str(), pid, tid,
                  json::number(tsUs).c_str());
    emit(buf);
}

void
ChromeTraceWriter::close()
{
    if (!f_)
        return;
    std::fputs("\n]\n", f_);
    std::fclose(f_);
    f_ = nullptr;
}

} // namespace sara::telemetry
