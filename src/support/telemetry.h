#ifndef SARA_SUPPORT_TELEMETRY_H
#define SARA_SUPPORT_TELEMETRY_H

/**
 * @file
 * Lightweight metrics layer shared by the compiler, simulator, and
 * benchmark harness — the instrumentation spine the evaluation
 * figures are derived from.
 *
 * Four primitives:
 *  - Registry: named counters with a global instance that is
 *    OFF by default; when disabled every operation is a single branch
 *    so instrumented hot paths cost nothing measurable.
 *  - SpanRecorder / ScopedSpan: nested wall-clock phase timings with
 *    attached numeric stats (compile phases, Fig. 11b/c).
 *  - TimeSeries: bounded (time, value) sampler with automatic
 *    decimation — sampling a billion-cycle run keeps a fixed-size,
 *    evenly thinned series (DRAM occupancy/bandwidth tracks).
 *  - ChromeTraceWriter: emits chrome://tracing / Perfetto JSON so
 *    compile spans, engine firings, and DRAM counter tracks land in
 *    one inspectable timeline.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace sara::telemetry {

// ---------------------------------------------------------------------------
// Registry: named counters.
// ---------------------------------------------------------------------------

/**
 * Thread-safe when enabled: mutations take an internal lock so
 * parallel batch jobs (src/jobs) can bump shared counters. The
 * disabled fast path stays a single unsynchronized branch.
 */
class Registry
{
  public:
    /** Process-wide instance; disabled by default. */
    static Registry &global();

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Bump a named counter (no-op when disabled). */
    void
    add(const std::string &name, uint64_t delta = 1)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        counters_[name] += delta;
    }

    uint64_t counter(const std::string &name) const;

    /** Locked copy of every counter — safe while writers are live
     *  (the sarad stats endpoint samples a running daemon). */
    std::map<std::string, uint64_t> counterSnapshot() const;

    /** Direct view — only safe once concurrent writers have quiesced
     *  (e.g. after a batch drains); use counter() otherwise. */
    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }

    void clear();

    /** Human-readable dump (one "name = value" line per metric). */
    std::string str() const;

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::map<std::string, uint64_t> counters_;
};

// ---------------------------------------------------------------------------
// Spans: nested wall-clock phases with attached stats.
// ---------------------------------------------------------------------------

/** One recorded phase. Times are milliseconds since the recorder's
 *  epoch (its construction or last clear()). */
struct Span
{
    std::string name;
    double startMs = 0.0;
    double durMs = 0.0;
    int depth = 0; ///< Nesting depth when opened (0 = top level).
    std::vector<std::pair<std::string, double>> stats;

    double stat(const std::string &key, double fallback = 0.0) const;
};

/**
 * Records a tree of spans. Spans must close LIFO (enforced); use
 * ScopedSpan so scope exit closes them. Copyable — a finished
 * recording travels inside result structs.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Open a span; returns its index (or -1 when disabled). */
    int begin(const std::string &name);
    /** Close the span `idx` (must be the innermost open one). */
    void end(int idx);
    /** Attach a numeric stat to an open or closed span. */
    void stat(int idx, const std::string &key, double value);

    /** Milliseconds since the epoch (for callers aligning events). */
    double nowMs() const;

    const std::vector<Span> &spans() const { return spans_; }
    /** First span with `name`, or nullptr. */
    const Span *find(const std::string &name) const;
    /** Duration of the first span with `name` (0 when absent). */
    double ms(const std::string &name) const;

    void clear();

  private:
    bool enabled_ = true;
    int64_t epochNs_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< Stack of open span indices.
};

/** RAII handle opening a span for the current scope. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const std::string &name)
        : recorder_(&recorder), idx_(recorder.begin(name))
    {
    }
    ~ScopedSpan() { end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Attach a stat to this span. */
    void
    stat(const std::string &key, double value)
    {
        if (idx_ >= 0)
            recorder_->stat(idx_, key, value);
    }

    /** Close early (idempotent; the destructor becomes a no-op). */
    void
    end()
    {
        if (idx_ >= 0)
            recorder_->end(idx_);
        idx_ = -1;
    }

  private:
    SpanRecorder *recorder_;
    int idx_;
};

// ---------------------------------------------------------------------------
// TimeSeries: bounded sampler with automatic decimation.
// ---------------------------------------------------------------------------

/**
 * Append-only (time, value) series that never exceeds `maxSamples`:
 * a sample closer than `interval` to the last one overwrites it (so
 * the final value at the tail stays exact), and filling up halves the
 * resolution (every other sample dropped, interval doubled). Sampling
 * cost is O(1) amortized; memory is O(maxSamples) regardless of run
 * length.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(size_t maxSamples = 4096,
                        uint64_t minInterval = 1)
        : maxSamples_(maxSamples < 16 ? 16 : maxSamples),
          minInterval_(minInterval < 1 ? 1 : minInterval),
          interval_(minInterval_)
    {
    }

    void sample(uint64_t t, double value);

    bool empty() const { return samples_.empty(); }
    size_t size() const { return samples_.size(); }
    uint64_t interval() const { return interval_; }
    const std::vector<std::pair<uint64_t, double>> &samples() const
    {
        return samples_;
    }

    /** Drop all samples and start a fresh epoch: the decimation
     *  stride rewinds to its construction-time minimum, so a reused
     *  series resolves short runs as finely as a fresh one. */
    void
    clear()
    {
        samples_.clear();
        interval_ = minInterval_;
    }

  private:
    std::vector<std::pair<uint64_t, double>> samples_;
    size_t maxSamples_;
    uint64_t minInterval_;
    uint64_t interval_;
};

// ---------------------------------------------------------------------------
// Chrome trace writer.
// ---------------------------------------------------------------------------

/**
 * Writes the Chrome trace-event JSON array format understood by
 * chrome://tracing and Perfetto. Timestamps are microseconds; the
 * simulator maps one cycle to one microsecond so the timeline reads
 * in cycles directly.
 */
class ChromeTraceWriter
{
  public:
    explicit ChromeTraceWriter(const std::string &path);
    ~ChromeTraceWriter();
    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /** False when the file could not be opened (writes are no-ops). */
    bool ok() const { return f_ != nullptr; }
    size_t eventsWritten() const { return events_; }

    void processName(int pid, const std::string &name);
    void threadName(int pid, int tid, const std::string &name);
    /** Complete ("X") event: a named interval on (pid, tid). */
    void complete(int pid, int tid, const std::string &name, double tsUs,
                  double durUs);
    /** Counter ("C") event: one named track of key->value. */
    void counter(int pid, const std::string &name, double tsUs,
                 const std::string &key, double value);
    /** Instant ("i") event: a point-in-time marker on (pid, tid) —
     *  used for hang/failure annotations on the timeline. */
    void instant(int pid, int tid, const std::string &name, double tsUs);

    /** Flush and close; further writes are no-ops. */
    void close();

  private:
    void emit(const std::string &event);

    std::FILE *f_ = nullptr;
    bool first_ = true;
    size_t events_ = 0;
};

} // namespace sara::telemetry

#endif // SARA_SUPPORT_TELEMETRY_H
