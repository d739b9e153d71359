#ifndef SARA_SUPPORT_FLIGHT_H
#define SARA_SUPPORT_FLIGHT_H

/**
 * @file
 * Flight recorder: a fixed-size ring buffer of recent simulator events
 * (engine fires/skips, coroutine parks and wakeups, NoC link grants,
 * FIFO deliveries). Recording is O(1) — overwrite the oldest slot —
 * and events are raw integers; names are resolved only when a failure
 * dumps the timeline, so the recorder can stay on by default without
 * perturbing the hot path. On exit-4 paths (deadlock, classified hang,
 * budget overrun) the last-N events land in the structured
 * FailureReport, giving every hang diagnosis the timeline that led up
 * to it.
 */

#include <cstdint>
#include <vector>

namespace sara::telemetry {

/** Event kinds; `a`/`b` meanings depend on the kind (the simulator
 *  resolves them against its graph when formatting a timeline). */
enum class FlightKind : uint8_t {
    Fire,      ///< a = unit id, b = duration cycles.
    Skip,      ///< a = unit id.
    Park,      ///< a = unit id, b = stream id (-1: DRAM window/drain).
    Wake,      ///< a = unit id, b = 1 when the wakeup was spurious.
    LinkGrant, ///< a = stream id, b = link index.
    Deliver,   ///< a = stream id.
};

const char *flightKindName(FlightKind kind);

struct FlightEvent
{
    uint64_t at = 0; ///< Simulated cycle.
    FlightKind kind = FlightKind::Fire;
    int32_t a = -1;
    int32_t b = -1;
};

class FlightRecorder
{
  public:
    /** `capacity` 0 disables recording entirely. */
    explicit FlightRecorder(size_t capacity = 256) { reset(capacity); }

    void
    reset(size_t capacity)
    {
        buf_.assign(capacity, FlightEvent{});
        head_ = 0;
        size_ = 0;
        total_ = 0;
    }

    bool enabled() const { return !buf_.empty(); }
    size_t capacity() const { return buf_.size(); }
    size_t size() const { return size_; }
    /** Events ever recorded (including overwritten ones). */
    uint64_t totalRecorded() const { return total_; }

    void
    record(FlightKind kind, uint64_t at, int32_t a, int32_t b = -1)
    {
        if (buf_.empty())
            return;
        buf_[head_] = FlightEvent{at, kind, a, b};
        head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
        if (size_ < buf_.size())
            ++size_;
        ++total_;
    }

    /** Retained events, oldest first. */
    std::vector<FlightEvent>
    events() const
    {
        std::vector<FlightEvent> out;
        out.reserve(size_);
        size_t start = size_ < buf_.size() ? 0 : head_;
        for (size_t i = 0; i < size_; ++i)
            out.push_back(buf_[(start + i) % buf_.size()]);
        return out;
    }

  private:
    std::vector<FlightEvent> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    uint64_t total_ = 0;
};

inline const char *
flightKindName(FlightKind kind)
{
    switch (kind) {
      case FlightKind::Fire: return "fire";
      case FlightKind::Skip: return "skip";
      case FlightKind::Park: return "park";
      case FlightKind::Wake: return "wake";
      case FlightKind::LinkGrant: return "link-grant";
      case FlightKind::Deliver: return "deliver";
    }
    return "?";
}

} // namespace sara::telemetry

#endif // SARA_SUPPORT_FLIGHT_H
