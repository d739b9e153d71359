#ifndef SARA_SUPPORT_HOSTPROF_H
#define SARA_SUPPORT_HOSTPROF_H

/**
 * @file
 * Host sampling profiler: attributes simulator *wall-clock* time (not
 * simulated cycles) to coarse phase buckets, so a traced benchmark run
 * can split a simulation's wall time into NoC arbitration, the DRAM
 * model and everything else.
 *
 * Design: a steady-clock sampler thread periodically reads a global
 * "current phase" atomic and bumps that bucket's count; hot paths mark
 * themselves with ScopedPhase — two relaxed atomic stores when the
 * profiler runs, a single relaxed load + branch when it does not, so
 * the markers are safe to leave in the event core permanently. Scoped
 * markers must cover *synchronous* code only: a coroutine suspension
 * inside the scope would leak the phase across unrelated work.
 *
 * The profiler is process-global and single-run oriented (the caller
 * wraps one simulation at a time); parallel batch jobs simply leave it
 * disabled, and markers then cost the one branch.
 */

#include <atomic>
#include <cstdint>
#include <thread>

namespace sara::telemetry {

/** Wall-time attribution buckets for the simulator event core. */
enum class HostPhase : uint8_t {
    Other = 0, ///< Outside the marked regions (event core, compile, ...).
    NocArb,    ///< The NoC's end-of-cycle arbitration pass.
    Dram,      ///< DRAM timing model (row hits, bus scheduling).
};
inline constexpr int kNumHostPhases = 3;

class HostProfiler
{
  public:
    /** Process-wide instance (markers always target this one). */
    static HostProfiler &global();

    ~HostProfiler();

    /** Start the sampler thread at `periodUs` microseconds per sample
     *  and enable the markers. No-op when already running. */
    void start(uint32_t periodUs = 200);
    /** Stop and join the sampler; markers go back to one branch. */
    void stop();
    bool running() const { return running_; }

    void clearSamples();
    uint64_t samples(HostPhase phase) const;
    uint64_t totalSamples() const;

    /** Marker fast path (see ScopedPhase). */
    static bool
    enabled()
    {
        return enabledFlag_.load(std::memory_order_relaxed);
    }
    static HostPhase
    exchangePhase(HostPhase phase)
    {
        return static_cast<HostPhase>(currentPhase_.exchange(
            static_cast<uint8_t>(phase), std::memory_order_relaxed));
    }
    static void
    restorePhase(HostPhase phase)
    {
        currentPhase_.store(static_cast<uint8_t>(phase),
                            std::memory_order_relaxed);
    }

  private:
    static std::atomic<bool> enabledFlag_;
    static std::atomic<uint8_t> currentPhase_;

    std::atomic<uint64_t> counts_[kNumHostPhases] = {};
    std::atomic<bool> stopFlag_{false};
    std::thread sampler_;
    bool running_ = false;
};

/** RAII phase marker. Mark synchronous scopes only — never across a
 *  coroutine suspension point. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(HostPhase phase)
    {
        if (HostProfiler::enabled()) {
            active_ = true;
            prev_ = HostProfiler::exchangePhase(phase);
        }
    }
    ~ScopedPhase()
    {
        if (active_)
            HostProfiler::restorePhase(prev_);
    }
    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    bool active_ = false;
    HostPhase prev_ = HostPhase::Other;
};

} // namespace sara::telemetry

#endif // SARA_SUPPORT_HOSTPROF_H
