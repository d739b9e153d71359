#include "support/hostprof.h"

#include <chrono>

namespace sara::telemetry {

std::atomic<bool> HostProfiler::enabledFlag_{false};
std::atomic<uint8_t> HostProfiler::currentPhase_{0};

HostProfiler &
HostProfiler::global()
{
    static HostProfiler instance;
    return instance;
}

HostProfiler::~HostProfiler()
{
    stop();
}

void
HostProfiler::start(uint32_t periodUs)
{
    if (running_)
        return;
    stopFlag_.store(false, std::memory_order_relaxed);
    sampler_ = std::thread([this, periodUs] {
        while (!stopFlag_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(periodUs));
            uint8_t phase =
                currentPhase_.load(std::memory_order_relaxed);
            if (phase < kNumHostPhases)
                counts_[phase].fetch_add(1, std::memory_order_relaxed);
        }
    });
    enabledFlag_.store(true, std::memory_order_relaxed);
    running_ = true;
}

void
HostProfiler::stop()
{
    if (!running_)
        return;
    enabledFlag_.store(false, std::memory_order_relaxed);
    stopFlag_.store(true, std::memory_order_relaxed);
    sampler_.join();
    running_ = false;
}

void
HostProfiler::clearSamples()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
}

uint64_t
HostProfiler::samples(HostPhase phase) const
{
    return counts_[static_cast<int>(phase)].load(
        std::memory_order_relaxed);
}

uint64_t
HostProfiler::totalSamples() const
{
    uint64_t sum = 0;
    for (const auto &c : counts_)
        sum += c.load(std::memory_order_relaxed);
    return sum;
}

} // namespace sara::telemetry
