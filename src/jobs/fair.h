#ifndef SARA_JOBS_FAIR_H
#define SARA_JOBS_FAIR_H

/**
 * @file
 * Bounded, tenant-aware fair queue — the admission-control and
 * scheduling core of the sarad service (src/serve), kept here next to
 * the thread pool because it is a general scheduling primitive, not a
 * protocol detail.
 *
 * Semantics:
 *  - Admission control: the queue holds at most `maxDepth` items
 *    across all tenants, and each tenant at most its weighted share of
 *    them: ceil(maxDepth * w / W), where W sums the weights of the
 *    tenants with queued items and the pushing tenant's own, so a lone
 *    tenant may fill the whole queue. Past saturation the share, not
 *    which tenant's send finds the free slot, decides the split.
 *    tryPush() never blocks; it returns false when the queue is
 *    saturated or the tenant holds its share, and the caller turns
 *    that into a structured reject-with-retry-after response.
 *  - Weighted fairness: each tenant owns a FIFO sub-queue and a
 *    stride-scheduling pass value. pop() always serves the non-empty
 *    tenant with the smallest pass, then advances that tenant's pass
 *    by 1/weight. Two tenants at equal weight offering equal load are
 *    served alternately; a weight-2 tenant is served twice as often.
 *    A tenant going idle and returning re-joins at the current global
 *    virtual time, so sleeping never banks credit.
 *  - Tenant churn: a tenant whose sub-queue empties and that carries
 *    no explicit weight is garbage-collected on pop(), so a stream of
 *    one-shot tenants (chaos clients, per-request tenant ids) cannot
 *    grow the tenant map without bound. Explicitly-weighted tenants
 *    persist — their configuration must survive idle periods.
 *  - pop() blocks until an item is available or stop() is called;
 *    after stop() the remaining items drain in fair order and pop()
 *    then returns nullopt forever.
 *
 * Thread-safe; every operation takes the internal lock. The tenant
 * count is expected to be small (tens), so pop()'s min-pass scan is a
 * linear walk rather than a heap.
 */

#include <cmath>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>

namespace sara::jobs {

template <typename T>
class FairQueue
{
  public:
    explicit FairQueue(size_t maxDepth) : maxDepth_(maxDepth) {}

    /** Set a tenant's scheduling weight (default 1.0; must be > 0).
     *  Takes effect from the tenant's next pop. */
    void
    setWeight(const std::string &tenant, double weight)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (weight > 0.0) {
            Tenant &t = tenants_[tenant];
            t.weight = weight;
            t.pinned = true; // Survives idle GC.
        }
    }

    /** Enqueue under `tenant`; false when the queue is saturated or
     *  the tenant already holds its share of it. */
    bool
    tryPush(const std::string &tenant, T item)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (stopped_ || depth_ >= maxDepth_)
                return false;
            Tenant &t = tenants_[tenant];
            double weights = t.weight;
            for (const auto &kv : tenants_)
                if (&kv.second != &t && !kv.second.items.empty())
                    weights += kv.second.weight;
            if (static_cast<double>(t.items.size()) >=
                std::ceil(static_cast<double>(maxDepth_) * t.weight /
                          weights))
                return false;
            // Re-joining tenants start at the current virtual time:
            // idle periods earn no scheduling credit.
            if (t.items.empty() && t.pass < virtual_)
                t.pass = virtual_;
            t.items.push_back(std::move(item));
            ++depth_;
        }
        cv_.notify_one();
        return true;
    }

    /** Dequeue the next item in weighted-fair order. Blocks while the
     *  queue is empty; returns nullopt once stopped and drained. */
    std::optional<T>
    pop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return depth_ > 0 || stopped_; });
        if (depth_ == 0)
            return std::nullopt;
        Tenant *best = nullptr;
        for (auto &[name, t] : tenants_) {
            (void)name;
            if (t.items.empty())
                continue;
            if (!best || t.pass < best->pass)
                best = &t;
        }
        T item = std::move(best->items.front());
        best->items.pop_front();
        virtual_ = best->pass;
        best->pass += 1.0 / best->weight;
        --depth_;
        // Tenant-churn GC: drop drained default-weight tenants. Their
        // pass state is re-derivable (a re-joining tenant starts at
        // the current virtual time anyway), so nothing is lost, and a
        // stream of unique tenant names stays O(active), not O(ever
        // seen). The `best` pointer dies here; erase by iterator walk.
        if (best->items.empty() && !best->pinned) {
            for (auto it = tenants_.begin(); it != tenants_.end(); ++it)
                if (&it->second == best) {
                    tenants_.erase(it);
                    break;
                }
        }
        return item;
    }

    /** Wake all blocked pops; they drain the backlog, then nullopt. */
    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stopped_ = true;
        }
        cv_.notify_all();
    }

    bool
    stopped() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return stopped_;
    }

    size_t
    depth() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return depth_;
    }

    size_t
    depth(const std::string &tenant) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = tenants_.find(tenant);
        return it == tenants_.end() ? 0 : it->second.items.size();
    }

    size_t maxDepth() const { return maxDepth_; }

    /** Tenants currently tracked (active + pinned): the churn-GC
     *  bound, exposed for tests and stats. */
    size_t
    tenantCount() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tenants_.size();
    }

  private:
    struct Tenant
    {
        std::deque<T> items;
        double pass = 0.0;
        double weight = 1.0;
        /** Explicitly configured (setWeight): exempt from churn GC. */
        bool pinned = false;
    };

    const size_t maxDepth_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::map<std::string, Tenant> tenants_;
    size_t depth_ = 0;
    double virtual_ = 0.0;
    bool stopped_ = false;
};

} // namespace sara::jobs

#endif // SARA_JOBS_FAIR_H
