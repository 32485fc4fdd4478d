/**
 * @file
 * Start-time/self-clocked weighted fair queueing over SLO classes.
 *
 * The fleet scheduler must hand device capacity to gold tenants first
 * without starving bronze. Strict priority starves; FIFO ignores class.
 * SCFQ (self-clocked fair queueing, Golestani '94) gets proportional
 * sharing with O(1) virtual-time bookkeeping: each enqueued request is
 * stamped with a virtual *finish tag* `max(V, last_finish[class]) +
 * cost / weight`, the dequeue always serves the smallest tag, and the
 * virtual clock V advances to the tag just served. Under sustained
 * backlog each class receives service proportional to its weight; an
 * idle class's backlog never builds "credit" (the max() with V
 * forgets idle periods), so a burst after idleness cannot lock out
 * everyone else.
 *
 * Single-consumer, externally locked: FleetService calls this under
 * its scheduler mutex, matching the serve layer's locking idiom.
 */
#ifndef DBSCORE_FLEET_WFQ_H
#define DBSCORE_FLEET_WFQ_H

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/fleet/slo.h"

namespace dbscore::fleet {

/** Weighted fair queue of T over the three SLO classes. */
template <typename T>
class WeightedFairQueue {
 public:
    /** @param weights per-class service weights (must be positive). */
    explicit WeightedFairQueue(
        const std::array<double, kNumSloClasses>& weights)
        : weights_(weights)
    {
        for (double w : weights_) {
            DBS_ASSERT_MSG(w > 0.0, "wfq: weights must be positive");
        }
    }

    /**
     * Enqueues @p item in @p cls's FIFO with @p cost units of demanded
     * service (1.0 = one request-sized quantum).
     */
    void
    Push(SloClass cls, T item, double cost = 1.0)
    {
        auto& q = queues_[Index(cls)];
        double& last = last_finish_[Index(cls)];
        const double start = last > virtual_time_ ? last : virtual_time_;
        const double finish = start + cost / weights_[Index(cls)];
        last = finish;
        q.push_back(Entry{finish, std::move(item)});
        ++size_;
    }

    /**
     * Removes and returns the item with the smallest finish tag
     * (FIFO within a class), advancing the virtual clock to that tag.
     * nullopt when empty.
     */
    std::optional<T>
    Pop()
    {
        int best = -1;
        for (int c = 0; c < kNumSloClasses; ++c) {
            if (queues_[c].empty()) {
                continue;
            }
            if (best < 0 ||
                queues_[c].front().finish < queues_[best].front().finish) {
                best = c;
            }
        }
        if (best < 0) {
            return std::nullopt;
        }
        Entry entry = std::move(queues_[best].front());
        queues_[best].pop_front();
        --size_;
        virtual_time_ = entry.finish;
        return std::move(entry.item);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

 private:
    struct Entry {
        double finish = 0.0;
        T item;
    };

    static int Index(SloClass cls) { return static_cast<int>(cls); }

    std::array<double, kNumSloClasses> weights_;
    std::array<std::deque<Entry>, kNumSloClasses> queues_;
    std::array<double, kNumSloClasses> last_finish_{};
    double virtual_time_ = 0.0;
    std::size_t size_ = 0;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_WFQ_H
