#include "dbscore/serve/batch_coalescer.h"

#include <utility>

#include "dbscore/common/error.h"

namespace dbscore::serve {

BatchCoalescer::BatchCoalescer(const CoalescerConfig& config)
    : config_(config)
{
    if (config.max_batch_requests == 0) {
        throw InvalidArgument("coalescer: zero batch cap");
    }
    if (config.window < SimTime()) {
        throw InvalidArgument("coalescer: negative window");
    }
}

std::vector<Batch>
BatchCoalescer::Add(PendingRequest request)
{
    DBS_ASSERT_MSG(request.request.arrival.has_value(),
                   "coalescer: unstamped arrival");
    const SimTime arrival = *request.request.arrival;
    const std::size_t rows = request.request.num_rows;
    std::vector<Batch> closed;

    auto it = open_.find(request.request.model_id);
    if (it != open_.end()) {
        Batch& batch = it->second;
        const bool in_window =
            !config_.window.is_zero() &&
            arrival <= batch.open_arrival + config_.window;
        const bool fits =
            batch.members.size() < config_.max_batch_requests &&
            batch.total_rows + rows <= kMaxBatchRows;
        if (in_window && fits) {
            batch.members.push_back(std::move(request));
            batch.total_rows += rows;
            batch.ready = Max(batch.ready, arrival);
            if (batch.members.size() >= config_.max_batch_requests ||
                batch.total_rows >= kMaxBatchRows) {
                // Cap hit: close. The newcomer was never counted in
                // pending_, so only the prior members come off.
                pending_ -= batch.members.size() - 1;
                closed.push_back(std::move(batch));
                open_.erase(it);
            } else {
                ++pending_;
            }
            return closed;
        }
        // Missed the window (or would overflow): close the open batch
        // and let the newcomer start a fresh one.
        pending_ -= batch.members.size();
        closed.push_back(std::move(batch));
        open_.erase(it);
    }

    Batch fresh;
    fresh.model_id = request.request.model_id;
    fresh.open_arrival = arrival;
    fresh.ready = arrival;
    fresh.total_rows = rows;
    fresh.members.push_back(std::move(request));

    const bool solo =
        config_.window.is_zero() ||
        fresh.members.size() >= config_.max_batch_requests ||
        fresh.total_rows >= kMaxBatchRows;
    if (solo) {
        closed.push_back(std::move(fresh));
    } else {
        ++pending_;
        std::string key = fresh.model_id;
        open_.emplace(std::move(key), std::move(fresh));
    }
    return closed;
}

std::vector<Batch>
BatchCoalescer::Flush()
{
    std::vector<Batch> closed;
    closed.reserve(open_.size());
    for (auto& [model, batch] : open_) {
        (void)model;
        pending_ -= batch.members.size();
        closed.push_back(std::move(batch));
    }
    open_.clear();
    return closed;
}

}  // namespace dbscore::serve
