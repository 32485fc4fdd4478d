#include "dbscore/serve/request.h"

namespace dbscore::serve {

const char*
RequestStatusName(RequestStatus status)
{
    switch (status) {
      case RequestStatus::kCompleted: return "completed";
      case RequestStatus::kRejected: return "rejected";
      case RequestStatus::kExpired: return "expired";
      case RequestStatus::kFailed: return "failed";
    }
    return "?";
}

const ScoreReply&
PendingScore::Wait() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return ready_; });
    return reply_;
}

bool
PendingScore::ready() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ready_;
}

void
PendingScore::Fulfill(ScoreReply reply)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        DBS_ASSERT_MSG(!ready_, "pending score fulfilled twice");
        reply_ = std::move(reply);
        ready_ = true;
    }
    cv_.notify_all();
}

std::vector<ScoreRequest>
RequestsFromWorkload(const std::vector<WorkloadQuery>& queries,
                     const std::string& model_id,
                     std::optional<SimTime> deadline)
{
    std::vector<ScoreRequest> requests;
    requests.reserve(queries.size());
    for (const WorkloadQuery& q : queries) {
        ScoreRequest r;
        r.model_id = model_id;
        r.num_rows = q.num_rows;
        r.arrival = q.arrival;
        r.deadline = deadline;
        requests.push_back(std::move(r));
    }
    return requests;
}

}  // namespace dbscore::serve
