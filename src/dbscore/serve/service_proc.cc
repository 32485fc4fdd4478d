#include "dbscore/serve/service_proc.h"

#include <algorithm>
#include <numeric>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/dbms/plan/physical.h"

namespace dbscore::serve {

namespace {

/** @deadline_ms as a request deadline, if given. */
std::optional<SimTime>
DeadlineParam(const ExecStatement& stmt, const std::string& proc)
{
    auto deadline = GetIntParam(stmt, "deadline_ms");
    if (deadline.has_value() && *deadline <= 0) {
        throw InvalidArgument(proc + ": @deadline_ms must be positive");
    }
    return deadline.has_value() ? std::optional<SimTime>(SimTime::Millis(
                                      static_cast<double>(*deadline)))
                                : std::nullopt;
}

QueryResult
SpScoreService(ScoringService& service, const ExecStatement& stmt)
{
    ScoreRequest request;
    request.model_id = GetStringParam(stmt, "model");
    auto rows = GetIntParam(stmt, "rows");
    if (!rows.has_value() || *rows <= 0) {
        throw InvalidArgument(
            "sp_score_service: @rows must be a positive integer");
    }
    request.num_rows = static_cast<std::size_t>(*rows);
    request.deadline = DeadlineParam(stmt, "sp_score_service");

    ScoreReply reply = service.ScoreSync(std::move(request));
    if (reply.status == RequestStatus::kRejected) {
        throw InvalidArgument("sp_score_service: rejected: " + reply.error);
    }

    QueryResult result;
    result.columns = {"status",        "backend",       "batch_requests",
                      "batch_rows",    "latency_ms",    "coalesce_ms",
                      "queue_wait_ms", "invocation_ms", "attempts",
                      "degraded"};
    const RequestTiming& t = reply.timing;
    result.rows.push_back(
        {std::string(RequestStatusName(reply.status)),
         std::string(reply.status == RequestStatus::kCompleted
                         ? BackendName(reply.backend)
                         : "-"),
         static_cast<std::int64_t>(reply.batch_requests),
         static_cast<std::int64_t>(reply.batch_rows), t.latency.millis(),
         t.coalesce_delay.millis(), t.queue_wait.millis(),
         t.invocation_share.millis(),
         static_cast<std::int64_t>(reply.attempts),
         static_cast<std::int64_t>(reply.degraded ? 1 : 0)});
    result.modeled_time = t.latency;
    result.message = StrFormat(
        "%s in %s (modeled), batch of %zu request(s), %zu attempt(s)%s",
        RequestStatusName(reply.status), t.latency.ToString().c_str(),
        reply.batch_requests, reply.attempts,
        reply.degraded ? ", degraded to CPU" : "");
    return result;
}

/**
 * EXEC sp_serve_query @query='SELECT SCORE(m) FROM t WHERE x > 5'
 * [, @deadline_ms=N] — a SQL-shaped serving request: the statement is
 * planned through the engine's planner (cached like any SELECT), the
 * scan + plain-filter prefix runs locally to build the feature batch,
 * and the batch goes through the ScoringService's admission /
 * coalescing / backend path. SCORE predicates, ORDER BY SCORE and TOP
 * are applied to the returned predictions, so the result matches the
 * in-engine execution of the same query (float threshold semantics).
 * Aggregates and ORDER BY a plain column would change what the
 * statement returns, so they are refused rather than ignored.
 */
QueryResult
SpServeQuery(QueryEngine& engine, ScoringService& service,
             const ExecStatement& stmt)
{
    const std::string sql = GetStringParam(stmt, "query");
    std::shared_ptr<const plan::PhysicalPlan> plan =
        engine.planner().PlanQuery(sql);
    if (plan->scores().size() != 1) {
        throw InvalidArgument(
            "sp_serve_query: @query must contain exactly one "
            "SCORE(...) expression");
    }
    const SelectStatement& query = plan->logical().stmt;
    if (!query.aggregates.empty()) {
        throw InvalidArgument(
            "sp_serve_query: aggregates are not supported");
    }
    if (query.order_by.has_value() &&
        !plan->logical().order_score.has_value()) {
        throw InvalidArgument(
            "sp_serve_query: ORDER BY must name the SCORE expression");
    }
    plan::ScoringBatch batch = plan->CollectScoringBatch(engine.db());

    ScoreRequest request;
    request.model_id = batch.model;
    request.num_rows = batch.features.rows();
    request.rows = batch.features.View();
    request.deadline = DeadlineParam(stmt, "sp_serve_query");
    if (request.num_rows == 0) {
        QueryResult empty;
        empty.columns = {"row_id", "prediction"};
        empty.message = "0 row(s) survived the scan, nothing served";
        return empty;
    }

    ScoreReply reply = service.ScoreSync(std::move(request));
    if (reply.status == RequestStatus::kRejected) {
        throw InvalidArgument("sp_serve_query: rejected: " + reply.error);
    }
    if (reply.predictions.size() != batch.row_ids.size()) {
        throw Error("sp_serve_query: prediction count mismatch");
    }

    // SCORE predicates the planner could not push into the scan prefix
    // apply to the served predictions (same float semantics as the
    // in-engine executor).
    std::vector<std::size_t> keep(batch.row_ids.size());
    std::iota(keep.begin(), keep.end(), std::size_t{0});
    for (const plan::ScorePredicate& pred : plan->score_predicates()) {
        std::vector<std::size_t> next;
        next.reserve(keep.size());
        for (std::size_t i : keep) {
            if (plan::ScorePredHolds(pred.op, reply.predictions[i],
                                     pred.literal)) {
                next.push_back(i);
            }
        }
        keep.swap(next);
    }
    if (query.order_by.has_value()) {
        const bool desc = query.order_by->descending;
        std::stable_sort(keep.begin(), keep.end(),
                         [&](std::size_t a, std::size_t b) {
                             return desc ? reply.predictions[a] >
                                               reply.predictions[b]
                                         : reply.predictions[a] <
                                               reply.predictions[b];
                         });
    }
    if (query.top.has_value() && keep.size() > *query.top) {
        keep.resize(*query.top);
    }

    QueryResult result;
    result.columns = {"row_id", "prediction"};
    result.rows.reserve(keep.size());
    for (std::size_t i : keep) {
        result.rows.push_back(
            {static_cast<std::int64_t>(batch.row_ids[i]),
             static_cast<double>(reply.predictions[i])});
    }
    result.modeled_time = reply.timing.latency;
    result.message = StrFormat(
        "%zu row(s) served on %s in %s (modeled), batch of %zu "
        "request(s)%s",
        result.rows.size(),
        reply.status == RequestStatus::kCompleted
            ? BackendName(reply.backend)
            : "-",
        reply.timing.latency.ToString().c_str(), reply.batch_requests,
        reply.degraded ? ", degraded to CPU" : "");
    return result;
}

QueryResult
SpServeStats(ScoringService& service, const ExecStatement& stmt)
{
    const bool reset = GetIntParam(stmt, "reset").value_or(0) != 0;
    ServiceSnapshot snap = service.Stats();
    QueryResult result;
    result.columns = {"metric", "value"};
    auto add = [&result](const std::string& metric, double value) {
        result.rows.push_back({metric, value});
    };
    add("submitted", static_cast<double>(snap.submitted));
    add("admitted", static_cast<double>(snap.admitted));
    add("completed", static_cast<double>(snap.completed));
    add("rejected", static_cast<double>(snap.rejected));
    add("expired", static_cast<double>(snap.expired));
    add("failed", static_cast<double>(snap.failed));
    add("degraded_completed",
        static_cast<double>(snap.degraded_completed));
    add("batches", static_cast<double>(snap.batches));
    add("mean_batch_requests", snap.batch_requests.mean);
    add("latency_p50_ms", snap.latency.p50 * 1e3);
    add("latency_p95_ms", snap.latency.p95 * 1e3);
    add("latency_p99_ms", snap.latency.p99 * 1e3);
    add("throughput_rps", snap.ThroughputRps());
    add("fault_attempts", static_cast<double>(snap.fault_attempts));
    add("retries", static_cast<double>(snap.retries));
    add("fallback_batches", static_cast<double>(snap.fallback_batches));
    add("breaker_opens", static_cast<double>(snap.breaker_opens));
    add("fault_wasted_ms", snap.fault_wasted.millis());
    add("retry_backoff_ms", snap.retry_backoff.millis());
    static const char* kDeviceNames[3] = {"cpu", "gpu", "fpga"};
    for (int d = 0; d < 3; ++d) {
        result.rows.push_back(
            {StrFormat("breaker_%s", kDeviceNames[d]),
             std::string(BreakerStateName(snap.device[d].breaker))});
    }
    if (reset) {
        // Snapshot first, then reset: the caller gets the phase that
        // just ended and the next sp_serve_stats starts from zero.
        service.ResetStats();
    }
    result.message = StrFormat("%zu metrics%s", result.rows.size(),
                               reset ? ", counters reset" : "");
    return result;
}

}  // namespace

void
RegisterServeProcedures(QueryEngine& engine, ScoringService& service)
{
    engine.RegisterProcedure(
        "sp_score_service",
        [&service](QueryEngine&, const ExecStatement& stmt) {
            return SpScoreService(service, stmt);
        });
    engine.RegisterProcedure(
        "sp_serve_stats",
        [&service](QueryEngine&, const ExecStatement& stmt) {
            return SpServeStats(service, stmt);
        });
    engine.RegisterProcedure(
        "sp_serve_query",
        [&service](QueryEngine& eng, const ExecStatement& stmt) {
            return SpServeQuery(eng, service, stmt);
        });
}

}  // namespace dbscore::serve
