/**
 * @file
 * Chaos bench: goodput and tail latency of the scoring service under
 * injected fault campaigns at 0% / 1% / 10% per-operation fault rates.
 *
 * Each rate gets a fresh service and a fresh deterministic FaultPlan
 * (every injection site armed at the same transient probability, fixed
 * seed), replays the same deadline-carrying request trace, and reports
 * modeled goodput, latency percentiles, and the full resilience
 * counter set. The run *asserts* the fault-model contract:
 *
 *   - faults are never misreported as rejections (kRejected stays 0);
 *   - every request settles (completed + expired + failed = admitted);
 *   - degradation is graceful: at a 10% fault rate the service still
 *     completes at least 90% of what it completes fault-free;
 *   - the counters agree with the trace subsystem: fault attempts,
 *     retries, and fallbacks equal their kFault / kRetryBackoff /
 *     kFallback span counts in the service's trace domain.
 *
 * Latencies inside each run are modeled SimTime (machine-independent);
 * p50/p99 are exact, computed from the completed replies. The wall_ms
 * field is the real wall-clock cost of driving the run and varies by
 * machine. Emits BENCH_faults.json.
 *
 * Flags:
 *   --smoke     200 requests instead of 1000 for CI smoke runs
 *   --out=PATH  JSON output path (default BENCH_faults.json)
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbscore/common/stats.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/trace/trace.h"

namespace dbscore::bench {
namespace {

struct RateResult {
    double fault_pct = 0.0;
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t degraded_completed = 0;
    std::size_t failed = 0;
    std::size_t expired = 0;
    std::size_t rejected = 0;
    std::size_t fault_attempts = 0;
    std::size_t retries = 0;
    std::size_t fallback_batches = 0;
    std::size_t breaker_opens = 0;
    double fault_wasted_ms = 0.0;
    double retry_backoff_ms = 0.0;
    double goodput_rps = 0.0;
    double latency_p50_ms = 0.0;
    double latency_p99_ms = 0.0;
    double makespan_ms = 0.0;
    double wall_ms = 0.0;
    std::size_t trace_fault_spans = 0;
    std::size_t trace_retry_spans = 0;
    std::size_t trace_fallback_spans = 0;

    bool
    TraceConsistent() const
    {
        return trace_fault_spans == fault_attempts &&
               trace_retry_spans == retries &&
               trace_fallback_spans == fallback_batches;
    }
};

struct Fixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
    HardwareProfile profile = HardwareProfile::Paper();

    Fixture() : data(MakeHiggs(2000, 90))
    {
        ForestTrainerConfig config;
        config.num_trees = 32;
        config.max_depth = 8;
        config.seed = 90;
        RandomForest forest = TrainForest(data, config);
        ensemble = TreeEnsemble::FromForest(forest);
        stats = ComputeModelStats(forest, &data);
    }
};

std::size_t
CountSpans(std::uint32_t domain, trace::StageKind stage)
{
    std::size_t n = 0;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(domain)) {
        if (span.stage == stage) {
            ++n;
        }
    }
    return n;
}

RateResult
RunRate(const Fixture& f, double fault_pct, std::size_t num_requests)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    config.admission_capacity = 8192;
    serve::ScoringService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.Start();

    if (fault_pct > 0.0) {
        fault::FaultPlan plan;
        plan.seed = 0xfa017;
        for (int s = 0; s < fault::kNumFaultSites; ++s) {
            plan.sites[s].probability = fault_pct / 100.0;
        }
        fault::FaultInjector::Get().Install(plan);
    }

    const auto wall_start = std::chrono::steady_clock::now();
    // One submitter, modeled arrivals in order: device occupancy is
    // monotone in modeled time, so out-of-order submission would let a
    // late arrival drag free_at past an earlier request's deadline.
    // (Multi-threaded submission under chaos is exercised by
    // ServeFaultTest.ConcurrentChaosSettlesEveryRequest.) 10 rps
    // offered load is about a third of the fault-free capacity, so
    // fault-free runs complete everything and expiry under a campaign
    // is attributable to faults, not saturation.
    std::vector<serve::PendingScorePtr> replies;
    replies.reserve(num_requests);
    for (std::size_t i = 0; i < num_requests; ++i) {
        serve::ScoreRequest r;
        r.model_id = "m";
        r.num_rows = 64 + 32 * (i % 8);
        r.arrival = SimTime::Millis(static_cast<double>(i) * 100.0);
        r.deadline = SimTime::Millis(2000.0);
        replies.push_back(service.Submit(std::move(r)));
    }
    service.Drain();
    fault::FaultInjector::Get().Clear();
    QuantileSketch latency;
    for (const serve::PendingScorePtr& pending : replies) {
        const serve::ScoreReply& reply = pending->Wait();
        if (reply.status == serve::RequestStatus::kCompleted) {
            latency.Add(reply.timing.latency.seconds());
        }
    }

    serve::ServiceSnapshot snap = service.Stats();
    RateResult r;
    r.fault_pct = fault_pct;
    r.submitted = snap.submitted;
    r.completed = snap.completed;
    r.degraded_completed = snap.degraded_completed;
    r.failed = snap.failed;
    r.expired = snap.expired;
    r.rejected = snap.rejected;
    r.fault_attempts = snap.fault_attempts;
    r.retries = snap.retries;
    r.fallback_batches = snap.fallback_batches;
    r.breaker_opens = snap.breaker_opens;
    r.fault_wasted_ms = snap.fault_wasted.millis();
    r.retry_backoff_ms = snap.retry_backoff.millis();
    r.goodput_rps = snap.ThroughputRps();
    if (latency.count() > 0) {
        r.latency_p50_ms = latency.Quantile(0.50) * 1e3;
        r.latency_p99_ms = latency.Quantile(0.99) * 1e3;
    }
    r.makespan_ms = snap.Makespan().millis();
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();
    r.trace_fault_spans =
        CountSpans(service.trace_domain(), trace::StageKind::kFault);
    r.trace_retry_spans = CountSpans(service.trace_domain(),
                                     trace::StageKind::kRetryBackoff);
    r.trace_fallback_spans =
        CountSpans(service.trace_domain(), trace::StageKind::kFallback);
    service.Stop();
    return r;
}

void
WriteJson(const std::string& path, const std::vector<RateResult>& results,
          bool smoke, bool degradation_pass)
{
    BenchJsonWriter doc("wallclock_faults", smoke);
    doc.header().Bool("degradation_pass", degradation_pass);
    for (const RateResult& r : results) {
        doc.AddResult()
            .Num("fault_pct", r.fault_pct)
            .Int("submitted", r.submitted)
            .Int("completed", r.completed)
            .Int("degraded_completed", r.degraded_completed)
            .Int("failed", r.failed)
            .Int("expired", r.expired)
            .Int("rejected", r.rejected)
            .Int("fault_attempts", r.fault_attempts)
            .Int("retries", r.retries)
            .Int("fallback_batches", r.fallback_batches)
            .Int("breaker_opens", r.breaker_opens)
            .Num("fault_wasted_ms", r.fault_wasted_ms)
            .Num("retry_backoff_ms", r.retry_backoff_ms)
            .Num("goodput_rps", r.goodput_rps)
            .Num("latency_p50_ms", r.latency_p50_ms)
            .Num("latency_p99_ms", r.latency_p99_ms)
            .Num("makespan_ms", r.makespan_ms)
            .Num("wall_ms", r.wall_ms)
            .Int("trace_fault_spans", r.trace_fault_spans)
            .Int("trace_retry_spans", r.trace_retry_spans)
            .Int("trace_fallback_spans", r.trace_fallback_spans)
            .Bool("trace_consistent", r.TraceConsistent());
    }
    doc.Write(path);
}

int
Run(bool smoke, const std::string& out_path)
{
    const std::size_t num_requests = smoke ? 200 : 1000;
    Fixture f;

    std::cout << "wallclock_faults (" << (smoke ? "smoke" : "full")
              << " mode, " << num_requests << " requests per rate)\n"
              << "fault%  completed degraded failed expired  faults "
              << "retries  goodput-rps  p99-ms  consistent\n";

    std::vector<RateResult> results;
    bool all_settled = true;
    bool all_consistent = true;
    for (double pct : {0.0, 1.0, 10.0}) {
        RateResult r = RunRate(f, pct, num_requests);
        all_settled =
            all_settled && r.rejected == 0 &&
            r.completed + r.expired + r.failed == r.submitted;
        all_consistent = all_consistent && r.TraceConsistent();
        std::printf("%5.1f%%  %9zu %8zu %6zu %7zu %7zu %7zu %12.1f "
                    "%7.2f  %10s\n",
                    r.fault_pct, r.completed, r.degraded_completed,
                    r.failed, r.expired, r.fault_attempts, r.retries,
                    r.goodput_rps, r.latency_p99_ms,
                    r.TraceConsistent() ? "yes" : "NO");
        results.push_back(r);
    }

    // Graceful degradation: a 10% fault rate may cost retries, wasted
    // work, and degraded answers — but not the ability to answer.
    const bool degradation_pass =
        results.back().completed * 10 >= results.front().completed * 9;

    WriteJson(out_path, results, smoke, degradation_pass);
    std::cout << "wrote " << out_path << "\n";
    if (!all_settled) {
        std::cerr << "FAIL: a fault leaked into a rejection or an "
                  << "unsettled request\n";
        return 1;
    }
    if (!all_consistent) {
        std::cerr << "FAIL: resilience counters disagree with the "
                  << "trace domain's span counts\n";
        return 1;
    }
    if (!degradation_pass) {
        std::cerr << "FAIL: completion collapsed under the 10% fault "
                  << "campaign (not graceful)\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace dbscore::bench

int
main(int argc, char** argv)
{
    const dbscore::bench::BenchArgs args = dbscore::bench::ParseBenchArgs(
        argc, argv, "wallclock_faults", "BENCH_faults.json");
    if (!args.ok) {
        return 2;
    }
    return dbscore::bench::Run(args.smoke, args.out_path);
}
