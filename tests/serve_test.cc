/**
 * @file
 * Tests for dbscore::serve — the concurrent scoring service.
 *
 * The headline test replays one generated trace through two service
 * instances from 8 real client threads: micro-batching off (window 0)
 * and on. Coalescing must win on both modeled p95 latency and modeled
 * throughput, because the per-dispatch overheads the paper measures
 * (process invocation, DBMS<->process transfer, engine setup) are paid
 * once per batch instead of once per request.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/common/stats.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/batch_coalescer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/serve/service_proc.h"
#include "dbscore/serve/service_stats.h"

namespace dbscore::serve {
namespace {

/** One trained HIGGS model shared by every test in this file. */
struct ServeFixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
    HardwareProfile profile = HardwareProfile::Paper();

    ServeFixture() : data(MakeHiggs(3000, 90))
    {
        ForestTrainerConfig config;
        config.num_trees = 64;
        config.max_depth = 10;
        config.seed = 90;
        RandomForest forest = TrainForest(data, config);
        ensemble = TreeEnsemble::FromForest(forest);
        stats = ComputeModelStats(forest, &data);
    }

    std::unique_ptr<ScoringService>
    Service(ServiceConfig config) const
    {
        auto service = std::make_unique<ScoringService>(profile, config);
        service->RegisterModel("m", ensemble, stats);
        return service;
    }
};

const ServeFixture&
Fixture()
{
    static ServeFixture fixture;
    return fixture;
}

PendingRequest
MakePending(double arrival_ms, std::size_t rows)
{
    PendingRequest r;
    r.request.model_id = "m";
    r.request.num_rows = rows;
    r.request.arrival = SimTime::Millis(arrival_ms);
    r.handle = std::make_shared<PendingScore>();
    return r;
}

// ----------------------------------------------------- service stats --

TEST(DistStatsTest, QuantilesStayWithinTheStatedBound)
{
    // 10^5 seeded latencies spread log-uniformly over 0.1-40 ms.
    Rng rng(0xd157);
    DistStats dist;
    RunningStats moments;
    std::vector<double> sorted;
    for (int i = 0; i < 100000; ++i) {
        const double x = 1e-4 * std::exp(6.0 * rng.NextDouble());
        dist.Add(x);
        moments.Add(x);
        sorted.push_back(x);
    }
    std::sort(sorted.begin(), sorted.end());
    const DistSummary s = dist.Summary();

    // Count, mean and max are exact.
    EXPECT_EQ(s.count, sorted.size());
    EXPECT_EQ(s.mean, moments.mean());
    EXPECT_EQ(s.max, sorted.back());

    // Each estimate lies within sqrt(ratio) of the order statistics
    // bracketing the exact quantile (the header's bound), which here
    // puts it within about 0.5% of the exact quantile itself.
    const double factor = std::sqrt(DistStats::kBucketRatio) * (1.0 + 1e-12);
    const std::pair<double, double> checks[] = {
        {0.50, s.p50}, {0.95, s.p95}, {0.99, s.p99}};
    for (const auto& [q, estimate] : checks) {
        const double pos = q * static_cast<double>(sorted.size() - 1);
        const double lo = sorted[static_cast<std::size_t>(std::floor(pos))];
        const double hi = sorted[static_cast<std::size_t>(std::ceil(pos))];
        EXPECT_GE(estimate, lo / factor) << "q " << q;
        EXPECT_LE(estimate, hi * factor) << "q " << q;
        const double frac = pos - std::floor(pos);
        const double exact = lo * (1.0 - frac) + hi * frac;
        EXPECT_NEAR(estimate, exact, exact * 0.0055) << "q " << q;
    }
}

// -------------------------------------------------- batch coalescer --

TEST(BatchCoalescerTest, GroupsWithinWindowAndClosesOnMiss)
{
    CoalescerConfig config;
    config.window = SimTime::Millis(5.0);
    BatchCoalescer coalescer(config);

    EXPECT_TRUE(coalescer.Add(MakePending(0.0, 10)).empty());
    EXPECT_TRUE(coalescer.Add(MakePending(2.0, 20)).empty());
    EXPECT_TRUE(coalescer.Add(MakePending(4.0, 30)).empty());
    EXPECT_EQ(coalescer.pending_requests(), 3u);

    // 20 ms misses the [0, 5] ms window: the open batch closes and the
    // newcomer starts a fresh one.
    auto closed = coalescer.Add(MakePending(20.0, 5));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].members.size(), 3u);
    EXPECT_EQ(closed[0].total_rows, 60u);
    EXPECT_DOUBLE_EQ(closed[0].open_arrival.millis(), 0.0);
    EXPECT_DOUBLE_EQ(closed[0].ready.millis(), 4.0);
    EXPECT_EQ(coalescer.pending_requests(), 1u);

    auto flushed = coalescer.Flush();
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].members.size(), 1u);
    EXPECT_EQ(coalescer.pending_requests(), 0u);
    EXPECT_EQ(coalescer.open_batches(), 0u);
}

TEST(BatchCoalescerTest, RequestCapClosesEagerly)
{
    CoalescerConfig config;
    config.window = SimTime::Millis(100.0);
    config.max_batch_requests = 2;
    BatchCoalescer coalescer(config);

    EXPECT_TRUE(coalescer.Add(MakePending(0.0, 1)).empty());
    auto closed = coalescer.Add(MakePending(1.0, 1));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].members.size(), 2u);
    EXPECT_EQ(coalescer.pending_requests(), 0u);
}

TEST(BatchCoalescerTest, RowCapAndZeroWindow)
{
    CoalescerConfig config;
    config.window = SimTime::Millis(100.0);
    config.max_batch_rows = 50;
    BatchCoalescer row_capped(config);
    EXPECT_TRUE(row_capped.Add(MakePending(0.0, 30)).empty());
    // 30 + 40 would overflow the 50-row cap: old batch closes, the
    // newcomer (40 rows < 50) stays open.
    auto closed = row_capped.Add(MakePending(1.0, 40));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].total_rows, 30u);
    EXPECT_EQ(row_capped.pending_requests(), 1u);

    CoalescerConfig solo;
    solo.window = SimTime();
    BatchCoalescer uncoalesced(solo);
    auto each = uncoalesced.Add(MakePending(0.0, 10));
    ASSERT_EQ(each.size(), 1u);
    EXPECT_EQ(each[0].members.size(), 1u);
    EXPECT_EQ(uncoalesced.pending_requests(), 0u);
}

TEST(BatchCoalescerTest, RejectsBadConfig)
{
    CoalescerConfig config;
    config.max_batch_requests = 0;
    EXPECT_THROW(BatchCoalescer{config}, InvalidArgument);
    config = CoalescerConfig{};
    config.max_batch_rows = 0;
    EXPECT_THROW(BatchCoalescer{config}, InvalidArgument);
    config = CoalescerConfig{};
    config.window = SimTime::Millis(-1.0);
    EXPECT_THROW(BatchCoalescer{config}, InvalidArgument);
}

// --------------------------------------------------- admission queue --

TEST(ScoringServiceTest, BackpressureRejectsDeterministically)
{
    ServiceConfig config;
    config.admission_capacity = 4;
    auto service = Fixture().Service(config);

    // Not started: nothing drains the queue, so exactly the first 4 of
    // 10 submissions are admitted and the other 6 bounce.
    std::vector<PendingScorePtr> handles;
    for (int i = 0; i < 10; ++i) {
        ScoreRequest r;
        r.model_id = "m";
        r.num_rows = 100;
        r.arrival = SimTime::Millis(static_cast<double>(i));
        handles.push_back(service->Submit(std::move(r)));
    }
    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.submitted, 10u);
    EXPECT_EQ(snap.admitted, 4u);
    EXPECT_EQ(snap.rejected, 6u);
    for (int i = 4; i < 10; ++i) {
        ASSERT_TRUE(handles[i]->ready());
        EXPECT_EQ(handles[i]->Wait().status, RequestStatus::kRejected);
        EXPECT_EQ(handles[i]->Wait().error, "admission queue full");
    }

    // Stopping a never-started service must settle the queued four.
    service->Stop();
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(handles[i]->ready());
        EXPECT_EQ(handles[i]->Wait().status, RequestStatus::kRejected);
    }
    EXPECT_EQ(service->Stats().rejected, 10u);
}

TEST(ScoringServiceTest, RejectsUnknownModelAndZeroRows)
{
    auto service = Fixture().Service(ServiceConfig{});
    ScoreRequest bad;
    bad.model_id = "nope";
    bad.num_rows = 10;
    EXPECT_EQ(service->Submit(bad)->Wait().status,
              RequestStatus::kRejected);
    ScoreRequest zero;
    zero.model_id = "m";
    zero.num_rows = 0;
    EXPECT_EQ(service->Submit(zero)->Wait().status,
              RequestStatus::kRejected);
    EXPECT_EQ(service->Stats().rejected, 2u);
}

TEST(ScoringServiceTest, LifecycleGuards)
{
    const ServeFixture& f = Fixture();
    auto service = f.Service(ServiceConfig{});
    EXPECT_THROW(
        service->RegisterModel("m", f.ensemble, f.stats),
        InvalidArgument);  // duplicate id
    service->Start();
    EXPECT_TRUE(service->running());
    service->Start();  // idempotent
    EXPECT_THROW(service->RegisterModel("m2", f.ensemble, f.stats),
                 InvalidArgument);
    EXPECT_FALSE(service->BackendsFor("m").empty());
    EXPECT_THROW(service->BackendsFor("ghost"), NotFound);
    service->Stop();
    service->Stop();  // idempotent
    EXPECT_FALSE(service->running());
    EXPECT_THROW(service->Start(), InvalidArgument);  // no restart
}

// ------------------------------------------------- deadlines / expiry --

TEST(ScoringServiceTest, DeadlineExpiryIsCounted)
{
    ServiceConfig config;
    config.coalescer.window = SimTime();  // no coalescing
    config.policy = WorkloadPolicy::kAlwaysCpu;
    auto service = Fixture().Service(config);
    service->Start();

    // A 1M-row request parks the CPU for a long modeled time...
    ScoreRequest big;
    big.model_id = "m";
    big.num_rows = 1000000;
    big.arrival = SimTime();
    auto big_handle = service->Submit(big);

    // ...so a same-arrival request with a 1 ms deadline must expire.
    ScoreRequest impatient;
    impatient.model_id = "m";
    impatient.num_rows = 10;
    impatient.arrival = SimTime();
    impatient.deadline = SimTime::Millis(1.0);
    auto impatient_handle = service->Submit(impatient);

    service->Drain();
    EXPECT_EQ(big_handle->Wait().status, RequestStatus::kCompleted);
    const ScoreReply& expired = impatient_handle->Wait();
    EXPECT_EQ(expired.status, RequestStatus::kExpired);
    EXPECT_GT(expired.timing.latency.millis(), 1.0);

    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.completed, 1u);
    EXPECT_EQ(snap.expired, 1u);
    service->Stop();
}

// ----------------------------------------- coalescing under high load --

ServiceSnapshot
ReplayTrace(const std::vector<ScoreRequest>& requests, SimTime window)
{
    ServiceConfig config;
    config.coalescer.window = window;
    config.coalescer.max_batch_requests = 64;
    config.admission_capacity = 4096;
    auto service = Fixture().Service(config);
    service->Start();

    // 8 real client threads submit interleaved slices of the trace.
    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&requests, &service, c] {
            for (std::size_t i = c; i < requests.size(); i += kClients) {
                service->Submit(requests[i]);
            }
        });
    }
    for (std::thread& t : clients) {
        t.join();
    }
    service->Drain();
    ServiceSnapshot snap = service->Stats();
    service->Stop();
    return snap;
}

TEST(ScoringServiceTest, CoalescingBeatsUncoalescedAtHighLoad)
{
    // Many small same-model requests arriving fast: the regime where
    // the paper's per-dispatch overheads dominate.
    WorkloadConfig wc;
    wc.num_queries = 320;
    wc.mean_interarrival = SimTime::Millis(1.0);
    wc.min_rows = 32;
    wc.max_rows = 512;
    wc.seed = 7;
    auto requests = RequestsFromWorkload(GenerateWorkload(wc), "m");

    ServiceSnapshot uncoalesced = ReplayTrace(requests, SimTime());
    ServiceSnapshot coalesced =
        ReplayTrace(requests, SimTime::Millis(10.0));

    ASSERT_EQ(uncoalesced.completed, 320u);
    ASSERT_EQ(coalesced.completed, 320u);
    EXPECT_EQ(uncoalesced.rejected, 0u);
    EXPECT_EQ(coalesced.rejected, 0u);

    // Micro-batching actually batched...
    EXPECT_DOUBLE_EQ(uncoalesced.batch_requests.mean, 1.0);
    EXPECT_GT(coalesced.batch_requests.mean, 2.0);
    EXPECT_LT(coalesced.batches, uncoalesced.batches);

    // ...and wins on both axes of the paper's Figure 9/10 tradeoff.
    EXPECT_LT(coalesced.latency.p95, uncoalesced.latency.p95);
    EXPECT_LT(coalesced.latency.p50, uncoalesced.latency.p50);
    EXPECT_GT(coalesced.ThroughputRps(), uncoalesced.ThroughputRps());

    // Per-request accounting stayed coherent: every completed request
    // carries stage shares that sum into the fleet totals.
    EXPECT_GT(coalesced.stage_totals.invocation.seconds(), 0.0);
    EXPECT_GT(coalesced.stage_totals.scoring.seconds(), 0.0);
    EXPECT_LT(coalesced.stage_totals.invocation.seconds(),
              uncoalesced.stage_totals.invocation.seconds());
}

TEST(ScoringServiceTest, SnapshotWhileRunningIsConsistent)
{
    WorkloadConfig wc;
    wc.num_queries = 64;
    wc.mean_interarrival = SimTime::Millis(1.0);
    wc.min_rows = 16;
    wc.max_rows = 128;
    auto requests = RequestsFromWorkload(GenerateWorkload(wc), "m");

    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(5.0);
    auto service = Fixture().Service(config);
    service->Start();
    std::thread client([&] {
        for (const ScoreRequest& r : requests) {
            service->Submit(r);
        }
    });
    // Snapshots taken mid-flight must always satisfy the invariants.
    for (int i = 0; i < 50; ++i) {
        ServiceSnapshot snap = service->Stats();
        EXPECT_LE(snap.admitted + snap.rejected, snap.submitted);
        EXPECT_LE(snap.completed + snap.expired, snap.admitted);
    }
    client.join();
    service->Drain();
    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.submitted, 64u);
    EXPECT_EQ(snap.completed + snap.expired + snap.rejected, 64u);
    EXPECT_FALSE(snap.ToString().empty());
    service->Stop();
}

/**
 * One stamped 400-request trace queued before Start(), so batch
 * composition cannot depend on thread timing; with @p payloads every
 * request carries rows to score.
 */
std::vector<ScoreReply>
ReplayQueuedTrace(const std::vector<ScoreRequest>& trace, bool payloads)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.admission_capacity = trace.size();
    auto service = f.Service(config);
    std::vector<PendingScorePtr> handles;
    for (ScoreRequest request : trace) {
        if (payloads) {
            request.rows = f.data.View(0, request.num_rows);
        }
        handles.push_back(service->Submit(std::move(request)));
    }
    service->Start();
    service->Drain();
    std::vector<ScoreReply> replies;
    for (const PendingScorePtr& handle : handles) {
        replies.push_back(handle->Wait());
    }
    service->Stop();
    return replies;
}

TEST(ScoringServiceTest, QueuedTraceModeledOutcomesRepeat)
{
    // The dispatcher commits every modeled step of a batch — breaker
    // admission, placement, the lane reservation, the attempt loop —
    // in dispatch order, so the same queued trace replies identically
    // run after run, and whether or not the workers score payloads.
    WorkloadConfig wc;
    wc.num_queries = 400;
    wc.mean_interarrival = SimTime::Millis(0.25);
    wc.min_rows = 16;
    wc.max_rows = 512;
    wc.seed = 19;
    const auto trace = RequestsFromWorkload(GenerateWorkload(wc), "m");

    const std::vector<ScoreReply> runs[] = {
        ReplayQueuedTrace(trace, false),
        ReplayQueuedTrace(trace, false),
        ReplayQueuedTrace(trace, true),
    };
    std::size_t devices_used[3] = {};
    std::size_t largest_batch = 0;
    for (const std::vector<ScoreReply>& run : runs) {
        ASSERT_EQ(run.size(), trace.size());
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const ScoreReply& x = runs[0][i];
        ASSERT_EQ(x.status, RequestStatus::kCompleted) << "request " << i;
        ++devices_used[static_cast<int>(x.device)];
        largest_batch = std::max(largest_batch, x.batch_requests);
        for (const std::vector<ScoreReply>& run : runs) {
            const ScoreReply& y = run[i];
            EXPECT_EQ(x.status, y.status) << "request " << i;
            EXPECT_EQ(x.backend, y.backend) << "request " << i;
            EXPECT_EQ(x.finish, y.finish) << "request " << i;
            EXPECT_EQ(x.batch_requests, y.batch_requests) << "request " << i;
            EXPECT_EQ(x.batch_rows, y.batch_rows) << "request " << i;
            EXPECT_EQ(x.attempts, y.attempts) << "request " << i;
            EXPECT_EQ(x.degraded, y.degraded) << "request " << i;
            const RequestTiming& a = x.timing;
            const RequestTiming& b = y.timing;
            EXPECT_EQ(a.coalesce_delay, b.coalesce_delay) << "request " << i;
            EXPECT_EQ(a.queue_wait, b.queue_wait) << "request " << i;
            EXPECT_EQ(a.invocation_share, b.invocation_share);
            EXPECT_EQ(a.model_preproc_share, b.model_preproc_share);
            EXPECT_EQ(a.transfer_share, b.transfer_share);
            EXPECT_EQ(a.data_preproc_share, b.data_preproc_share);
            EXPECT_EQ(a.scoring_share.Total(), b.scoring_share.Total());
            EXPECT_EQ(a.latency, b.latency) << "request " << i;
        }
        EXPECT_TRUE(x.predictions.empty());
        EXPECT_EQ(runs[2][i].predictions.size(), trace[i].num_rows);
    }
    // The trace coalesces and spreads across devices, so placement
    // reads lane horizons that earlier batches committed.
    EXPECT_GT(largest_batch, 1u);
    EXPECT_GE(std::count_if(std::begin(devices_used), std::end(devices_used),
                            [](std::size_t n) { return n > 0; }),
              2);
}

// ------------------------------------------------ functional scoring --

TEST(ScoringServiceTest, PayloadRequestsScoreThroughKernelCache)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    auto service = f.Service(config);
    service->Start();

    const std::size_t cols = f.data.num_features();
    const std::size_t n = 100;
    // Zero-copy payload: a view into the fixture dataset's storage.
    RowView payload = f.data.View(0, n);

    ScoreRequest r;
    r.model_id = "m";
    r.num_rows = n;
    r.rows = payload;
    ScoreReply reply = service->ScoreSync(r);
    ASSERT_EQ(reply.status, RequestStatus::kCompleted);
    ASSERT_EQ(reply.predictions.size(), n);

    // Real predictions, bit-identical to the reference scalar path of
    // the registered model.
    RandomForest reference = f.ensemble.ToForest();
    EXPECT_EQ(reply.predictions,
              reference.PredictBatchScalar(payload.data(), n, cols));

    // Payload-free requests stay modeled-only: no predictions.
    ScoreRequest modeled;
    modeled.model_id = "m";
    modeled.num_rows = 10;
    ScoreReply modeled_reply = service->ScoreSync(modeled);
    EXPECT_EQ(modeled_reply.status, RequestStatus::kCompleted);
    EXPECT_TRUE(modeled_reply.predictions.empty());
    service->Stop();
}

TEST(ScoringServiceTest, RejectsPayloadArityMismatch)
{
    auto service = Fixture().Service(ServiceConfig{});
    service->Start();
    ScoreRequest r;
    r.model_id = "m";
    r.num_rows = 10;
    // 3 floats per row, but the registered model wants 28.
    RowBlock bad(std::vector<float>(10 * 3, 0.0f), 3);
    r.rows = bad.View();
    ScoreReply reply = service->ScoreSync(r);
    EXPECT_EQ(reply.status, RequestStatus::kRejected);
    EXPECT_EQ(reply.error, "row payload arity mismatch");
    EXPECT_EQ(service->Stats().rejected, 1u);
    service->Stop();
}

TEST(ScoringServiceTest, StopSettlesEveryCoalescedRequest)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    // A wide window keeps batches open so Stop() races the coalescer
    // with requests still pending inside it: the shutdown-drain
    // contract says every one of them gets a terminal reply — flushed
    // and dispatched by the exit path, or failed loudly — and none is
    // silently dropped (a dropped handle would hang Wait() forever).
    config.coalescer.window = SimTime::Millis(500.0);
    config.coalescer.max_batch_requests = 64;
    auto service = f.Service(config);
    service->Start();

    std::vector<PendingScorePtr> handles;
    for (int i = 0; i < 24; ++i) {
        ScoreRequest r;
        r.model_id = "m";
        r.num_rows = 32;
        r.arrival = SimTime::Millis(static_cast<double>(i));
        handles.push_back(service->Submit(std::move(r)));
    }
    service->Stop();  // no Drain(): the stop path must settle them

    std::size_t terminal = 0;
    for (const PendingScorePtr& handle : handles) {
        const ScoreReply& reply = handle->Wait();
        EXPECT_NE(reply.status, RequestStatus::kRejected);
        ++terminal;
    }
    EXPECT_EQ(terminal, handles.size());
    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.completed + snap.expired + snap.failed,
              handles.size());
}

TEST(ScoringServiceTest, CpuDispatchesScoreOnSeveralScorers)
{
    // Committed dispatches queue for one pool of scorers, whatever
    // device they were placed on, so a CPU-only service still spreads
    // its kernel work over the host's cores.
    if (std::thread::hardware_concurrency() < 2) {
        GTEST_SKIP() << "one hardware thread: one scorer";
    }
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.policy = WorkloadPolicy::kAlwaysCpu;
    config.coalescer.window = SimTime();
    auto service = f.Service(config);
    constexpr std::size_t kRequests = 96;
    constexpr std::size_t kRows = 512;
    std::vector<RowView> payloads;
    std::vector<PendingScorePtr> handles;
    for (std::size_t i = 0; i < kRequests; ++i) {
        const std::size_t offset = i * 23 % (f.data.num_rows() - kRows);
        payloads.push_back(f.data.View(offset, offset + kRows));
        ScoreRequest r;
        r.model_id = "m";
        r.num_rows = kRows;
        r.rows = payloads.back();
        r.arrival = SimTime::Millis(0.1 * static_cast<double>(i));
        handles.push_back(service->Submit(std::move(r)));
    }
    service->Start();
    service->Stop();  // joins the scorers: every span is emitted

    const RandomForest reference = f.ensemble.ToForest();
    for (std::size_t i = 0; i < kRequests; ++i) {
        const ScoreReply& reply = handles[i]->Wait();
        ASSERT_EQ(reply.status, RequestStatus::kCompleted) << "request " << i;
        EXPECT_EQ(reply.device, DeviceClass::kCpu);
        EXPECT_EQ(reply.predictions, reference.PredictBatch(payloads[i]))
            << "request " << i;
    }
    std::set<std::uint32_t> scorers;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(service->trace_domain())) {
        if (span.stage == trace::StageKind::kBatch) {
            scorers.insert(span.thread_id);
        }
    }
    EXPECT_GE(scorers.size(), 2u);
}

TEST(ScoringServiceTest, SyncCallersNextRequestFollowsItsLastReply)
{
    // An unstamped request arrives at the latest finish answered so
    // far, and a finish is published before its caller wakes, so each
    // request of a synchronous caller arrives at or after the finish
    // of its previous reply. Threads spinning on every core widen the
    // window between the wake-up and a later publish.
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime();
    auto service = f.Service(config);
    service->Start();
    std::atomic<bool> spin{true};
    std::vector<std::thread> spinners;
    for (unsigned i = 0; i < std::thread::hardware_concurrency(); ++i) {
        spinners.emplace_back([&] {
            while (spin.load(std::memory_order_relaxed)) {
            }
        });
    }
    constexpr int kCalls = 20000;
    SimTime previous;
    int early = 0;
    int completed = 0;
    for (int i = 0; i < kCalls; ++i) {
        ScoreRequest r;
        r.model_id = "m";
        r.num_rows = 16;
        const ScoreReply reply = service->ScoreSync(std::move(r));
        completed += reply.status == RequestStatus::kCompleted ? 1 : 0;
        early += reply.finish - reply.timing.latency < previous ? 1 : 0;
        previous = reply.finish;
    }
    spin.store(false);
    for (std::thread& spinner : spinners) {
        spinner.join();
    }
    service->Stop();
    EXPECT_EQ(completed, kCalls);
    EXPECT_EQ(early, 0) << "of " << kCalls << " calls arrived before the "
                        << "previous reply's finish";
}

// ------------------------------------------------- DBMS entry points --

TEST(ServeProcedureTest, SpScoreServiceAndStats)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    auto service = f.Service(config);
    service->Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterServeProcedures(sql, *service);

    QueryResult r = sql.Execute(
        "EXEC sp_score_service @model = 'm', @rows = 5000");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "completed");
    EXPECT_GT(r.modeled_time.seconds(), 0.0);

    QueryResult stats = sql.Execute("EXEC sp_serve_stats");
    EXPECT_GE(stats.rows.size(), 10u);

    EXPECT_THROW(sql.Execute("EXEC sp_score_service @model = 'm'"),
                 InvalidArgument);
    EXPECT_THROW(
        sql.Execute(
            "EXEC sp_score_service @model = 'ghost', @rows = 10"),
        InvalidArgument);
    service->Stop();
}

TEST(ServeProcedureTest, SpServeStatsResetStartsFreshPhase)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    auto service = f.Service(config);
    service->Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterServeProcedures(sql, *service);

    sql.Execute("EXEC sp_score_service @model = 'm', @rows = 1000");
    auto metric = [](const QueryResult& r,
                     const std::string& name) -> double {
        for (const auto& row : r.rows) {
            if (std::get<std::string>(row[0]) == name) {
                return std::get<double>(row[1]);
            }
        }
        ADD_FAILURE() << "metric not found: " << name;
        return -1.0;
    };

    // The @reset call itself reports the phase that just ended...
    QueryResult phase1 =
        sql.Execute("EXEC sp_serve_stats @reset = 1");
    EXPECT_EQ(metric(phase1, "completed"), 1.0);
    EXPECT_NE(phase1.message.find("counters reset"), std::string::npos);

    // ...the next snapshot starts from zero, including the
    // trace-derived stage totals (rebaselined, not re-accumulated).
    QueryResult phase2 = sql.Execute("EXEC sp_serve_stats");
    EXPECT_EQ(metric(phase2, "submitted"), 0.0);
    EXPECT_EQ(metric(phase2, "completed"), 0.0);
    EXPECT_TRUE(service->Stats().stage_totals.scoring.is_zero());

    // Work after the reset lands in the new phase only.
    sql.Execute("EXEC sp_score_service @model = 'm', @rows = 1000");
    QueryResult phase3 = sql.Execute("EXEC sp_serve_stats");
    EXPECT_EQ(metric(phase3, "completed"), 1.0);
    EXPECT_GT(service->Stats().stage_totals.scoring.seconds(), 0.0);
    service->Stop();
}

}  // namespace
}  // namespace dbscore::serve
