/**
 * @file
 * Tests for dbscore::fault and the serving layer's resilience to it:
 * seeded determinism of the injector itself, engine-level ScoreOutcome
 * surfacing, deadline-aware retry, the per-device circuit breaker
 * lifecycle, bit-identical CPU-fallback degradation, and a concurrent
 * chaos run whose counters must reconcile with the trace subsystem.
 *
 * Every test installs its plan through ScopedFaultPlan (or clears it
 * explicitly), and gtest_discover_tests runs each TEST in its own
 * process, so the process-wide injector never leaks between tests.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/engines/fpga/fpga_engine.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/trace/trace.h"

namespace dbscore {
namespace {

using fault::FaultInjector;
using fault::FaultPlan;
using fault::FaultSite;
using fault::ScopedFaultPlan;

// ------------------------------------------------------ the injector --

TEST(FaultInjectorTest, InactiveByDefaultAndAfterClear)
{
    FaultInjector& injector = FaultInjector::Get();
    injector.Clear();
    EXPECT_FALSE(injector.active());
    EXPECT_FALSE(injector.plan().has_value());
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kPcieDma));
    EXPECT_NO_THROW(fault::CheckSite(FaultSite::kPcieDma));

    // An all-disabled plan never arms the injector.
    injector.Install(FaultPlan{});
    EXPECT_FALSE(injector.active());
    injector.Clear();
}

TEST(FaultInjectorTest, SeededSequenceIsReproducible)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.At(FaultSite::kPcieDma).probability = 0.3;

    auto run = [&plan](std::uint64_t seed) {
        FaultPlan p = plan;
        p.seed = seed;
        ScopedFaultPlan guard(p);
        std::vector<bool> fired;
        fired.reserve(200);
        for (int i = 0; i < 200; ++i) {
            fired.push_back(
                FaultInjector::Get().ShouldFail(FaultSite::kPcieDma));
        }
        return fired;
    };

    std::vector<bool> first = run(1234);
    std::vector<bool> replay = run(1234);
    std::vector<bool> other_seed = run(99);
    EXPECT_EQ(first, replay);
    EXPECT_NE(first, other_seed);

    // Roughly Bernoulli(0.3): wide bounds, but stable under a fixed
    // seed so this can never flake.
    std::size_t fired =
        static_cast<std::size_t>(std::count(first.begin(), first.end(),
                                            true));
    EXPECT_GT(fired, 30u);
    EXPECT_LT(fired, 120u);
}

TEST(FaultInjectorTest, EveryNthFiresExactlyOnSchedule)
{
    FaultPlan plan;
    plan.At(FaultSite::kGpuKernelLaunch).every_nth = 3;
    ScopedFaultPlan guard(plan);
    FaultInjector& injector = FaultInjector::Get();

    for (int op = 1; op <= 9; ++op) {
        EXPECT_EQ(injector.ShouldFail(FaultSite::kGpuKernelLaunch),
                  op % 3 == 0)
            << "op " << op;
    }
    auto stats = injector.Stats();
    const auto& site = stats[static_cast<int>(FaultSite::kGpuKernelLaunch)];
    EXPECT_EQ(site.ops, 9u);
    EXPECT_EQ(site.injected, 3u);
    EXPECT_FALSE(site.stuck);
    EXPECT_EQ(injector.TotalInjected(), 3u);
}

TEST(FaultInjectorTest, StickyHoldsUntilRepair)
{
    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).every_nth = 5;
    plan.At(FaultSite::kFpgaSetup).sticky = true;
    ScopedFaultPlan guard(plan);
    FaultInjector& injector = FaultInjector::Get();

    for (int op = 1; op <= 4; ++op) {
        EXPECT_FALSE(injector.ShouldFail(FaultSite::kFpgaSetup));
    }
    // Op 5 fires and sticks: every later op fails too.
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kFpgaSetup));
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kFpgaSetup));
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kFpgaSetup));
    EXPECT_TRUE(
        injector.Stats()[static_cast<int>(FaultSite::kFpgaSetup)].stuck);

    // Repair models FPGA reconfiguration: the site recovers until the
    // schedule comes round again (ops 8, 9 pass; op 10 re-fires).
    injector.Repair(FaultSite::kFpgaSetup);
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kFpgaSetup));
    EXPECT_FALSE(injector.ShouldFail(FaultSite::kFpgaSetup));
    EXPECT_TRUE(injector.ShouldFail(FaultSite::kFpgaSetup));
}

TEST(FaultInjectorTest, CheckThrowsWithSiteMetadata)
{
    FaultPlan plan;
    plan.At(FaultSite::kExternalInvoke).probability = 1.0;
    ScopedFaultPlan guard(plan);

    try {
        FaultInjector::Get().Check(FaultSite::kExternalInvoke);
        FAIL() << "Check must throw under probability 1";
    } catch (const fault::FaultInjected& e) {
        EXPECT_EQ(e.site(), FaultSite::kExternalInvoke);
        EXPECT_FALSE(e.sticky());
        EXPECT_EQ(e.sequence(), 1u);
        EXPECT_NE(std::string(e.what()).find("external-invoke"),
                  std::string::npos);
    }
}

TEST(FaultInjectorTest, SiteNamesRoundTrip)
{
    for (int s = 0; s < fault::kNumFaultSites; ++s) {
        auto site = static_cast<FaultSite>(s);
        auto parsed = fault::ParseFaultSite(fault::FaultSiteName(site));
        ASSERT_TRUE(parsed.has_value()) << fault::FaultSiteName(site);
        EXPECT_EQ(*parsed, site);
    }
    EXPECT_FALSE(fault::ParseFaultSite("warp-core").has_value());
}

// ------------------------------------------- engine-level ScoreOutcome --

TEST(FaultEngineTest, TryScoreSurfacesFaultAsOutcome)
{
    Dataset data = MakeIris(200, 21);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 7;
    RandomForest forest = TrainForest(data, config);
    TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    ModelStats stats = ComputeModelStats(forest, &data);

    FpgaScoringEngine engine(FpgaSpec{}, PcieLinkSpec{},
                             FpgaOffloadParams{});
    engine.LoadModel(ensemble, stats);

    // No plan: TryScore succeeds and matches Score.
    ScoreOutcome ok = engine.TryScore(data.values().data(),
                                      data.num_rows(),
                                      data.num_features());
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.result.predictions, forest.PredictBatch(data));

    // Sticky DMA fault: the outcome reports the site instead of
    // throwing, and Score (the un-aware entry point) throws.
    FaultPlan plan;
    plan.At(FaultSite::kPcieDma).probability = 1.0;
    plan.At(FaultSite::kPcieDma).sticky = true;
    ScopedFaultPlan guard(plan);
    ScoreOutcome bad = engine.TryScore(data.values().data(),
                                       data.num_rows(),
                                       data.num_features());
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status, ScoreStatus::kFault);
    EXPECT_EQ(bad.fault_site, FaultSite::kPcieDma);
    EXPECT_TRUE(bad.fault_sticky);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_THROW(engine.Score(data.values().data(), data.num_rows(),
                              data.num_features()),
                 fault::FaultInjected);
}

TEST(FaultEngineTest, OffloadFaultSitesMatchDeviceTopology)
{
    EXPECT_TRUE(OffloadFaultSites(BackendKind::kCpuSklearn).empty());
    auto gpu = OffloadFaultSites(BackendKind::kGpuHummingbird);
    ASSERT_EQ(gpu.size(), 3u);
    EXPECT_EQ(gpu[0], FaultSite::kPcieDma);
    EXPECT_EQ(gpu[1], FaultSite::kGpuKernelLaunch);
    EXPECT_EQ(gpu[2], FaultSite::kPcieDma);
    auto fpga = OffloadFaultSites(BackendKind::kFpga);
    ASSERT_EQ(fpga.size(), 4u);
    EXPECT_EQ(fpga[1], FaultSite::kFpgaSetup);
    EXPECT_EQ(fpga[2], FaultSite::kFpgaCompletion);
}

// --------------------------------------------- serving-layer fixtures --

struct ServeFaultFixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
    HardwareProfile profile = HardwareProfile::Paper();

    ServeFaultFixture() : data(MakeHiggs(2000, 90))
    {
        ForestTrainerConfig config;
        config.num_trees = 32;
        config.max_depth = 8;
        config.seed = 90;
        RandomForest forest = TrainForest(data, config);
        ensemble = TreeEnsemble::FromForest(forest);
        stats = ComputeModelStats(forest, &data);
    }

    std::unique_ptr<serve::ScoringService>
    Service(serve::ServiceConfig config) const
    {
        auto service =
            std::make_unique<serve::ScoringService>(profile, config);
        service->RegisterModel("m", ensemble, stats);
        return service;
    }
};

const ServeFaultFixture&
Fixture()
{
    static ServeFaultFixture fixture;
    return fixture;
}

/** Spans of one stage kind in the service's trace domain. */
std::size_t
CountSpans(const serve::ScoringService& service, trace::StageKind stage)
{
    std::size_t n = 0;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(
             service.trace_domain())) {
        if (span.stage == stage) {
            ++n;
        }
    }
    return n;
}

// ----------------------------------------------- retry and deadlines --

TEST(ServeFaultTest, RetryNeverDispatchesPastDeadline)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime();
    config.policy = WorkloadPolicy::kAlwaysFpga;
    config.retry.initial_backoff = SimTime::Millis(10.0);
    auto service = Fixture().Service(config);
    service->Start();

    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).probability = 1.0;
    ScopedFaultPlan guard(plan);

    serve::ScoreRequest r;
    r.model_id = "m";
    r.num_rows = 100;
    r.arrival = SimTime();
    r.deadline = SimTime::Millis(5.0);
    serve::ScoreReply reply = service->ScoreSync(r);

    // The first attempt faulted; the retry would have dispatched past
    // the 5 ms deadline, so the request fails after exactly one attempt
    // instead of riding a retry it could never use.
    EXPECT_EQ(reply.status, serve::RequestStatus::kFailed);
    EXPECT_EQ(reply.attempts, 1u);
    EXPECT_NE(reply.error.find("deadline"), std::string::npos);

    serve::ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.failed, 1u);
    EXPECT_EQ(snap.fault_attempts, 1u);
    EXPECT_EQ(snap.retries, 0u);
    EXPECT_GT(snap.fault_wasted.seconds(), 0.0);
    EXPECT_EQ(CountSpans(*service, trace::StageKind::kRetryBackoff), 0u);
    service->Stop();
}

TEST(ServeFaultTest, RetriesExhaustThenDegradeToCpu)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime();
    config.policy = WorkloadPolicy::kAlwaysFpga;
    config.breaker.failure_threshold = 100;  // keep the breaker out
    auto service = Fixture().Service(config);
    service->Start();

    // Every FPGA setup op fails: the batch burns its full retry budget
    // (default 4 attempts, 3 backoffs) and then degrades to the CPU.
    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).every_nth = 1;
    ScopedFaultPlan guard(plan);

    serve::ScoreRequest r;
    r.model_id = "m";
    r.num_rows = 100;
    r.arrival = SimTime();
    serve::ScoreReply reply = service->ScoreSync(r);

    EXPECT_EQ(reply.status, serve::RequestStatus::kCompleted);
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(reply.attempts, config.retry.max_attempts + 1);

    serve::ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.fault_attempts, config.retry.max_attempts);
    EXPECT_EQ(snap.retries, config.retry.max_attempts - 1);
    EXPECT_EQ(snap.fallback_batches, 1u);
    EXPECT_EQ(snap.failed, 0u);
    EXPECT_GT(snap.retry_backoff.seconds(), 0.0);
    EXPECT_EQ(CountSpans(*service, trace::StageKind::kRetryBackoff),
              snap.retries);
    service->Stop();
}

TEST(ServeFaultTest, RetryBackoffDoublesCapsThenJitters)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime();
    config.policy = WorkloadPolicy::kAlwaysFpga;
    config.breaker.failure_threshold = 100;  // keep the breaker out
    config.retry.initial_backoff = SimTime::Millis(10.0);
    config.retry.max_attempts = 6;
    auto service = Fixture().Service(config);
    service->Start();

    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).every_nth = 1;
    ScopedFaultPlan guard(plan);

    serve::ScoreRequest r;
    r.model_id = "m";
    r.num_rows = 100;
    r.arrival = SimTime();
    serve::ScoreReply reply = service->ScoreSync(r);
    EXPECT_EQ(reply.status, serve::RequestStatus::kCompleted);
    EXPECT_TRUE(reply.degraded);

    // Five backoffs: 10 ms doubling per retry, capped at 50 ms before
    // the jitter adds up to 20% of it.
    std::vector<trace::SpanRecord> backoffs;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(
             service->trace_domain())) {
        if (span.stage == trace::StageKind::kRetryBackoff) {
            backoffs.push_back(span);
        }
    }
    std::sort(backoffs.begin(), backoffs.end(),
              [](const trace::SpanRecord& a, const trace::SpanRecord& b) {
                  return a.sim_start_s < b.sim_start_s;
              });
    const double bounds_ms[][2] = {
        {10.0, 12.0}, {20.0, 24.0}, {40.0, 48.0}, {50.0, 60.0}, {50.0, 60.0}};
    ASSERT_EQ(backoffs.size(), 5u);
    for (std::size_t i = 0; i < backoffs.size(); ++i) {
        const double ms = backoffs[i].sim_dur_s * 1e3;
        EXPECT_GE(ms, bounds_ms[i][0]) << "retry " << i + 1;
        EXPECT_LT(ms, bounds_ms[i][1]) << "retry " << i + 1;
    }

    // The jitter stream is a fixed function of its seed, the device and
    // the attempt counter, so the total repeats to the bit.
    serve::ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.retries, 5u);
    EXPECT_EQ(snap.retry_backoff.seconds(), 0x1.908c48a1331edp-3);
    service->Stop();
}

TEST(ServeFaultTest, FallbackDisabledFailsAfterRetries)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime();
    config.policy = WorkloadPolicy::kAlwaysFpga;
    config.cpu_fallback = false;
    config.retry.max_attempts = 2;
    auto service = Fixture().Service(config);
    service->Start();

    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).every_nth = 1;
    ScopedFaultPlan guard(plan);

    serve::ScoreRequest r;
    r.model_id = "m";
    r.num_rows = 100;
    r.arrival = SimTime();
    serve::ScoreReply reply = service->ScoreSync(r);

    EXPECT_EQ(reply.status, serve::RequestStatus::kFailed);
    EXPECT_EQ(reply.attempts, 2u);
    EXPECT_FALSE(reply.degraded);
    serve::ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.failed, 1u);
    EXPECT_EQ(snap.fallback_batches, 0u);
    EXPECT_EQ(snap.fault_attempts, 2u);
    service->Stop();
}

// ------------------------------------------------ breaker lifecycle --

TEST(ServeFaultTest, BreakerOpensDegradesThenProbesClosed)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime();
    config.policy = WorkloadPolicy::kAlwaysFpga;
    config.retry.max_attempts = 2;
    config.retry.initial_backoff = SimTime::Millis(1.0);
    config.breaker.failure_threshold = 2;
    config.breaker.open_cooldown = SimTime::Millis(200.0);
    auto service = Fixture().Service(config);
    service->Start();

    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).probability = 1.0;
    plan.At(FaultSite::kFpgaSetup).sticky = true;
    FaultInjector::Get().Install(plan);

    // Request A: two faulted FPGA attempts trip the breaker
    // (threshold 2), then the batch degrades to the CPU engine.
    serve::ScoreRequest a;
    a.model_id = "m";
    a.num_rows = 100;
    a.arrival = SimTime();
    serve::ScoreReply ra = service->ScoreSync(a);
    EXPECT_EQ(ra.status, serve::RequestStatus::kCompleted);
    EXPECT_TRUE(ra.degraded);
    EXPECT_EQ(ra.attempts, 3u);

    serve::ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.breaker_opens, 1u);
    EXPECT_EQ(snap.fallback_batches, 1u);
    EXPECT_EQ(snap.degraded_completed, 1u);
    EXPECT_EQ(snap.device[static_cast<int>(DeviceClass::kFpga)].breaker,
              serve::BreakerState::kOpen);

    // Request B arrives inside the cooldown: placement re-routes it to
    // the CPU without ever touching the FPGA (attempts stays 1).
    serve::ScoreRequest b;
    b.model_id = "m";
    b.num_rows = 100;
    b.arrival = SimTime::Millis(10.0);
    serve::ScoreReply rb = service->ScoreSync(b);
    EXPECT_EQ(rb.status, serve::RequestStatus::kCompleted);
    EXPECT_TRUE(rb.degraded);
    EXPECT_EQ(rb.attempts, 1u);
    EXPECT_EQ(service->Stats().fallback_batches, 2u);

    // Heal the FPGA; a request past the cooldown becomes the half-open
    // probe, succeeds on the FPGA, and closes the breaker.
    FaultInjector::Get().Clear();
    serve::ScoreRequest c;
    c.model_id = "m";
    c.num_rows = 100;
    c.arrival = SimTime::Seconds(10.0);
    serve::ScoreReply rc = service->ScoreSync(c);
    EXPECT_EQ(rc.status, serve::RequestStatus::kCompleted);
    EXPECT_FALSE(rc.degraded);
    EXPECT_EQ(rc.attempts, 1u);

    snap = service->Stats();
    EXPECT_EQ(snap.device[static_cast<int>(DeviceClass::kFpga)].breaker,
              serve::BreakerState::kClosed);
    EXPECT_EQ(snap.completed, 3u);
    EXPECT_EQ(snap.failed, 0u);
    EXPECT_GE(CountSpans(*service, trace::StageKind::kBreaker), 3u);
    service->Stop();
}

// ------------------------------------------- CPU-fallback bit identity --

TEST(ServeFaultTest, CpuFallbackPredictionsAreBitIdentical)
{
    const ServeFaultFixture& f = Fixture();
    serve::ServiceConfig config;
    config.coalescer.window = SimTime();
    config.policy = WorkloadPolicy::kAlwaysFpga;
    config.retry.max_attempts = 1;  // degrade after the first fault
    auto service = f.Service(config);
    service->Start();

    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).probability = 1.0;
    ScopedFaultPlan guard(plan);

    const std::size_t n = 128;
    RowView payload = f.data.View(0, n);
    serve::ScoreRequest r;
    r.model_id = "m";
    r.num_rows = n;
    r.rows = payload;
    serve::ScoreReply reply = service->ScoreSync(r);

    ASSERT_EQ(reply.status, serve::RequestStatus::kCompleted);
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(reply.attempts, 2u);
    ASSERT_EQ(reply.predictions.size(), n);

    // Degraded answers are bit-identical to the reference scalar CPU
    // path — fallback changes the cost model, never the math.
    RandomForest reference = f.ensemble.ToForest();
    EXPECT_EQ(reply.predictions,
              reference.PredictBatchScalar(payload.data(), n,
                                           f.data.num_features()));
    service->Stop();
}

// ------------------------------------------------- concurrent chaos --

TEST(ServeFaultTest, ConcurrentChaosSettlesEveryRequest)
{
    serve::ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    config.admission_capacity = 4096;
    auto service = Fixture().Service(config);
    service->Start();

    // 10% transient faults at every site, fixed seed.
    FaultPlan plan;
    plan.seed = 0xc4a05;
    for (int s = 0; s < fault::kNumFaultSites; ++s) {
        plan.sites[s].probability = 0.10;
    }
    ScopedFaultPlan guard(plan);

    constexpr int kClients = 8;
    constexpr int kPerClient = 25;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&service, c] {
            for (int i = 0; i < kPerClient; ++i) {
                serve::ScoreRequest r;
                r.model_id = "m";
                r.num_rows = 64 + 16 * (i % 8);
                r.arrival =
                    SimTime::Millis(static_cast<double>(i * kClients + c));
                service->Submit(std::move(r));
            }
        });
    }
    for (std::thread& t : clients) {
        t.join();
    }
    service->Drain();

    // Chaos must never leak a request: every submission reaches a
    // terminal state, and faults are never misreported as rejections.
    serve::ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.submitted,
              static_cast<std::size_t>(kClients * kPerClient));
    EXPECT_EQ(snap.completed + snap.expired + snap.rejected + snap.failed,
              snap.submitted);
    EXPECT_EQ(snap.rejected, 0u);
    EXPECT_GT(snap.fault_attempts, 0u);
    EXPECT_LE(snap.retries, snap.fault_attempts);
    EXPECT_LE(snap.degraded_completed, snap.completed);
    std::size_t device_faults = 0;
    for (int d = 0; d < 3; ++d) {
        device_faults += snap.device[d].faults;
    }
    EXPECT_EQ(device_faults, snap.fault_attempts);

    // The trace subsystem and the counters tell the same story.
    EXPECT_EQ(CountSpans(*service, trace::StageKind::kFault),
              snap.fault_attempts);
    EXPECT_EQ(CountSpans(*service, trace::StageKind::kRetryBackoff),
              snap.retries);
    EXPECT_EQ(CountSpans(*service, trace::StageKind::kFallback),
              snap.fallback_batches);
    EXPECT_FALSE(snap.ToString().empty());
    service->Stop();
}

// ------------------------------------------------- DBMS entry point --

TEST(FaultProcedureTest, SpFaultInjectArmsReportsAndClears)
{
    FaultInjector::Get().Clear();
    Database db;
    HardwareProfile profile = HardwareProfile::Paper();
    ScoringPipeline pipeline(db, profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);

    // Bare report: five sites, injector inactive.
    QueryResult report = sql.Execute("EXEC sp_fault_inject");
    ASSERT_EQ(report.rows.size(),
              static_cast<std::size_t>(fault::kNumFaultSites));
    EXPECT_NE(report.message.find("inactive"), std::string::npos);

    // Arm one site; rules merge, so a second statement extends the
    // campaign instead of replacing it.
    sql.Execute("EXEC sp_fault_inject @site = 'pcie-dma', "
                "@probability = 0.5, @seed = 42");
    QueryResult armed = sql.Execute(
        "EXEC sp_fault_inject @site = 'fpga-setup', @every_nth = 2, "
        "@sticky = 1");
    EXPECT_TRUE(FaultInjector::Get().active());
    ASSERT_TRUE(FaultInjector::Get().plan().has_value());
    FaultPlan plan = *FaultInjector::Get().plan();
    EXPECT_DOUBLE_EQ(plan.At(FaultSite::kPcieDma).probability, 0.5);
    EXPECT_EQ(plan.At(FaultSite::kFpgaSetup).every_nth, 2u);
    EXPECT_TRUE(plan.At(FaultSite::kFpgaSetup).sticky);
    EXPECT_EQ(plan.seed, 42u);
    EXPECT_NE(armed.message.find("active"), std::string::npos);

    // @repair un-sticks a site; @clear removes the whole plan.
    FaultInjector::Get().ShouldFail(FaultSite::kFpgaSetup);
    FaultInjector::Get().ShouldFail(FaultSite::kFpgaSetup);  // sticks
    EXPECT_TRUE(FaultInjector::Get()
                    .Stats()[static_cast<int>(FaultSite::kFpgaSetup)]
                    .stuck);
    sql.Execute("EXEC sp_fault_inject @repair = 'fpga-setup'");
    EXPECT_FALSE(FaultInjector::Get()
                     .Stats()[static_cast<int>(FaultSite::kFpgaSetup)]
                     .stuck);
    sql.Execute("EXEC sp_fault_inject @clear = 1");
    EXPECT_FALSE(FaultInjector::Get().active());

    EXPECT_THROW(sql.Execute("EXEC sp_fault_inject @site = 'warp-core'"),
                 InvalidArgument);
    EXPECT_THROW(sql.Execute("EXEC sp_fault_inject @site = 'pcie-dma', "
                             "@probability = 2.0"),
                 InvalidArgument);
}

}  // namespace
}  // namespace dbscore
