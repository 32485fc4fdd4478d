/**
 * @file
 * Tests for dbscore::fleet — multi-tenant registry, SLO scheduling,
 * and fleet-scale serving.
 *
 * The registry tests pin the re-warm tax contract: a model pays its
 * build cost exactly once per residency, eviction makes the next
 * Acquire pay it again, the trace counters (kRegistryHit /
 * kRegistryEvict / kKernelBuild spans) agree with the snapshot, and a
 * re-warmed kernel predicts bit-identically to the first build. The
 * chaos test mixes 8 submitting threads with concurrent eviction and
 * injected faults and asserts every request settles — the suite runs
 * under TSan and ASan in CI.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/fault/fault.h"
#include "dbscore/fleet/autoscaler.h"
#include "dbscore/fleet/fleet_proc.h"
#include "dbscore/fleet/fleet_service.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/fleet/wfq.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

namespace dbscore::fleet {
namespace {

using serve::RequestStatus;

/** One trained HIGGS model shared by every test in this file. */
struct FleetFixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
    HardwareProfile profile = HardwareProfile::Paper();

    FleetFixture() : data(MakeHiggs(2000, 93))
    {
        ForestTrainerConfig config;
        config.num_trees = 32;
        config.max_depth = 8;
        config.seed = 93;
        RandomForest forest = TrainForest(data, config);
        ensemble = TreeEnsemble::FromForest(forest);
        stats = ComputeModelStats(forest, &data);
    }

    std::vector<float>
    Payload(std::size_t rows) const
    {
        const std::size_t cols = data.num_features();
        std::vector<float> payload(rows * cols);
        for (std::size_t r = 0; r < rows; ++r) {
            const float* row = data.Row(r);
            std::copy(row, row + cols, payload.begin() + r * cols);
        }
        return payload;
    }
};

const FleetFixture&
Fixture()
{
    static FleetFixture fixture;
    return fixture;
}

std::size_t
CountSpans(std::uint32_t domain, trace::StageKind stage,
           const char* name_prefix = nullptr)
{
    trace::TraceCollector::Get().Drain();
    std::size_t n = 0;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(domain)) {
        if (span.stage != stage) {
            continue;
        }
        if (name_prefix != nullptr &&
            std::string_view(span.name).substr(0, std::strlen(name_prefix)) !=
                name_prefix) {
            continue;
        }
        ++n;
    }
    return n;
}

/** @p rows payload rows scored through @p model's shared front end. */
std::vector<float>
PredictWith(const WarmModel& model, const std::vector<float>& payload,
            std::size_t rows)
{
    return model.compiled->Predict(
        RowView::Borrow(payload.data(), rows, model.num_cols));
}

bool
SameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ------------------------------------------------------ token bucket --

TEST(TokenBucketTest, BurstThenRefillOverModeledTime)
{
    TokenBucket bucket(10.0, 4.0);
    const SimTime t0;
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bucket.TryTake(t0)) << "burst token " << i;
    }
    EXPECT_FALSE(bucket.TryTake(t0));

    // 0.25s at 10/s refills 2.5 tokens: two takes pass, a third fails.
    const SimTime t1 = SimTime::Millis(250.0);
    EXPECT_TRUE(bucket.TryTake(t1));
    EXPECT_TRUE(bucket.TryTake(t1));
    EXPECT_FALSE(bucket.TryTake(t1));

    // A stale (earlier) stamp refills nothing.
    EXPECT_FALSE(bucket.TryTake(t0));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited)
{
    TokenBucket bucket(0.0, 1.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(bucket.TryTake(SimTime()));
    }
}

// ------------------------------------------------ weighted fair queue --

TEST(WfqTest, ServiceIsProportionalToWeights)
{
    WeightedFairQueue<int> wfq({8.0, 3.0, 1.0});
    for (int i = 0; i < 100; ++i) {
        wfq.Push(SloClass::kGold, i);
        wfq.Push(SloClass::kSilver, 100 + i);
        wfq.Push(SloClass::kBronze, 200 + i);
    }
    // Over the first 60 pops every class is continuously backlogged, so
    // SCFQ must serve ~8:3:1. Exact counts depend on tag tie-breaks;
    // the band below is what any correct SCFQ produces.
    std::array<int, kNumSloClasses> served{};
    for (int i = 0; i < 60; ++i) {
        const int item = *wfq.Pop();
        ++served[static_cast<int>(item / 100)];
    }
    EXPECT_GE(served[0], 36);  // gold: ~40 of 60
    EXPECT_GE(served[1], 12);  // silver: ~15 of 60
    EXPECT_GE(served[2], 3);   // bronze: ~5 of 60, never starved
    EXPECT_GT(served[0], served[1]);
    EXPECT_GT(served[1], served[2]);

    // FIFO within a class.
    WeightedFairQueue<int> fifo({1.0, 1.0, 1.0});
    fifo.Push(SloClass::kGold, 1);
    fifo.Push(SloClass::kGold, 2);
    fifo.Push(SloClass::kGold, 3);
    EXPECT_EQ(*fifo.Pop(), 1);
    EXPECT_EQ(*fifo.Pop(), 2);
    EXPECT_EQ(*fifo.Pop(), 3);
    EXPECT_FALSE(fifo.Pop().has_value());
}

TEST(WfqTest, IdleClassBuildsNoCredit)
{
    WeightedFairQueue<int> wfq({8.0, 3.0, 1.0});
    // Bronze serves alone for a while; gold then arrives and must not
    // owe bronze for the time it was idle (SCFQ, not raw virtual-clock
    // WFQ: finish tags start at the current virtual time).
    for (int i = 0; i < 50; ++i) {
        wfq.Push(SloClass::kBronze, i);
    }
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(*wfq.Pop(), i);
    }
    wfq.Push(SloClass::kGold, 1000);
    wfq.Push(SloClass::kBronze, 2000);
    EXPECT_EQ(*wfq.Pop(), 1000);
}

// ---------------------------------------------------------- autoscaler --

TEST(AutoscalerTest, PureDecisionRules)
{
    AutoscalerConfig config;
    config.max_lanes = 8;

    DeviceLoadSignals s;
    s.lanes = 2;
    s.now = SimTime::Seconds(10.0);
    s.last_change = SimTime();

    // Backlog per lane above threshold: scale up.
    s.queue_depth = 9;  // 4.5 per lane > 4.0
    EXPECT_EQ(Autoscale(config, s).delta, 1);
    EXPECT_STREQ(Autoscale(config, s).reason, "backlog");

    // Deadline misses scale up even with a shallow queue.
    s.queue_depth = 2;
    s.window_completions = 10;
    s.window_deadline_misses = 2;  // 20% > 10%
    EXPECT_EQ(Autoscale(config, s).delta, 1);

    // Idle pool shrinks, but never below kMinLanes.
    s.window_deadline_misses = 0;
    s.window_completions = 10;
    s.queue_depth = 0;
    EXPECT_EQ(Autoscale(config, s).delta, -1);
    s.lanes = kMinLanes;
    EXPECT_EQ(Autoscale(config, s).delta, 0);

    // Cooldown and the max-lanes cap both hold.
    s.lanes = 2;
    s.queue_depth = 100;
    s.last_change = s.now - SimTime::Millis(50.0);
    EXPECT_EQ(Autoscale(config, s).delta, 0);
    s.last_change = SimTime();
    s.lanes = config.max_lanes;
    EXPECT_EQ(Autoscale(config, s).delta, 0);

    // Disabled holds everything.
    config.enabled = false;
    s.lanes = 2;
    EXPECT_EQ(Autoscale(config, s).delta, 0);
}

// ------------------------------------------------------ model registry --

TEST(ModelRegistryTest, WarmEvictRewarmPaysBuildCostExactlyOnce)
{
    const FleetFixture& f = Fixture();
    RegistryConfig config;
    // Budget holds exactly one model: acquiring the other evicts.
    config.memory_budget_bytes = f.stats.serialized_bytes +
                                 f.stats.serialized_bytes / 2;
    ModelRegistry registry(f.profile, config);
    registry.RegisterModel("a", f.ensemble, f.stats);
    registry.RegisterModel("b", f.ensemble, f.stats);

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const std::uint32_t domain = tracer.NewDomain();
    const trace::SpanContext parent = tracer.NewRootContext(domain);

    // Cold build pays; the second acquire is free (warm).
    AcquireResult first = registry.Acquire("a", parent, SimTime());
    EXPECT_FALSE(first.hit);
    EXPECT_GT(first.build_cost.seconds(), 0.0);
    AcquireResult warm = registry.Acquire("a", parent, SimTime());
    EXPECT_TRUE(warm.hit);
    EXPECT_TRUE(warm.build_cost.is_zero());
    EXPECT_EQ(warm.model.get(), first.model.get());

    // "b" displaces "a"; re-acquiring "a" pays the build again, and
    // the modeled cost of a rebuild equals the first build exactly
    // (same serialized bytes through the same cost model).
    registry.Acquire("b", parent, SimTime());
    AcquireResult rewarm = registry.Acquire("a", parent, SimTime());
    EXPECT_FALSE(rewarm.hit);
    EXPECT_EQ(rewarm.build_cost, first.build_cost);
    EXPECT_NE(rewarm.model.get(), first.model.get());

    RegistrySnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.hits, 1u);
    EXPECT_EQ(snap.misses, 3u);    // a cold, b cold, a re-warm
    EXPECT_EQ(snap.rebuilds, 1u);  // only the re-warm of "a"
    EXPECT_EQ(snap.evictions, 2u); // a (by b), then b (by a)
    EXPECT_EQ(snap.resident_models, 1u);
    EXPECT_EQ(snap.build_cost_total, first.build_cost * 3.0);

    // The trace domain agrees with the snapshot counter for counter.
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kRegistryHit),
              snap.hits);
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kRegistryEvict),
              snap.evictions);
    // The kernel compile itself also emits a kKernelBuild span, so
    // count only the registry-level ones by name: one wall span + one
    // sim span per miss.
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kKernelBuild,
                         "registry-build"),
              2 * snap.misses);

    // Bit-identity: the re-warmed model is a new WarmModel over the
    // first build's compiled model, so it predicts the same bits.
    const std::size_t rows = 64;
    std::vector<float> payload = f.Payload(rows);
    std::vector<float> before = PredictWith(*first.model, payload, rows);
    std::vector<float> after = PredictWith(*rewarm.model, payload, rows);
    ASSERT_EQ(before.size(), rows);
    EXPECT_TRUE(SameBits(before, after));
}

TEST(ModelRegistryTest, OverBudgetLoneModelStaysResident)
{
    const FleetFixture& f = Fixture();
    RegistryConfig config;
    config.memory_budget_bytes = 1;  // nothing "fits"
    ModelRegistry registry(f.profile, config);
    registry.RegisterModel("a", f.ensemble, f.stats);

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const trace::SpanContext parent =
        tracer.NewRootContext(tracer.NewDomain());
    registry.Acquire("a", parent, SimTime());
    // The most-recently-used model is never evicted by its own
    // arrival, even over budget — otherwise a lone oversized model
    // would rebuild on every single acquire.
    EXPECT_TRUE(registry.Acquire("a", parent, SimTime()).hit);
    EXPECT_EQ(registry.Snapshot().resident_models, 1u);
}

TEST(ModelRegistryTest, UnknownAndDuplicateIdsThrow)
{
    const FleetFixture& f = Fixture();
    ModelRegistry registry(f.profile, RegistryConfig{});
    registry.RegisterModel("a", f.ensemble, f.stats);
    EXPECT_THROW(registry.RegisterModel("a", f.ensemble, f.stats),
                 InvalidArgument);
    const trace::SpanContext parent =
        trace::TraceCollector::Get().NewRootContext(0);
    EXPECT_THROW(registry.Acquire("ghost", parent, SimTime()), NotFound);
}

TEST(ModelRegistryTest, SchedulerIsBuiltOncePerSpecAndSharedByRewarms)
{
    const FleetFixture& f = Fixture();
    RegistryConfig config;
    // Budget holds exactly one model: acquiring the other evicts.
    config.memory_budget_bytes = f.stats.serialized_bytes +
                                 f.stats.serialized_bytes / 2;
    ModelRegistry registry(f.profile, config);

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const std::uint32_t domain = tracer.NewDomain();
    const trace::SpanContext parent = tracer.NewRootContext(domain);

    // Registration builds nothing: a kernel compile or a scheduler
    // build would nest a kKernelBuild span under this one.
    {
        trace::ScopedSpan registering(trace::StageKind::kQuery, "register",
                                      parent);
        registry.RegisterModel("a", f.ensemble, f.stats);
        registry.RegisterModel("b", f.ensemble, f.stats);
    }
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kKernelBuild), 0u);
    EXPECT_EQ(registry.Snapshot().build_wall_ms_total, 0.0);

    // The first Acquire builds the spec's compiled model and scheduler,
    // and the wall-clock counter sees it.
    AcquireResult first = registry.Acquire("a", parent, SimTime());
    ASSERT_FALSE(first.hit);
    ASSERT_NE(first.model->scheduler, nullptr);
    EXPECT_GT(first.model->build_wall_ms, 0.0);
    EXPECT_GT(registry.Snapshot().build_wall_ms_total,
              first.model->build_wall_ms);
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kKernelBuild,
                         "registry-scheduler"),
              1u);

    // "b" evicts "a" and builds its own scheduler; the re-warm of "a"
    // builds nothing and reuses the first scheduler.
    AcquireResult other = registry.Acquire("b", parent, SimTime());
    AcquireResult rewarm = registry.Acquire("a", parent, SimTime());
    ASSERT_FALSE(rewarm.hit);
    EXPECT_NE(rewarm.model.get(), first.model.get());
    EXPECT_EQ(rewarm.model->scheduler.get(), first.model->scheduler.get());
    EXPECT_NE(other.model->scheduler.get(), first.model->scheduler.get());
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kKernelBuild,
                         "registry-scheduler"),
              2u);

    // The re-warmed model predicts the same bits.
    const std::size_t rows = 64;
    std::vector<float> payload = f.Payload(rows);
    std::vector<float> before = PredictWith(*first.model, payload, rows);
    std::vector<float> after = PredictWith(*rewarm.model, payload, rows);
    ASSERT_EQ(before.size(), rows);
    EXPECT_TRUE(SameBits(before, after));
}

TEST(ModelRegistryTest, RewarmSharesTheFirstBuildsKernel)
{
    const FleetFixture& f = Fixture();
    RegistryConfig config;
    // Budget holds exactly one model: acquiring the other evicts.
    config.memory_budget_bytes = f.stats.serialized_bytes +
                                 f.stats.serialized_bytes / 2;
    ModelRegistry registry(f.profile, config);
    registry.RegisterModel("a", f.ensemble, f.stats);
    registry.RegisterModel("b", f.ensemble, f.stats);

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const std::uint32_t domain = tracer.NewDomain();
    const trace::SpanContext parent = tracer.NewRootContext(domain);

    AcquireResult first = registry.Acquire("a", parent, SimTime());
    ASSERT_NE(first.model->compiled->kernel(), nullptr);
    EXPECT_EQ(first.model->compiled->forest(), nullptr);
    registry.Acquire("b", parent, SimTime());
    const std::size_t compiles =
        CountSpans(domain, trace::StageKind::kKernelBuild, "kernel-build");
    EXPECT_EQ(compiles, 2u);  // one per spec's first build

    // The re-warm of "a" is a miss that still charges the modeled
    // build, but compiles nothing: it shares the first build's kernel.
    AcquireResult rewarm = registry.Acquire("a", parent, SimTime());
    ASSERT_FALSE(rewarm.hit);
    EXPECT_EQ(rewarm.build_cost, first.build_cost);
    EXPECT_EQ(rewarm.model->compiled->kernel(),
              first.model->compiled->kernel());
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kKernelBuild,
                         "kernel-build"),
              compiles);
    EXPECT_EQ(registry.Snapshot().rebuilds, 1u);

    const std::size_t rows = 64;
    std::vector<float> payload = f.Payload(rows);
    const std::vector<float> expected = f.ensemble.ToForest().PredictBatch(
        payload.data(), rows, f.data.num_features());
    EXPECT_TRUE(SameBits(PredictWith(*rewarm.model, payload, rows),
                         expected));
}

TEST(ModelRegistryTest, OversizedTreeRewarmsOntoTheSameReferenceForest)
{
    // One tree past the kernel's 2^17-node limit: a chain whose rows
    // leave at the first node whose threshold they exceed, onto a leaf
    // of alternating class.
    DecisionTree chain;
    std::int32_t prev = chain.AddDecisionNode(0, 1.2f);
    for (std::size_t i = 1; i < (std::size_t{1} << 16) + 4; ++i) {
        std::int32_t next =
            chain.AddDecisionNode(0, 1.2f - static_cast<float>(i) * 1e-5f);
        std::int32_t leaf = chain.AddLeafNode(static_cast<float>(i % 2));
        chain.SetChildren(prev, next, leaf);
        prev = next;
    }
    chain.SetChildren(prev, chain.AddLeafNode(0.0f), chain.AddLeafNode(1.0f));
    ASSERT_GT(chain.NumNodes(), std::size_t{1} << 17);
    RandomForest forest(Task::kClassification, 2, 2);
    forest.AddTree(std::move(chain));
    ASSERT_FALSE(ForestKernel::Supports(forest));
    const TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    const ModelStats stats = ComputeModelStats(forest);

    RegistryConfig config;
    config.memory_budget_bytes = 1;  // one resident at a time
    ModelRegistry registry(Fixture().profile, config);
    registry.RegisterModel("chain", ensemble, stats);
    registry.RegisterModel("other", Fixture().ensemble, Fixture().stats);
    const trace::SpanContext parent =
        trace::TraceCollector::Get().NewRootContext(0);

    AcquireResult first = registry.Acquire("chain", parent, SimTime());
    ASSERT_EQ(first.model->compiled->kernel(), nullptr);
    ASSERT_NE(first.model->compiled->forest(), nullptr);
    registry.Acquire("other", parent, SimTime());  // evicts "chain"
    AcquireResult rewarm = registry.Acquire("chain", parent, SimTime());
    ASSERT_FALSE(rewarm.hit);
    EXPECT_EQ(rewarm.model->compiled->forest(),
              first.model->compiled->forest());

    std::vector<float> payload;
    for (int i = 0; i < 300; ++i) {
        payload.push_back(0.4f + static_cast<float>(i) * 0.01f);
        payload.push_back(1.0f);
    }
    EXPECT_TRUE(SameBits(PredictWith(*rewarm.model, payload, 300),
                         forest.PredictBatch(payload.data(), 300, 2)));
}

// ------------------------------------------------------- fleet service --

TEST(FleetServiceTest, ScoresForTenantsAndMatchesDirectKernel)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(1, "m", SloClass::kGold);
    service.RegisterTenant(2, "m", SloClass::kBronze);
    service.Start();

    const std::size_t rows = 32;
    std::vector<float> payload = f.Payload(rows);
    FleetRequest request;
    request.tenant_id = 1;
    request.num_rows = rows;
    request.rows = payload;
    FleetReply reply = service.ScoreSync(std::move(request));
    ASSERT_EQ(reply.status, RequestStatus::kCompleted);
    EXPECT_EQ(reply.slo, SloClass::kGold);
    EXPECT_TRUE(reply.registry_miss);  // first touch builds
    ASSERT_EQ(reply.predictions.size(), rows);

    RandomForest direct = f.ensemble.ToForest();
    std::vector<float> expected =
        direct.PredictBatch(payload.data(), rows, f.data.num_features());
    EXPECT_EQ(std::memcmp(reply.predictions.data(), expected.data(),
                          rows * sizeof(float)),
              0);

    // Re-warm after eviction: same bits, build paid again.
    service.EvictAllModels();
    FleetRequest again;
    again.tenant_id = 2;
    again.num_rows = rows;
    again.rows = payload;
    FleetReply rewarmed = service.ScoreSync(std::move(again));
    ASSERT_EQ(rewarmed.status, RequestStatus::kCompleted);
    EXPECT_EQ(rewarmed.slo, SloClass::kBronze);
    EXPECT_TRUE(rewarmed.registry_miss);
    EXPECT_EQ(std::memcmp(rewarmed.predictions.data(), expected.data(),
                          rows * sizeof(float)),
              0);
    EXPECT_EQ(service.registry().Snapshot().rebuilds, 1u);
    service.Stop();
}

TEST(FleetServiceTest, ModelThatFailsToBuildFailsOnlyItsOwnRequests)
{
    const FleetFixture& f = Fixture();
    // A 2-class ensemble whose one leaf names class 7: registration
    // defers the build, so the first request is what finds out.
    TreeEnsemble bad;
    bad.task = Task::kClassification;
    bad.num_features = 2;
    bad.num_classes = 2;
    bad.tree_ids = {0};
    bad.node_ids = {0};
    bad.modes = {NodeMode::kLeaf};
    bad.feature_ids = {-1};
    bad.thresholds = {0.0f};
    bad.true_children = {-1};
    bad.false_children = {-1};
    bad.leaf_values = {7.0f};
    ModelStats bad_stats;
    bad_stats.num_features = 2;
    bad_stats.serialized_bytes = bad.ByteSize();

    FleetService service(f.profile, FleetConfig{});
    service.RegisterModel("bad", bad, bad_stats);
    service.RegisterModel("good", f.ensemble, f.stats);
    service.RegisterTenant(1, "bad", SloClass::kGold);
    service.RegisterTenant(2, "good", SloClass::kGold);
    service.Start();

    // Both requests fail with the build's typed message; the second
    // one proves the failed build released its latch (a stuck latch
    // would park the dispatcher forever).
    for (int i = 0; i < 2; ++i) {
        FleetRequest request;
        request.tenant_id = 1;
        FleetReply reply = service.ScoreSync(std::move(request));
        EXPECT_EQ(reply.status, RequestStatus::kFailed);
        EXPECT_EQ(reply.error, "ensemble: leaf is not a class id");
    }

    const std::size_t rows = 16;
    FleetRequest good;
    good.tenant_id = 2;
    good.num_rows = rows;
    good.rows = f.Payload(rows);
    FleetReply reply = service.ScoreSync(std::move(good));
    EXPECT_EQ(reply.status, RequestStatus::kCompleted);
    EXPECT_EQ(reply.predictions.size(), rows);

    const FleetSnapshot snap = service.Stats();
    EXPECT_EQ(snap.classes[static_cast<int>(SloClass::kGold)].failed, 2u);
    EXPECT_EQ(snap.Settled(), 3u);
    EXPECT_EQ(snap.registry.misses, 1u);  // only "good" was built
    service.Stop();
}

TEST(FleetServiceTest, PayloadOfTheWrongSizeFailsItsRequest)
{
    const FleetFixture& f = Fixture();
    FleetService service(f.profile, FleetConfig{});
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(1, "m", SloClass::kGold);
    service.Start();

    // One row short: scoring it would read past the payload.
    FleetRequest request;
    request.tenant_id = 1;
    request.num_rows = 8;
    request.rows = f.Payload(7);
    FleetReply reply = service.ScoreSync(std::move(request));
    EXPECT_EQ(reply.status, RequestStatus::kFailed);
    EXPECT_NE(reply.error.find("payload"), std::string::npos);
    EXPECT_TRUE(reply.predictions.empty());
    EXPECT_EQ(service.Stats().classes[static_cast<int>(SloClass::kGold)]
                  .failed,
              1u);
    service.Stop();
}

TEST(FleetServiceTest, RejectsZeroRowsBeforeChargingTheQuota)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.slo[static_cast<int>(SloClass::kBronze)].quota_rps = 1.0;
    config.slo[static_cast<int>(SloClass::kBronze)].quota_burst = 1.0;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(7, "m", SloClass::kBronze);
    service.Start();

    FleetRequest zero;
    zero.tenant_id = 7;
    zero.num_rows = 0;
    zero.arrival = SimTime();
    FleetReply reply = service.ScoreSync(std::move(zero));
    EXPECT_EQ(reply.status, RequestStatus::kRejected);
    EXPECT_NE(reply.error.find("zero rows"), std::string::npos);
    service.Drain();
    const auto bronze = [&service] {
        return service.Stats().classes[static_cast<int>(SloClass::kBronze)];
    };
    const auto dispatches = [&service] {
        std::size_t n = 0;
        for (const FleetDeviceSnapshot& d : service.Stats().devices) {
            n += d.dispatches;
        }
        return n;
    };
    EXPECT_EQ(bronze().rejected_capacity, 1u);
    EXPECT_EQ(bronze().admitted, 0u);
    EXPECT_EQ(dispatches(), 0u);

    // The refusal left the tenant's one token: a real request at the
    // same modeled arrival still admits.
    FleetRequest one;
    one.tenant_id = 7;
    one.arrival = SimTime();
    EXPECT_EQ(service.ScoreSync(std::move(one)).status,
              RequestStatus::kCompleted);
    EXPECT_EQ(bronze().rejected_quota, 0u);
    EXPECT_EQ(dispatches(), 1u);
    service.Stop();
}

TEST(FleetServiceTest, RejectsUnknownTenantAndEnforcesQuota)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.slo[static_cast<int>(SloClass::kBronze)].quota_rps = 1.0;
    config.slo[static_cast<int>(SloClass::kBronze)].quota_burst = 2.0;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(7, "m", SloClass::kBronze);
    service.Start();

    FleetReply ghost = service.ScoreSync(FleetRequest{});
    EXPECT_EQ(ghost.status, RequestStatus::kRejected);
    EXPECT_EQ(ghost.error, "fleet: unknown tenant");

    // Burst of 2 admits; the third (same modeled arrival, no refill
    // elapsed) bounces on the tenant's bucket.
    std::vector<std::future<FleetReply>> futures;
    for (int i = 0; i < 3; ++i) {
        FleetRequest r;
        r.tenant_id = 7;
        r.arrival = SimTime();
        futures.push_back(service.Submit(std::move(r)));
    }
    std::size_t rejected = 0;
    for (auto& fut : futures) {
        if (fut.get().status == RequestStatus::kRejected) {
            ++rejected;
        }
    }
    EXPECT_EQ(rejected, 1u);
    FleetSnapshot snap = service.Stats();
    EXPECT_EQ(
        snap.classes[static_cast<int>(SloClass::kBronze)].rejected_quota,
        1u);
    service.Stop();

    FleetRequest stopped;
    stopped.tenant_id = 7;
    EXPECT_EQ(service.ScoreSync(std::move(stopped)).status,
              RequestStatus::kRejected);
}

TEST(FleetServiceTest, GoldOutrunsBronzeUnderHeldBacklog)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.hold_dispatch = true;
    config.autoscaler.enabled = false;
    // One lane per device: the held WFQ backlog drains in one
    // deterministic pop sequence, and completion order is
    // (near-)monotone in dispatch order.
    config.initial_lanes = 1;
    // Long shared deadline and no admission quota: this test is about
    // ordering, not expiry or throttling. Policies must be in place
    // before RegisterTenant — each tenant's token bucket is built from
    // the class policy current at registration time.
    for (int c = 0; c < kNumSloClasses; ++c) {
        config.slo[c].deadline = SimTime::Seconds(600.0);
        config.slo[c].quota_rps = 0.0;
    }
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(1, "m", SloClass::kGold);
    service.RegisterTenant(2, "m", SloClass::kBronze);
    service.Start();

    // Interleave submissions so arrival order can't explain the gap.
    std::vector<std::future<FleetReply>> gold, bronze;
    for (int i = 0; i < 40; ++i) {
        FleetRequest g;
        g.tenant_id = 1;
        g.num_rows = 64;
        g.arrival = SimTime::Millis(static_cast<double>(i) * 0.01);
        gold.push_back(service.Submit(std::move(g)));
        FleetRequest b;
        b.tenant_id = 2;
        b.num_rows = 64;
        b.arrival = SimTime::Millis(static_cast<double>(i) * 0.01);
        bronze.push_back(service.Submit(std::move(b)));
    }
    service.ReleaseDispatch();
    service.Drain();

    std::vector<double> gold_lat, bronze_lat;
    std::vector<std::pair<double, bool>> finishes;  // (finish, is_gold)
    for (auto& fut : gold) {
        FleetReply r = fut.get();
        ASSERT_EQ(r.status, RequestStatus::kCompleted);
        gold_lat.push_back(r.Latency().seconds());
        finishes.emplace_back(r.finish.seconds(), true);
    }
    for (auto& fut : bronze) {
        FleetReply r = fut.get();
        ASSERT_EQ(r.status, RequestStatus::kCompleted);
        bronze_lat.push_back(r.Latency().seconds());
        finishes.emplace_back(r.finish.seconds(), false);
    }
    // Weight 8 vs 1: the WFQ pops all 40 gold requests within the
    // first 44 dispatches, so gold dominates the early finishers.
    std::sort(finishes.begin(), finishes.end());
    std::size_t gold_in_first_half = 0;
    for (std::size_t i = 0; i < finishes.size() / 2; ++i) {
        gold_in_first_half += finishes[i].second;
    }
    EXPECT_GE(gold_in_first_half, 30u);
    // ... and gold's median modeled latency sits well below bronze's
    // (the margin absorbs cold-start charges on the early, i.e. gold,
    // dispatches).
    std::sort(gold_lat.begin(), gold_lat.end());
    std::sort(bronze_lat.begin(), bronze_lat.end());
    EXPECT_LT(gold_lat[gold_lat.size() / 2] * 1.5,
              bronze_lat[bronze_lat.size() / 2]);
    service.Stop();
}

TEST(FleetServiceTest, EightThreadChaosSettlesEveryRequest)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.registry.memory_budget_bytes =
        f.stats.serialized_bytes * 2 + f.stats.serialized_bytes / 2;
    FleetService service(f.profile, config);
    for (int m = 0; m < 6; ++m) {
        service.RegisterModel("m" + std::to_string(m), f.ensemble,
                              f.stats);
    }
    constexpr int kTenants = 24;
    for (int t = 0; t < kTenants; ++t) {
        service.RegisterTenant(static_cast<std::uint64_t>(t),
                               "m" + std::to_string(t % 6),
                               static_cast<SloClass>(t % kNumSloClasses));
    }
    service.Start();

    fault::FaultPlan plan;
    plan.seed = 0xc4a05;
    for (int s = 0; s < fault::kNumFaultSites; ++s) {
        plan.sites[s].probability = 0.10;
    }
    fault::FaultInjector::Get().Install(plan);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 30;
    std::atomic<std::size_t> settled{0};
    std::atomic<bool> evict_stop{false};
    // A ninth thread hammers eviction while requests are in flight:
    // in-flight WarmModelPtrs must keep their kernels alive.
    std::thread evictor([&] {
        while (!evict_stop.load()) {
            service.EvictAllModels();
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                FleetRequest r;
                r.tenant_id = static_cast<std::uint64_t>(
                    (t * kPerThread + i) % kTenants);
                r.num_rows = 16 + 16 * (i % 4);
                FleetReply reply = service.ScoreSync(std::move(r));
                (void)reply;  // any terminal status is legal under chaos
                settled.fetch_add(1);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    evict_stop.store(true);
    evictor.join();
    service.Drain();
    fault::FaultInjector::Get().Clear();

    EXPECT_EQ(settled.load(),
              static_cast<std::size_t>(kThreads * kPerThread));
    FleetSnapshot snap = service.Stats();
    std::size_t class_settled = 0;
    std::size_t class_submitted = 0;
    for (const ClassSnapshot& c : snap.classes) {
        class_submitted += c.submitted;
        class_settled += c.completed + c.expired + c.failed +
                         c.rejected_quota + c.rejected_capacity;
    }
    EXPECT_EQ(class_submitted,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(class_settled, class_submitted);
    service.Stop();
}

/** What one held burst produced: every reply, then the counters. */
struct BurstOutcome {
    std::vector<FleetReply> replies;
    FleetSnapshot stats;
};

/**
 * A held overload burst over 8 models under a 3.5-model registry
 * budget, with the autoscaler on and every fault site armed at 2%.
 * With @p payloads every request carries 64 rows to score; without,
 * the scorers do no kernel work at all.
 */
BurstOutcome
RunHeldBurst(bool payloads)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.hold_dispatch = true;
    config.queue_capacity = 1024;
    config.registry.memory_budget_bytes =
        f.stats.serialized_bytes * 3 + f.stats.serialized_bytes / 2;
    for (int c = 0; c < kNumSloClasses; ++c) {
        config.slo[c].quota_rps = 0.0;
    }
    FleetService service(f.profile, config);
    for (int m = 0; m < 8; ++m) {
        service.RegisterModel(StrFormat("m%d", m), f.ensemble, f.stats);
    }
    for (int t = 0; t < 64; ++t) {
        service.RegisterTenant(static_cast<std::uint64_t>(t),
                               StrFormat("m%d", t % 8),
                               static_cast<SloClass>(t % kNumSloClasses));
    }
    service.Start();

    fault::FaultPlan plan;
    plan.seed = 0xb0257;
    for (int s = 0; s < fault::kNumFaultSites; ++s) {
        plan.sites[s].probability = 0.02;
    }
    fault::ScopedFaultPlan guard(plan);

    const std::vector<float> payload = f.Payload(64);
    std::vector<std::future<FleetReply>> futures;
    for (int i = 0; i < 600; ++i) {
        FleetRequest request;
        request.tenant_id = static_cast<std::uint64_t>(i % 64);
        request.num_rows = 64;
        if (payloads) {
            request.rows = payload;
        }
        request.arrival = SimTime::Millis(0.05 * i);
        futures.push_back(service.Submit(std::move(request)));
    }
    service.ReleaseDispatch();
    service.Drain();

    BurstOutcome out;
    for (auto& future : futures) {
        out.replies.push_back(future.get());
    }
    out.stats = service.Stats();
    service.Stop();
    return out;
}

void
ExpectSameDist(const serve::DistSummary& a, const serve::DistSummary& b)
{
    EXPECT_EQ(a.count, b.count);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.max, b.max);
}

/** Every counter of two snapshots except wall-clock build time. */
void
ExpectSameCounters(const FleetSnapshot& a, const FleetSnapshot& b)
{
    for (int c = 0; c < kNumSloClasses; ++c) {
        const ClassSnapshot& x = a.classes[c];
        const ClassSnapshot& y = b.classes[c];
        EXPECT_EQ(x.submitted, y.submitted);
        EXPECT_EQ(x.admitted, y.admitted);
        EXPECT_EQ(x.rejected_quota, y.rejected_quota);
        EXPECT_EQ(x.rejected_capacity, y.rejected_capacity);
        EXPECT_EQ(x.completed, y.completed);
        EXPECT_EQ(x.expired, y.expired);
        EXPECT_EQ(x.failed, y.failed);
        EXPECT_EQ(x.degraded, y.degraded);
        EXPECT_EQ(x.deadline_misses, y.deadline_misses);
        ExpectSameDist(x.latency, y.latency);
    }
    for (int d = 0; d < 3; ++d) {
        const FleetDeviceSnapshot& x = a.devices[d];
        const FleetDeviceSnapshot& y = b.devices[d];
        EXPECT_EQ(x.dispatches, y.dispatches);
        EXPECT_EQ(x.requests, y.requests);
        EXPECT_EQ(x.rows, y.rows);
        EXPECT_EQ(x.busy, y.busy);
        EXPECT_EQ(x.faults, y.faults);
        EXPECT_EQ(x.retries, y.retries);
        EXPECT_EQ(x.fallbacks, y.fallbacks);
        EXPECT_EQ(x.breaker_opens, y.breaker_opens);
        EXPECT_EQ(x.breaker, y.breaker);
        EXPECT_EQ(x.lanes, y.lanes);
        EXPECT_EQ(x.scale_ups, y.scale_ups);
        EXPECT_EQ(x.scale_downs, y.scale_downs);
    }
    EXPECT_EQ(a.registry.hits, b.registry.hits);
    EXPECT_EQ(a.registry.misses, b.registry.misses);
    EXPECT_EQ(a.registry.rebuilds, b.registry.rebuilds);
    EXPECT_EQ(a.registry.evictions, b.registry.evictions);
    EXPECT_EQ(a.registry.build_cost_total, b.registry.build_cost_total);
    EXPECT_EQ(a.registry.resident_models, b.registry.resident_models);
    EXPECT_EQ(a.first_arrival, b.first_arrival);
    EXPECT_EQ(a.last_finish, b.last_finish);
}

TEST(FleetServiceTest, HeldBurstModeledOutcomesIgnoreScoringWork)
{
    // The dispatcher commits every modeled step in dispatch order, so
    // how long the scorers take to score cannot move a modeled
    // outcome: the same burst with and without kernel work replies
    // and counts identically.
    const BurstOutcome scored = RunHeldBurst(true);
    const BurstOutcome empty = RunHeldBurst(false);
    ASSERT_EQ(scored.replies.size(), empty.replies.size());
    for (std::size_t i = 0; i < scored.replies.size(); ++i) {
        const FleetReply& x = scored.replies[i];
        const FleetReply& y = empty.replies[i];
        EXPECT_EQ(x.status, y.status) << "request " << i;
        EXPECT_EQ(x.device, y.device) << "request " << i;
        EXPECT_EQ(x.backend, y.backend) << "request " << i;
        EXPECT_EQ(x.attempts, y.attempts) << "request " << i;
        EXPECT_EQ(x.degraded, y.degraded) << "request " << i;
        EXPECT_EQ(x.registry_miss, y.registry_miss) << "request " << i;
        EXPECT_EQ(x.finish, y.finish) << "request " << i;
        EXPECT_EQ(x.predictions.size(),
                  x.status == RequestStatus::kCompleted ? 64u : 0u);
        EXPECT_TRUE(y.predictions.empty());
    }
    ExpectSameCounters(scored.stats, empty.stats);

    // The burst reaches every path the claim covers.
    std::size_t faults = 0;
    for (const FleetDeviceSnapshot& d : scored.stats.devices) {
        faults += d.faults;
    }
    EXPECT_GT(faults, 0u);
    EXPECT_GT(scored.stats.registry.rebuilds, 0u);
    EXPECT_GT(scored.stats.Completed(), 0u);
}

// ------------------------------------------------------ fleet faults --

constexpr int kFpgaIdx = static_cast<int>(DeviceClass::kFpga);

/**
 * One lane per device, no autoscaler, no quota and a long deadline:
 * the fault tests below steer each request only through its arrival,
 * the lanes earlier requests hold and the fault plan. At 100k rows the
 * fixture's model places on the FPGA when every lane is idle (5.5 ms
 * estimate vs 6.3 ms GPU and 24.5 ms CPU).
 */
FleetConfig
FaultFleetConfig()
{
    FleetConfig config;
    config.autoscaler.enabled = false;
    config.initial_lanes = 1;
    for (int c = 0; c < kNumSloClasses; ++c) {
        config.slo[c].deadline = SimTime::Seconds(600.0);
        config.slo[c].quota_rps = 0.0;
    }
    return config;
}

std::unique_ptr<FleetService>
StartFaultFleet(const FleetConfig& config)
{
    const FleetFixture& f = Fixture();
    auto service = std::make_unique<FleetService>(f.profile, config);
    service->RegisterModel("m", f.ensemble, f.stats);
    service->RegisterTenant(1, "m", SloClass::kGold);
    service->Start();
    return service;
}

FleetReply
ScoreAt(FleetService& service, SimTime arrival)
{
    FleetRequest request;
    request.tenant_id = 1;
    request.num_rows = 100000;
    request.arrival = arrival;
    return service.ScoreSync(std::move(request));
}

TEST(FleetFaultTest, RetriesExhaustThenDegradeToCpu)
{
    auto service = StartFaultFleet(FaultFleetConfig());

    // Every FPGA setup op fails: the request burns its FPGA budget
    // (kMaxAttempts attempts, one backoff fewer), one fault short of the
    // breaker's threshold, then degrades to CPU.
    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kFpgaSetup).every_nth = 1;
    fault::ScopedFaultPlan guard(plan);

    FleetReply reply = ScoreAt(*service, SimTime());
    EXPECT_EQ(reply.status, RequestStatus::kCompleted);
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(reply.device, DeviceClass::kCpu);
    EXPECT_EQ(reply.attempts, serve::kMaxAttempts + 1);

    const FleetDeviceSnapshot fpga = service->Stats().devices[kFpgaIdx];
    EXPECT_EQ(fpga.faults, serve::kMaxAttempts);
    EXPECT_EQ(fpga.retries, serve::kMaxAttempts - 1);
    EXPECT_EQ(fpga.fallbacks, 1u);
    EXPECT_EQ(fpga.breaker_opens, 0u);
    // The trace subsystem and the counters tell the same story.
    const std::uint32_t domain = service->trace_domain();
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kFault), fpga.faults);
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kRetryBackoff),
              fpga.retries);
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kFallback),
              fpga.fallbacks);
    service->Stop();
}

TEST(FleetFaultTest, FailsOnceTheCpuSpendsItsAttemptsToo)
{
    auto service = StartFaultFleet(FaultFleetConfig());

    // Every process invocation crashes, on every device: the FPGA spends
    // its attempts, the dispatch degrades, and the CPU spends its own.
    // Four faults a device stay under the breaker's threshold.
    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kExternalInvoke).probability = 1.0;
    fault::ScopedFaultPlan guard(plan);

    FleetReply reply = ScoreAt(*service, SimTime());
    EXPECT_EQ(reply.status, RequestStatus::kFailed);
    EXPECT_EQ(reply.attempts, 2 * serve::kMaxAttempts);
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(reply.error, "injected faults exhausted every retry");

    FleetSnapshot snap = service->Stats();
    EXPECT_EQ(snap.classes[static_cast<int>(SloClass::kGold)].failed, 1u);
    const FleetDeviceSnapshot& fpga = snap.devices[kFpgaIdx];
    EXPECT_EQ(fpga.faults, serve::kMaxAttempts);
    EXPECT_EQ(fpga.retries, serve::kMaxAttempts - 1);
    EXPECT_EQ(fpga.fallbacks, 1u);
    EXPECT_EQ(fpga.breaker_opens, 0u);
    const FleetDeviceSnapshot& cpu =
        snap.devices[static_cast<int>(DeviceClass::kCpu)];
    EXPECT_EQ(cpu.faults, serve::kMaxAttempts);
    EXPECT_EQ(cpu.retries, serve::kMaxAttempts - 1);
    EXPECT_EQ(cpu.fallbacks, 0u);
    EXPECT_EQ(cpu.breaker_opens, 0u);
    EXPECT_EQ(CountSpans(service->trace_domain(), trace::StageKind::kFault),
              2 * serve::kMaxAttempts);
    service->Stop();
}

TEST(FleetFaultTest, RetryNeverDispatchesPastDeadline)
{
    FleetConfig config = FaultFleetConfig();
    config.slo[static_cast<int>(SloClass::kGold)].deadline =
        SimTime::Millis(5.0);
    auto service = StartFaultFleet(config);

    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kFpgaSetup).probability = 1.0;
    fault::ScopedFaultPlan guard(plan);

    // The first attempt faulted; the retry would have dispatched past
    // the 5 ms deadline, so the request fails after exactly one attempt
    // and says why.
    FleetReply reply = ScoreAt(*service, SimTime());
    EXPECT_EQ(reply.status, RequestStatus::kFailed);
    EXPECT_EQ(reply.attempts, 1u);
    EXPECT_NE(reply.error.find("deadline"), std::string::npos);

    FleetSnapshot snap = service->Stats();
    EXPECT_EQ(snap.devices[kFpgaIdx].faults, 1u);
    EXPECT_EQ(snap.devices[kFpgaIdx].retries, 0u);
    EXPECT_EQ(CountSpans(service->trace_domain(),
                         trace::StageKind::kRetryBackoff),
              0u);
    service->Stop();
}

TEST(FleetFaultTest, BreakerReopensAfterFailedProbe)
{
    auto service = StartFaultFleet(FaultFleetConfig());

    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kFpgaSetup).probability = 1.0;
    plan.At(fault::FaultSite::kFpgaSetup).sticky = true;
    fault::ScopedFaultPlan guard(plan);

    // The first request's kMaxAttempts faults stay one short of the
    // breaker's threshold. The second, placed on the FPGA again once
    // every lane is idle, opens it with its first fault. Both degrade.
    FleetReply first = ScoreAt(*service, SimTime());
    EXPECT_EQ(first.status, RequestStatus::kCompleted);
    EXPECT_TRUE(first.degraded);
    EXPECT_EQ(service->Stats().devices[kFpgaIdx].breaker_opens, 0u);
    FleetReply second = ScoreAt(*service, first.finish);
    EXPECT_EQ(second.status, RequestStatus::kCompleted);
    EXPECT_TRUE(second.degraded);
    EXPECT_EQ(service->Stats().devices[kFpgaIdx].breaker_opens, 1u);

    // Long past the cooldown, the next request is the half-open probe.
    // The FPGA is still dead, so the probe fails and re-opens the
    // breaker for another cooldown.
    FleetReply probe = ScoreAt(*service, SimTime::Seconds(10.0));
    EXPECT_EQ(probe.status, RequestStatus::kCompleted);
    EXPECT_TRUE(probe.degraded);
    FleetSnapshot snap = service->Stats();
    EXPECT_EQ(snap.devices[kFpgaIdx].breaker_opens, 2u);
    EXPECT_EQ(snap.devices[kFpgaIdx].breaker, serve::BreakerState::kOpen);
    const std::size_t fpga_faults = snap.devices[kFpgaIdx].faults;

    // Inside the new cooldown, placement skips the dead FPGA: one clean
    // attempt elsewhere, and no new FPGA fault.
    double reopened_s = 0.0;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(
             service->trace_domain())) {
        if (std::string_view(span.name) == "breaker-open") {
            reopened_s = std::max(reopened_s, span.sim_start_s);
        }
    }
    ASSERT_GE(reopened_s, 10.0);
    FleetReply next = ScoreAt(
        *service, SimTime::Seconds(reopened_s) + SimTime::Millis(1.0));
    EXPECT_EQ(next.status, RequestStatus::kCompleted);
    EXPECT_EQ(next.attempts, 1u);
    EXPECT_FALSE(next.degraded);
    EXPECT_NE(next.device, DeviceClass::kFpga);
    EXPECT_EQ(service->Stats().devices[kFpgaIdx].faults, fpga_faults);
    service->Stop();
}

// ------------------------------------------------- DBMS entry points --

TEST(FleetProcedureTest, TenantScoreAndStatsWithReset)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterFleetProcedures(sql, service);

    QueryResult tenant = sql.Execute(
        "EXEC sp_fleet_tenant @tenant = 42, @model = 'm', "
        "@class = 'gold'");
    ASSERT_EQ(tenant.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(tenant.rows[0][2]), "gold");
    EXPECT_THROW(
        sql.Execute("EXEC sp_fleet_tenant @tenant = 43, @model = 'm', "
                    "@class = 'platinum'"),
        InvalidArgument);

    QueryResult score = sql.Execute(
        "EXEC sp_fleet_score @tenant = 42, @rows = 500");
    ASSERT_EQ(score.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(score.rows[0][0]), "completed");
    EXPECT_GT(score.modeled_time.seconds(), 0.0);

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

    // Snapshot-then-reset: the reset call reports the ended phase...
    QueryResult stats = sql.Execute("EXEC sp_fleet_stats @reset = 1");
    EXPECT_EQ(metric(stats, "gold_completed"), 1.0);
    EXPECT_NE(stats.message.find("counters reset"), std::string::npos);
    // ...and the next phase starts from zero (registry state, a
    // current fact rather than history, survives).
    QueryResult fresh = sql.Execute("EXEC sp_fleet_stats");
    EXPECT_EQ(metric(fresh, "gold_completed"), 0.0);
    EXPECT_EQ(metric(fresh, "registry_resident"), 1.0);
    service.Stop();
}

TEST(FleetProcedureTest, StatsReportRegistryBuildWallTime)
{
    const FleetFixture& f = Fixture();
    FleetService service(f.profile, FleetConfig{});
    service.RegisterModel("m", f.ensemble, f.stats);
    service.Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterFleetProcedures(sql, service);
    sql.Execute("EXEC sp_fleet_tenant @tenant = 1, @model = 'm', "
                "@class = 'gold'");
    sql.Execute("EXEC sp_fleet_score @tenant = 1, @rows = 100");

    // One miss: the wall-clock build counter must not read zero.
    double wall_ms = -1.0;
    for (const auto& row : sql.Execute("EXEC sp_fleet_stats").rows) {
        if (std::get<std::string>(row[0]) == "registry_build_wall_ms") {
            wall_ms = std::get<double>(row[1]);
        }
    }
    const FleetSnapshot snap = service.Stats();
    EXPECT_EQ(snap.registry.misses, 1u);
    EXPECT_GT(snap.registry.build_wall_ms_total, 0.0);
    EXPECT_EQ(wall_ms, snap.registry.build_wall_ms_total);
    EXPECT_NE(snap.ToString().find("wall build"), std::string::npos);
    service.Stop();
}

}  // namespace
}  // namespace dbscore::fleet
