/**
 * @file
 * Tests for dbscore::trace: the SPSC span ring, the log-bucketed
 * histogram, ScopedSpan nesting and cross-thread parenting, concurrent
 * emit+drain (the TSan target), Chrome trace_event export, and the
 * end-to-end guarantees — a scored query's trace must sum to exactly
 * the pipeline's reported breakdown, and the serving path must export
 * admission/coalesce/queue/kernel spans with resolvable parents.
 *
 * The collector is a process-wide singleton shared with every other
 * suite in this binary, so each test Clear()s it up front and restores
 * any global knob (enabled flag, ring capacity) it touches.
 */
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/trace/exporters.h"
#include "dbscore/trace/histogram.h"
#include "dbscore/trace/trace.h"

namespace dbscore::trace {
namespace {

TraceCollector&
Tracer()
{
    return TraceCollector::Get();
}

/** Finds the retained record with @p id; fails the test when absent. */
const SpanRecord*
FindSpan(const std::vector<SpanRecord>& spans, std::uint64_t id)
{
    for (const SpanRecord& r : spans) {
        if (r.span_id == id) return &r;
    }
    return nullptr;
}

// ------------------------------------------------------------- ring --

TEST(TraceRingTest, FifoOrderAndCapacity)
{
    SpanRing ring(3);  // rounds up to 4
    EXPECT_EQ(ring.capacity(), 4u);
    for (std::uint64_t i = 1; i <= 4; ++i) {
        SpanRecord r;
        r.span_id = i;
        EXPECT_TRUE(ring.TryPush(r));
    }
    SpanRecord overflow;
    overflow.span_id = 99;
    EXPECT_FALSE(ring.TryPush(overflow));
    EXPECT_EQ(ring.dropped(), 1u);

    std::vector<SpanRecord> out;
    EXPECT_EQ(ring.DrainInto(out), 4u);
    ASSERT_EQ(out.size(), 4u);
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(out[i].span_id, i + 1);  // FIFO
    }
    // Drained slots are reusable.
    EXPECT_TRUE(ring.TryPush(overflow));
    ring.ResetDropped();
    EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRingTest, OverflowCountsEveryLostRecord)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    tracer.SetRingCapacity(8);
    const SpanContext root = tracer.NewRootContext(tracer.NewDomain());
    // A brand-new thread gets a fresh ring at the reduced capacity;
    // without a drain in between, everything past 8 must be dropped
    // and counted, never blocked on.
    std::thread producer([&] {
        for (int i = 0; i < 100; ++i) {
            tracer.EmitSim(StageKind::kScoring, "flood", root,
                           SimTime::Micros(i), SimTime::Micros(1));
        }
    });
    producer.join();
    EXPECT_EQ(tracer.TotalDropped(), 92u);
    const auto spans = tracer.SpansForDomain(root.domain);
    EXPECT_EQ(spans.size(), 8u);
    TraceSummary summary = tracer.SummaryForDomain(root.domain);
    EXPECT_EQ(summary.spans_dropped, 92u);
    tracer.SetRingCapacity(2048);
    tracer.Clear();
    EXPECT_EQ(tracer.TotalDropped(), 0u);
}

TEST(TraceTest, ExitedThreadsRingsAreDrainedThenReleased)
{
    // 64 short-lived threads each emit into a fresh ring and exit, the
    // first one past its ring's capacity. The next drain must record
    // every span that fit, keep the overflow's drop count, and release
    // the exited threads' rings.
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    const std::size_t baseline = tracer.RingCount();
    constexpr std::size_t kCapacity = 32;
    constexpr std::size_t kThreads = 64;
    constexpr std::size_t kSpans = 20;
    constexpr std::size_t kFlood = 50;
    tracer.SetRingCapacity(kCapacity);
    const SpanContext root = tracer.NewRootContext(tracer.NewDomain());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t i = 0; i < (t == 0 ? kFlood : kSpans); ++i) {
                tracer.EmitSim(StageKind::kScoring, "short-lived", root,
                               SimTime::Micros(static_cast<double>(i)),
                               SimTime::Micros(1));
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(tracer.SpansForDomain(root.domain).size(),
              (kThreads - 1) * kSpans + kCapacity);
    EXPECT_EQ(tracer.RingCount(), baseline);
    EXPECT_EQ(tracer.TotalDropped(), kFlood - kCapacity);
    EXPECT_EQ(tracer.SummaryForDomain(root.domain).spans_dropped,
              kFlood - kCapacity);
    tracer.SetRingCapacity(2048);
    tracer.Clear();
    EXPECT_EQ(tracer.TotalDropped(), 0u);
}

// -------------------------------------------------------- histogram --

TEST(TraceHistogramTest, QuantilesTrackSortedReference)
{
    Histogram hist;
    std::vector<double> values;
    std::uint64_t lcg = 12345;
    for (int i = 0; i < 5000; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        // Skewed latency-like distribution spanning ~4 decades.
        const double u = static_cast<double>(lcg >> 11) / 9007199254740992.0;
        const double v = 0.5 * std::pow(10.0, 4.0 * u);
        values.push_back(v);
        hist.Add(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.95, 0.99}) {
        const std::size_t idx = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size()))) - 1;
        const double reference = values[idx];
        // Geometric buckets (ratio 1.04) plus midpoint interpolation
        // bound the relative error well under 6%.
        EXPECT_NEAR(hist.Quantile(q), reference, 0.06 * reference)
            << "q=" << q;
    }
    EXPECT_EQ(hist.count(), values.size());
    EXPECT_DOUBLE_EQ(hist.min(), values.front());
    EXPECT_DOUBLE_EQ(hist.max(), values.back());
    EXPECT_LE(hist.Quantile(0.0), hist.Quantile(1.0));
    EXPECT_DOUBLE_EQ(hist.Quantile(1.0), values.back());
}

TEST(TraceHistogramTest, MergeAndEdgeCases)
{
    Histogram empty;
    EXPECT_EQ(empty.Quantile(0.5), 0.0);
    EXPECT_EQ(empty.count(), 0u);

    Histogram a;
    Histogram b;
    a.Add(10.0);
    a.Add(-3.0);  // clamped to 0
    b.Add(1000.0);
    a.Merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 1000.0);
    EXPECT_DOUBLE_EQ(a.total(), 1010.0);
}

// ---------------------------------------------------------- parenting --

TEST(TraceTest, ScopedSpanNestsImplicitly)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    SpanContext outer_ctx;
    SpanContext inner_ctx;
    SpanContext stage_ctx;
    {
        ScopedSpan outer(StageKind::kQuery, "outer");
        outer_ctx = outer.context();
        EXPECT_EQ(TraceCollector::Current().span_id, outer_ctx.span_id);
        {
            ScopedSpan inner(StageKind::kBatch, "inner");
            inner_ctx = inner.context();
            SimClock::Set(SimTime());
            stage_ctx = tracer.EmitStage(StageKind::kScoring, "stage",
                                         SimTime::Millis(2.0));
            EXPECT_DOUBLE_EQ(SimClock::Now().millis(), 2.0);
        }
        EXPECT_EQ(TraceCollector::Current().span_id, outer_ctx.span_id);
    }
    EXPECT_FALSE(TraceCollector::Current().valid());

    const auto spans = tracer.Spans();
    const SpanRecord* outer_rec = FindSpan(spans, outer_ctx.span_id);
    const SpanRecord* inner_rec = FindSpan(spans, inner_ctx.span_id);
    const SpanRecord* stage_rec = FindSpan(spans, stage_ctx.span_id);
    ASSERT_NE(outer_rec, nullptr);
    ASSERT_NE(inner_rec, nullptr);
    ASSERT_NE(stage_rec, nullptr);
    EXPECT_EQ(outer_rec->parent_id, 0u);
    EXPECT_EQ(inner_rec->parent_id, outer_ctx.span_id);
    EXPECT_EQ(stage_rec->parent_id, inner_ctx.span_id);
    EXPECT_EQ(inner_rec->trace_id, outer_ctx.trace_id);
    EXPECT_EQ(stage_rec->trace_id, outer_ctx.trace_id);
    EXPECT_TRUE(outer_rec->has_wall());
    EXPECT_TRUE(stage_rec->has_sim());
    EXPECT_DOUBLE_EQ(stage_rec->sim_dur_s, 2e-3);
    tracer.Clear();
}

TEST(TraceTest, ExplicitParentCrossesThreads)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    SpanContext root_ctx;
    SpanContext child_ctx;
    SpanContext grandchild_ctx;
    {
        ScopedSpan root(StageKind::kQuery, "root");
        root_ctx = root.context();
        std::thread worker([&] {
            // The worker thread has no implicit Current(); parenting
            // must come from the context captured on the submitter.
            EXPECT_FALSE(TraceCollector::Current().valid());
            ScopedSpan child(StageKind::kBatch, "hop", root_ctx);
            child_ctx = child.context();
            grandchild_ctx =
                tracer.EmitSim(StageKind::kScoring, "work", child.context(),
                               SimTime(), SimTime::Micros(5.0));
        });
        worker.join();
    }
    const auto spans = tracer.Spans();
    const SpanRecord* root_rec = FindSpan(spans, root_ctx.span_id);
    const SpanRecord* child_rec = FindSpan(spans, child_ctx.span_id);
    const SpanRecord* grand_rec = FindSpan(spans, grandchild_ctx.span_id);
    ASSERT_NE(root_rec, nullptr);
    ASSERT_NE(child_rec, nullptr);
    ASSERT_NE(grand_rec, nullptr);
    EXPECT_EQ(child_rec->parent_id, root_ctx.span_id);
    EXPECT_EQ(child_rec->trace_id, root_ctx.trace_id);
    EXPECT_EQ(grand_rec->parent_id, child_ctx.span_id);
    EXPECT_NE(child_rec->thread_id, root_rec->thread_id);
    tracer.Clear();
}

TEST(TraceTest, DisabledCollectorEmitsNothing)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    tracer.SetEnabled(false);
    {
        ScopedSpan span(StageKind::kQuery, "ghost");
        EXPECT_FALSE(span.context().valid());
        tracer.EmitStage(StageKind::kScoring, "ghost-stage",
                         SimTime::Millis(1.0));
    }
    EXPECT_TRUE(tracer.Spans().empty());
    tracer.SetEnabled(true);
    {
        ScopedSpan span(StageKind::kQuery, "live");
        EXPECT_TRUE(span.context().valid());
    }
    EXPECT_EQ(tracer.Spans().size(), 1u);
    tracer.Clear();
}

// ------------------------------------------------- concurrent drain --

TEST(TraceTest, ConcurrentEmitAndDrainLosesNothing)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    const std::uint32_t domain = tracer.NewDomain();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::atomic<bool> done{false};
    std::thread drainer([&] {
        while (!done.load(std::memory_order_acquire)) {
            tracer.Drain();
        }
    });
    std::vector<std::thread> producers;
    for (int t = 0; t < kThreads; ++t) {
        producers.emplace_back([&, t] {
            const SpanContext root = tracer.NewRootContext(domain);
            for (int i = 0; i < kPerThread; ++i) {
                tracer.EmitSim(StageKind::kScoring, "emit", root,
                               SimTime::Micros(i), SimTime::Micros(1.0),
                               {{"producer", static_cast<double>(t)}});
            }
        });
    }
    for (auto& t : producers) t.join();
    done.store(true, std::memory_order_release);
    drainer.join();

    // Rings are 2048 deep and the drainer spins, so nothing overflows:
    // every span must surface exactly once.
    const auto spans = tracer.SpansForDomain(domain);
    EXPECT_EQ(tracer.TotalDropped(), 0u);
    EXPECT_EQ(spans.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    TraceSummary summary = tracer.SummaryForDomain(domain);
    ASSERT_EQ(summary.stages.size(), 1u);
    EXPECT_EQ(summary.stages[0].count,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_NEAR(summary.stages[0].sim_total.seconds(),
                kThreads * kPerThread * 1e-6, 1e-9);
    tracer.Clear();
}

// ------------------------------------------------------ JSON export --

/**
 * Minimal recursive-descent JSON validator — enough to prove the
 * exporter emits a single well-formed document (no trailing commas,
 * balanced braces, escaped strings) without a JSON library.
 */
struct JsonParser {
    const std::string& text;
    std::size_t pos = 0;

    void Ws()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r')) {
            ++pos;
        }
    }
    bool Eat(char c)
    {
        Ws();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool String()
    {
        if (!Eat('"')) return false;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') ++pos;
            ++pos;
        }
        return Eat('"');
    }
    bool Number()
    {
        Ws();
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
        }
        return pos > start;
    }
    bool Literal(const char* word)
    {
        Ws();
        const std::size_t len = std::strlen(word);
        if (text.compare(pos, len, word) != 0) return false;
        pos += len;
        return true;
    }
    bool Value()
    {
        Ws();
        if (pos >= text.size()) return false;
        switch (text[pos]) {
        case '{': return Object();
        case '[': return Array();
        case '"': return String();
        case 't': return Literal("true");
        case 'f': return Literal("false");
        case 'n': return Literal("null");
        default: return Number();
        }
    }
    bool Object()
    {
        if (!Eat('{')) return false;
        if (Eat('}')) return true;
        do {
            if (!String() || !Eat(':') || !Value()) return false;
        } while (Eat(','));
        return Eat('}');
    }
    bool Array()
    {
        if (!Eat('[')) return false;
        if (Eat(']')) return true;
        do {
            if (!Value()) return false;
        } while (Eat(','));
        return Eat(']');
    }
    bool Document()
    {
        if (!Value()) return false;
        Ws();
        return pos == text.size();
    }
};

TEST(TraceExportTest, ChromeJsonIsWellFormed)
{
    std::vector<SpanRecord> spans;
    SpanRecord dual;
    dual.trace_id = 7;
    dual.span_id = 8;
    dual.parent_id = 0;
    dual.name = "we\"ird\\name\n";
    dual.stage = StageKind::kScoring;
    dual.thread_id = 3;
    dual.wall_start_us = 0.0;
    dual.wall_dur_us = 12.5;
    dual.sim_start_s = 0.0;
    dual.sim_dur_s = 1e-3;
    dual.AddAttr("rows", 64.0);
    spans.push_back(dual);
    SpanRecord sim_only;
    sim_only.trace_id = 7;
    sim_only.span_id = 9;
    sim_only.parent_id = 8;
    sim_only.name = "child";
    sim_only.stage = StageKind::kQueueWait;
    sim_only.sim_start_s = 1e-3;
    sim_only.sim_dur_s = 2e-3;
    spans.push_back(sim_only);

    std::ostringstream out;
    WriteChromeTrace(out, spans, /*dropped=*/5);
    const std::string json = out.str();
    JsonParser parser{json};
    EXPECT_TRUE(parser.Document()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // The dual-clock span renders once per clock, same span_id.
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"queue-wait\""), std::string::npos);
    EXPECT_NE(json.find("\"rows\":64"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\": 5"), std::string::npos);
    EXPECT_NE(json.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

TEST(TraceExportTest, StageTableListsEveryRecordedStage)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    const SpanContext root = tracer.NewRootContext(tracer.NewDomain());
    tracer.EmitSim(StageKind::kInvocation, "inv", root, SimTime(),
                   SimTime::Millis(3.0));
    tracer.EmitSim(StageKind::kScoring, "sc", root, SimTime::Millis(3.0),
                   SimTime::Millis(4.0));
    std::ostringstream out;
    PrintStageTable(out, tracer.SummaryForDomain(root.domain));
    const std::string table = out.str();
    EXPECT_NE(table.find("invocation"), std::string::npos);
    EXPECT_NE(table.find("Fig 11 invocation"), std::string::npos);
    EXPECT_NE(table.find("scoring"), std::string::npos);
    EXPECT_NE(table.find("spans recorded: 2"), std::string::npos);
    EXPECT_NE(table.find("wall total"), std::string::npos);
    std::ostringstream sim_only;
    PrintStageTable(sim_only, tracer.SummaryForDomain(root.domain),
                    /*wall_total=*/false);
    EXPECT_EQ(sim_only.str().find("wall total"), std::string::npos);
    EXPECT_NE(sim_only.str().find("Fig 11 invocation"), std::string::npos);
    tracer.Clear();
}

// ----------------------------------------------- pipeline integration --

struct QueryFixture {
    Database db;
    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline{db, profile, rt_params};
    QueryEngine engine{db, pipeline};

    QueryFixture()
    {
        Dataset data = MakeIris(200, 17);
        ForestTrainerConfig config;
        config.num_trees = 8;
        config.max_depth = 8;
        config.seed = 17;
        RandomForest forest = TrainForest(data, config);
        db.StoreDataset("scoring_data", data);
        db.StoreModel("model_rf", TreeEnsemble::FromForest(forest));
    }
};

TEST(TraceQueryTest, ScoreModelTraceMatchesReportedBreakdown)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    QueryFixture f;
    QueryResult result = f.engine.Execute(
        "EXEC sp_score_model @model = 'model_rf', "
        "@data = 'scoring_data', @backend = 'CPU'");
    ASSERT_TRUE(result.pipeline_stages.has_value());
    const PipelineStageTimes& reported = *result.pipeline_stages;

    const auto totals = tracer.StageSimTotals(0);
    auto of = [&totals](StageKind stage) {
        return totals[static_cast<int>(stage)].seconds();
    };
    EXPECT_NEAR(of(StageKind::kInvocation),
                reported.python_invocation.seconds(), 1e-9);
    EXPECT_NEAR(of(StageKind::kMarshal), reported.data_transfer.seconds(),
                1e-9);
    EXPECT_NEAR(of(StageKind::kModelPreproc),
                reported.model_preprocessing.seconds(), 1e-9);
    EXPECT_NEAR(of(StageKind::kDataPreproc),
                reported.data_preprocessing.seconds(), 1e-9);
    const double scoring =
        of(StageKind::kAccelPreproc) + of(StageKind::kTransferIn) +
        of(StageKind::kAccelSetup) + of(StageKind::kScoring) +
        of(StageKind::kCompletionSignal) + of(StageKind::kTransferOut) +
        of(StageKind::kSoftwareOverhead);
    EXPECT_NEAR(scoring, reported.scoring.Total().seconds(), 1e-9);

    // The root query span covers the whole modeled breakdown.
    const auto spans = tracer.Spans();
    const SpanRecord* root = nullptr;
    for (const SpanRecord& r : spans) {
        if (r.stage == StageKind::kQuery) root = &r;
    }
    ASSERT_NE(root, nullptr);
    EXPECT_NEAR(root->sim_dur_s, reported.Total().seconds(), 1e-9);
    tracer.Clear();
}

TEST(TraceQueryTest, SpTraceDumpReportsAndClears)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    QueryFixture f;
    f.engine.Execute(
        "EXEC sp_score_model @model = 'model_rf', "
        "@data = 'scoring_data', @backend = 'FPGA'");
    QueryResult dump = f.engine.Execute("EXEC sp_trace_dump");
    ASSERT_GE(dump.rows.size(), 5u);  // invocation, marshal, preprocs...
    ASSERT_EQ(dump.columns.size(), 8u);
    EXPECT_EQ(dump.columns[0], "stage");
    EXPECT_NE(dump.message.find("span(s) recorded"), std::string::npos);
    bool saw_scoring = false;
    for (const auto& row : dump.rows) {
        if (std::get<std::string>(row[0]) == "scoring") saw_scoring = true;
    }
    EXPECT_TRUE(saw_scoring);

    QueryResult cleared =
        f.engine.Execute("EXEC sp_trace_dump @clear = 1");
    EXPECT_FALSE(cleared.rows.empty());
    EXPECT_TRUE(tracer.Spans().empty());
    EXPECT_TRUE(f.engine.Execute("EXEC sp_trace_dump").rows.empty());
    tracer.Clear();
}

// -------------------------------------------------- serve integration --

TEST(TraceServeTest, ServiceExportsFullServePath)
{
    TraceCollector& tracer = Tracer();
    tracer.Clear();
    Dataset data = MakeHiggs(1500, 90);
    ForestTrainerConfig config;
    config.num_trees = 16;
    config.max_depth = 8;
    config.seed = 90;
    RandomForest forest = TrainForest(data, config);

    serve::ServiceConfig service_config;
    service_config.coalescer.window = SimTime::Millis(1.0);
    serve::ScoringService service(HardwareProfile::Paper(),
                                  service_config);
    service.RegisterModel("m", TreeEnsemble::FromForest(forest),
                          ComputeModelStats(forest, &data));
    service.Start();
    for (int i = 0; i < 4; ++i) {
        serve::ScoreRequest request;
        request.model_id = "m";
        request.num_rows = 32;
        request.rows = data.View(i * 32, (i + 1) * 32);
        request.arrival = SimTime::Micros(10.0 * i);
        serve::ScoreReply reply = service.ScoreSync(std::move(request));
        EXPECT_EQ(reply.status, serve::RequestStatus::kCompleted);
        EXPECT_EQ(reply.predictions.size(), 32u);
    }
    service.Stop();

    // Snapshot stage totals come from the same spans we export below.
    serve::ServiceSnapshot snap = service.Stats();
    EXPECT_GT(snap.stage_totals.invocation.seconds(), 0.0);
    EXPECT_GT(snap.stage_totals.scoring.seconds(), 0.0);

    std::ostringstream out;
    service.ExportTrace(out);
    const std::string json = out.str();
    JsonParser parser{json};
    EXPECT_TRUE(parser.Document());
    for (const char* cat :
         {"\"cat\":\"query\"", "\"cat\":\"admission\"",
          "\"cat\":\"coalesce\"", "\"cat\":\"queue-wait\"",
          "\"cat\":\"batch\"", "\"cat\":\"kernel\"", "\"cat\":\"reply\""}) {
        EXPECT_NE(json.find(cat), std::string::npos) << cat;
    }

    // Every parent link in the export resolves to an exported span.
    const auto spans =
        tracer.SpansForDomain(service.trace_domain());
    ASSERT_FALSE(spans.empty());
    for (const SpanRecord& r : spans) {
        if (r.parent_id == 0) continue;
        EXPECT_NE(FindSpan(spans, r.parent_id), nullptr)
            << "dangling parent " << r.parent_id << " of span "
            << r.span_id << " (" << r.name << ")";
    }
    tracer.Clear();
}

}  // namespace
}  // namespace dbscore::trace
