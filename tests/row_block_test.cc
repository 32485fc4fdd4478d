/**
 * @file
 * Tests for the zero-copy columnar data plane (data/row_block.h).
 *
 * Three families:
 *  - lifetime: views must outlive the producing RowBlock, Dataset, and
 *    Table, and copy-on-write must keep live views immutable;
 *  - zero-copy accounting: after the one counted Table
 *    materialization, the scoring pipeline, every engine backend, and
 *    the serve path must perform zero feature-row copies (asserted via
 *    the RowBlock::CopyStats hook);
 *  - concurrency: aliased views of one buffer scored from many threads
 *    through the serve coalescer (exercised under TSan in CI).
 */
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/core/backend_factory.h"
#include "dbscore/data/row_block.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"

namespace dbscore {
namespace {

// ----------------------------------------------------- basic semantics --

TEST(RowBlockTest, AdoptsVectorWithoutCounting)
{
    RowBlock::ResetCopyStats();
    RowBlock block(std::vector<float>{1, 2, 3, 4, 5, 6}, 3);
    EXPECT_EQ(block.rows(), 2u);
    EXPECT_EQ(block.cols(), 3u);
    EXPECT_EQ(block.ByteSize(), 24u);
    EXPECT_EQ(RowBlock::CopyStats().copies, 0u);

    RowView v = block.View();
    EXPECT_TRUE(v.contiguous());
    EXPECT_TRUE(v.shared());
    EXPECT_EQ(v.At(1, 2), 6.0f);
    EXPECT_EQ(v.Row(1)[0], 4.0f);
    EXPECT_EQ(v.ByteSize(), block.ByteSize());

    RowView tail = v.Slice(1, 2);
    EXPECT_EQ(tail.rows(), 1u);
    EXPECT_EQ(tail.At(0, 0), 4.0f);

    EXPECT_THROW(RowBlock(std::vector<float>{1, 2, 3}, 2),
                 InvalidArgument);
    EXPECT_THROW(v.Slice(1, 3), InvalidArgument);
}

TEST(RowBlockTest, CopiesAreCountedAndStridedViewsCompact)
{
    const std::vector<float> src{1, 2, 3, 4, 5, 6, 7, 8};
    RowBlock::ResetCopyStats();
    RowBlock copied = RowBlock::Copy(src.data(), 2, 4);
    RowCopyStats stats = RowBlock::CopyStats();
    EXPECT_EQ(stats.copies, 1u);
    EXPECT_EQ(stats.bytes, 32u);

    // A strided view: the first 2 columns of each 4-wide row.
    RowView strided = RowView::Borrow(src.data(), 2, 2, 4);
    EXPECT_FALSE(strided.contiguous());
    EXPECT_EQ(strided.At(1, 1), 6.0f);

    RowBlock compact = strided.Materialize();
    EXPECT_EQ(RowBlock::CopyStats().copies, 2u);
    EXPECT_TRUE(compact.View().contiguous());
    EXPECT_EQ(compact.View().At(1, 0), 5.0f);
    EXPECT_EQ(compact.View().At(1, 1), 6.0f);
}

// ------------------------------------------------------------ lifetime --

TEST(RowBlockTest, ViewOutlivesBlock)
{
    RowView view;
    {
        RowBlock block(std::vector<float>{1, 2, 3, 4}, 2);
        view = block.View();
    }
    // The view's keepalive refcount pins the storage.
    EXPECT_EQ(view.At(1, 1), 4.0f);
}

TEST(RowBlockTest, ViewOutlivesDataset)
{
    RowView view;
    {
        Dataset data("d", Task::kClassification, 2, 2);
        data.AddRow({1.0f, 2.0f}, 0.0f);
        data.AddRow({3.0f, 4.0f}, 1.0f);
        view = data.View();
    }
    EXPECT_EQ(view.rows(), 2u);
    EXPECT_EQ(view.At(1, 0), 3.0f);
}

TEST(RowBlockTest, DatasetMutationDetachesUnderLiveView)
{
    Dataset data("d", Task::kClassification, 2, 2);
    data.AddRow({1.0f, 2.0f}, 0.0f);
    RowView view = data.View();

    // The append must not touch the viewed buffer (copy-on-write), even
    // though the vector would otherwise reallocate in place.
    RowBlock::ResetCopyStats();
    data.AddRow({3.0f, 4.0f}, 1.0f);
    EXPECT_EQ(RowBlock::CopyStats().copies, 1u);  // the counted detach
    EXPECT_EQ(view.rows(), 1u);
    EXPECT_EQ(view.At(0, 0), 1.0f);
    EXPECT_EQ(data.num_rows(), 2u);
    EXPECT_EQ(data.At(1, 1), 4.0f);

    // Without a live view there is nothing to detach from.
    RowBlock::ResetCopyStats();
    view = RowView();
    data.AddRow({5.0f, 6.0f}, 0.0f);
    EXPECT_EQ(RowBlock::CopyStats().copies, 0u);
}

TEST(RowBlockTest, ViewOutlivesTableMaterialization)
{
    RowView view;
    {
        Table t("t", {{"a", ColumnType::kDouble},
                      {"label", ColumnType::kDouble},
                      {"b", ColumnType::kDouble}});
        t.AppendRow({1.0, 9.0, 2.0});
        t.AppendRow({3.0, 9.0, 4.0});
        EXPECT_EQ(t.NumFeatureColumns(), 2u);
        EXPECT_EQ(t.LabelColumnIndex(), 1u);

        RowBlock::ResetCopyStats();
        view = t.MaterializeFeatures().View();
        EXPECT_EQ(RowBlock::CopyStats().copies, 1u);
        // Cache hit: the second call is free.
        t.MaterializeFeatures();
        EXPECT_EQ(RowBlock::CopyStats().copies, 1u);

        // An append invalidates the cache but must not disturb the
        // live view (the old block is dropped, not mutated).
        t.AppendRow({5.0, 9.0, 6.0});
        EXPECT_EQ(t.MaterializeFeatures().rows(), 3u);
    }
    EXPECT_EQ(view.rows(), 2u);  // label column excluded, old snapshot
    EXPECT_EQ(view.At(0, 1), 2.0f);
    EXPECT_EQ(view.At(1, 0), 3.0f);
}

// --------------------------------------------- end-to-end zero copies --

struct PlaneFixture {
    Database db;
    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    Dataset data;
    RandomForest forest;

    PlaneFixture() : data(MakeHiggs(500, 70))
    {
        ForestTrainerConfig config;
        config.num_trees = 8;
        config.max_depth = 8;
        config.seed = 70;
        forest = TrainForest(data, config);
        db.StoreDataset("scoring_data", data);
        db.StoreModel("model_rf", TreeEnsemble::FromForest(forest));
    }
};

TEST(RowBlockTest, PipelineScoresWithZeroFeatureCopies)
{
    PlaneFixture f;
    ScoringPipeline pipeline(f.db, f.profile, f.rt_params);

    // First run pays the one counted Table materialization.
    PipelineRunResult first = pipeline.RunScoringQuery(
        "model_rf", "scoring_data", BackendKind::kCpuSklearn);
    EXPECT_EQ(first.predictions, f.forest.PredictBatch(f.data));

    // After it, the whole query path — marshal, probe, engine — moves
    // feature rows only by view.
    RowBlock::ResetCopyStats();
    PipelineRunResult second = pipeline.RunScoringQuery(
        "model_rf", "scoring_data", BackendKind::kCpuSklearn);
    RowCopyStats stats = RowBlock::CopyStats();
    EXPECT_EQ(stats.copies, 0u) << "feature rows were copied";
    EXPECT_EQ(stats.bytes, 0u);
    EXPECT_EQ(second.predictions, first.predictions);
}

TEST(RowBlockTest, AllEnginesBitIdenticalOnViewsWithoutCopies)
{
    PlaneFixture f;
    TreeEnsemble ensemble = TreeEnsemble::FromForest(f.forest);
    ModelStats stats = ComputeModelStats(f.forest, &f.data);

    const RowView view = f.data.View();
    // Owning baseline buffer: a separate deep copy of the same rows.
    const std::vector<float> owned(view.data(),
                                   view.data() + view.rows() * view.cols());

    const BackendKind backends[] = {
        BackendKind::kCpuSklearn,   BackendKind::kCpuOnnx,
        BackendKind::kGpuHummingbird, BackendKind::kGpuRapids,
        BackendKind::kFpga,
    };
    for (BackendKind kind : backends) {
        auto engine = CreateLoadedEngine(kind, f.profile, ensemble, stats);
        ASSERT_NE(engine, nullptr) << BackendName(kind);

        RowBlock::ResetCopyStats();
        ScoreResult from_view = engine->Score(view);
        EXPECT_EQ(RowBlock::CopyStats().copies, 0u) << BackendName(kind);

        ScoreResult from_owned = engine->Score(
            owned.data(), f.data.num_rows(), f.data.num_features());
        EXPECT_EQ(from_view.predictions, from_owned.predictions)
            << BackendName(kind);
        EXPECT_EQ(from_view.predictions,
                  f.forest.PredictBatch(f.data))
            << BackendName(kind);
    }
}

// --------------------------------------------- threaded aliased views --

TEST(RowBlockTest, AliasedViewsScoreConcurrentlyThroughService)
{
    using namespace dbscore::serve;

    Dataset data = MakeHiggs(2048, 90);
    ForestTrainerConfig config;
    config.num_trees = 16;
    config.max_depth = 8;
    config.seed = 90;
    RandomForest forest = TrainForest(data, config);
    TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    ModelStats stats = ComputeModelStats(forest, &data);

    HardwareProfile profile = HardwareProfile::Paper();
    ServiceConfig service_config;
    service_config.coalescer.window = SimTime::Millis(2.0);
    ScoringService service(profile, service_config);
    service.RegisterModel("m", ensemble, stats);
    service.Start();

    // 8 client threads submit overlapping slices of one shared buffer:
    // every view aliases its neighbors' rows. The coalescer batches
    // them; the kernel traverses each view in place, concurrently.
    constexpr std::size_t kThreads = 8;
    constexpr std::size_t kPerThread = 4;
    const std::size_t rows_per_req = 512;
    std::vector<std::vector<PendingScorePtr>> handles(kThreads);
    RowBlock::ResetCopyStats();
    {
        std::vector<std::thread> clients;
        clients.reserve(kThreads);
        for (std::size_t t = 0; t < kThreads; ++t) {
            clients.emplace_back([&, t] {
                for (std::size_t i = 0; i < kPerThread; ++i) {
                    const std::size_t begin =
                        ((t * kPerThread + i) * 97) %
                        (data.num_rows() - rows_per_req);
                    ScoreRequest r;
                    r.model_id = "m";
                    r.num_rows = rows_per_req;
                    r.rows = data.View(begin, begin + rows_per_req);
                    handles[t].push_back(service.Submit(std::move(r)));
                }
            });
        }
        for (auto& c : clients) {
            c.join();
        }
    }
    service.Drain();

    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kPerThread; ++i) {
            const ScoreReply& reply = handles[t][i]->Wait();
            ASSERT_EQ(reply.status, RequestStatus::kCompleted);
            const std::size_t begin =
                ((t * kPerThread + i) * 97) %
                (data.num_rows() - rows_per_req);
            EXPECT_EQ(reply.predictions,
                      forest.PredictBatch(
                          data.View(begin, begin + rows_per_req)));
        }
    }
    // The whole concurrent exchange moved rows by view only.
    EXPECT_EQ(RowBlock::CopyStats().copies, 0u);
    service.Stop();
}

}  // namespace
}  // namespace dbscore
