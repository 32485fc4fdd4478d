/**
 * @file
 * Tests for the scoring engines and their device simulators: functional
 * equivalence with the reference forest, breakdown consistency, capacity
 * rules, and the cost models' qualitative behaviours.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/engines/cpu/cpu_engines.h"
#include "dbscore/engines/fpga/fpga_engine.h"
#include "dbscore/engines/gpu/hummingbird_engine.h"
#include "dbscore/engines/gpu/rapids_engine.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/fpgasim/inference_engine.h"
#include "dbscore/fpgasim/tree_layout.h"
#include "dbscore/gpusim/gpu_device.h"

namespace dbscore {
namespace {

struct ModelFixture {
    Dataset data;
    RandomForest forest;
    TreeEnsemble ensemble;
    ModelStats stats;
    std::vector<float> reference;
};

ModelFixture
MakeFixture(const Dataset& data, std::size_t trees, std::size_t depth,
            std::uint64_t seed = 7)
{
    ModelFixture f{data, {}, {}, {}, {}};
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = seed;
    f.forest = TrainForest(f.data, config);
    f.ensemble = TreeEnsemble::FromForest(f.forest);
    f.stats = ComputeModelStats(f.forest, &f.data);
    f.reference = f.forest.PredictBatch(f.data);
    return f;
}

GpuDeviceModel
MakeGpu()
{
    return GpuDeviceModel(GpuSpec{}, PcieLinkSpec{});
}

// ---------------------------------------------------------------- CPU --

TEST(CpuSpecTest, ThreadEfficiencyIsSublinear)
{
    EXPECT_DOUBLE_EQ(ThreadEfficiency(1, 0.78), 1.0);
    double e52 = ThreadEfficiency(52, 0.78);
    EXPECT_GT(e52, 10.0);
    EXPECT_LT(e52, 52.0);
    EXPECT_THROW(ThreadEfficiency(0, 0.78), InvalidArgument);
}

TEST(CpuSpecTest, LlcMissFractionShape)
{
    EXPECT_DOUBLE_EQ(LlcMissFraction(0.0, 1e6, 0.9), 0.0);
    EXPECT_NEAR(LlcMissFraction(1e6, 1e6, 0.9), 0.45, 1e-9);
    EXPECT_NEAR(LlcMissFraction(1e12, 1e6, 0.9), 0.9, 1e-3);
    // Monotone in working set.
    EXPECT_LT(LlcMissFraction(1e5, 1e6, 0.9),
              LlcMissFraction(1e7, 1e6, 0.9));
}

TEST(CpuEngineTest, PredictionsMatchReference)
{
    auto f = MakeFixture(MakeIris(300, 21), 9, 8);
    for (int threads : {1, 8, 52}) {
        SklearnCpuEngine sk(CpuSpec{}, threads);
        sk.LoadModel(f.ensemble, f.stats);
        EXPECT_EQ(sk.Score(f.data.values().data(), f.data.num_rows(),
                           f.data.num_features())
                      .predictions,
                  f.reference);
    }
    OnnxCpuEngine onnx(CpuSpec{}, 1);
    onnx.LoadModel(f.ensemble, f.stats);
    EXPECT_EQ(onnx.Score(f.data.values().data(), f.data.num_rows(),
                         f.data.num_features())
                  .predictions,
              f.reference);
}

TEST(CpuEngineTest, KindsAndGuards)
{
    SklearnCpuEngine sk(CpuSpec{}, 52);
    EXPECT_EQ(sk.kind(), BackendKind::kCpuSklearn);
    EXPECT_EQ(sk.Name(), "CPU_SKLearn");
    OnnxCpuEngine onnx1(CpuSpec{}, 1);
    EXPECT_EQ(onnx1.kind(), BackendKind::kCpuOnnx);
    OnnxCpuEngine onnx52(CpuSpec{}, 52);
    EXPECT_EQ(onnx52.kind(), BackendKind::kCpuOnnxMt);
    EXPECT_EQ(onnx52.Name(), "CPU_ONNX_52th");

    EXPECT_THROW(SklearnCpuEngine(CpuSpec{}, 100), InvalidArgument);
    EXPECT_THROW(sk.Estimate(10), InvalidArgument);  // no model loaded
    float row = 0.0f;
    EXPECT_THROW(sk.Score(&row, 1, 1), InvalidArgument);
}

TEST(CpuEngineTest, EstimateMatchesScoreBreakdown)
{
    auto f = MakeFixture(MakeHiggs(400, 22), 6, 6);
    SklearnCpuEngine sk(CpuSpec{}, 52);
    sk.LoadModel(f.ensemble, f.stats);
    auto score = sk.Score(f.data.values().data(), f.data.num_rows(),
                          f.data.num_features());
    EXPECT_DOUBLE_EQ(score.breakdown.Total().seconds(),
                     sk.Estimate(f.data.num_rows()).Total().seconds());
}

TEST(CpuEngineTest, OnnxVsSklearnCrossover)
{
    // Paper Section IV-C2: for a 1-tree model ONNX (1 thread) wins below
    // ~5K records, sklearn (52 threads) wins above.
    auto f = MakeFixture(MakeIris(2000, 23), 1, 10);
    SklearnCpuEngine sk(CpuSpec{}, 52);
    OnnxCpuEngine onnx(CpuSpec{}, 1);
    sk.LoadModel(f.ensemble, f.stats);
    onnx.LoadModel(f.ensemble, f.stats);

    EXPECT_LT(onnx.Estimate(100).Total(), sk.Estimate(100).Total());
    EXPECT_LT(onnx.Estimate(1000).Total(), sk.Estimate(1000).Total());
    EXPECT_LT(sk.Estimate(1000000).Total(),
              onnx.Estimate(1000000).Total());
    EXPECT_LT(sk.Estimate(100000).Total(), onnx.Estimate(100000).Total());
}

TEST(CpuEngineTest, MoreThreadsNeverSlower)
{
    auto f = MakeFixture(MakeHiggs(1000, 24), 16, 10);
    OnnxCpuEngine t1(CpuSpec{}, 1);
    OnnxCpuEngine t8(CpuSpec{}, 8);
    OnnxCpuEngine t52(CpuSpec{}, 52);
    for (auto* e :
         std::initializer_list<CpuEngineBase*>{&t1, &t8, &t52}) {
        e->LoadModel(f.ensemble, f.stats);
    }
    SimTime a = t1.Estimate(100000).Total();
    SimTime b = t8.Estimate(100000).Total();
    SimTime c = t52.Estimate(100000).Total();
    EXPECT_GT(a, b);
    EXPECT_GT(b, c);
}

// ---------------------------------------------------------------- GPU --

TEST(GpuDeviceTest, RooflineSelectsBindingResource)
{
    GpuDeviceModel gpu = MakeGpu();
    // Compute-bound: lots of flops, no bytes.
    SimTime compute = gpu.KernelTime(1e12, 1e3, 0.5, 0.8);
    EXPECT_NEAR(compute.seconds(), 1e12 / (gpu.spec().PeakFlops() * 0.5),
                1e-6);
    // Memory-bound: no flops, lots of bytes.
    SimTime memory = gpu.KernelTime(1e3, 55e9, 0.5, 1.0);
    EXPECT_NEAR(memory.seconds(),
                55e9 / gpu.spec().dram_bytes_per_second, 1e-4);
}

TEST(GpuDeviceTest, L2MissGrowsWithWorkingSet)
{
    GpuDeviceModel gpu = MakeGpu();
    EXPECT_LT(gpu.L2MissFraction(1e5), gpu.L2MissFraction(1e8));
    EXPECT_DOUBLE_EQ(gpu.L2MissFraction(0.0), 0.0);
    EXPECT_LT(gpu.L2MissFraction(1e12), 0.91);
}

TEST(GpuDeviceTest, GatherUtilizationGrowsWithWidth)
{
    GpuDeviceModel gpu = MakeGpu();
    EXPECT_LT(gpu.GatherUtilization(1), gpu.GatherUtilization(128));
    EXPECT_LT(gpu.GatherUtilization(128), 1.0);
}

TEST(GpuDeviceTest, DivergenceSlowsDeepTraversals)
{
    GpuDeviceModel gpu = MakeGpu();
    SimTime shallow = gpu.TraversalKernelTime(1e9, 2.0, 1e5);
    SimTime deep = gpu.TraversalKernelTime(1e9, 10.0, 1e5);
    EXPECT_GT(deep, shallow);
}

TEST(RapidsEngineTest, PredictionsMatchReference)
{
    auto f = MakeFixture(MakeHiggs(500, 25), 8, 8);
    RapidsFilEngine engine(MakeGpu(), RapidsParams{});
    engine.LoadModel(f.ensemble, f.stats);
    EXPECT_EQ(engine
                  .Score(f.data.values().data(), f.data.num_rows(),
                         f.data.num_features())
                  .predictions,
              f.reference);
}

TEST(RapidsEngineTest, RejectsMultiClassModels)
{
    // Like the paper: no RAPIDS series for IRIS (3 classes).
    auto f = MakeFixture(MakeIris(300, 26), 4, 6);
    RapidsFilEngine engine(MakeGpu(), RapidsParams{});
    EXPECT_THROW(engine.LoadModel(f.ensemble, f.stats), CapacityError);
}

TEST(RapidsEngineTest, PreprocessingDominatesSmallBatches)
{
    auto f = MakeFixture(MakeHiggs(500, 27), 8, 8);
    RapidsFilEngine engine(MakeGpu(), RapidsParams{});
    engine.LoadModel(f.ensemble, f.stats);
    OffloadBreakdown b = engine.Estimate(1);
    // "takes about 120 ms for our input size": fixed conversion cost.
    EXPECT_GT(b.preprocessing.millis(), 50.0);
    EXPECT_GT(b.preprocessing, b.compute);
    EXPECT_GT(b.preprocessing, b.TransferL());
}

TEST(HummingbirdTest, GemmStrategyMatchesReference)
{
    auto f = MakeFixture(MakeIris(400, 28), 6, 6);
    HummingbirdParams params;
    params.strategy = HbStrategy::kGemm;
    HummingbirdGpuEngine engine(MakeGpu(), params);
    engine.LoadModel(f.ensemble, f.stats);
    EXPECT_EQ(engine.ChosenStrategy(), HbStrategy::kGemm);
    EXPECT_EQ(engine
                  .Score(f.data.values().data(), f.data.num_rows(),
                         f.data.num_features())
                  .predictions,
              f.reference);
}

TEST(HummingbirdTest, PerfectTraversalMatchesReference)
{
    auto f = MakeFixture(MakeHiggs(600, 29), 7, 9);
    HummingbirdParams params;
    params.strategy = HbStrategy::kPerfectTreeTraversal;
    HummingbirdGpuEngine engine(MakeGpu(), params);
    engine.LoadModel(f.ensemble, f.stats);
    EXPECT_EQ(engine.ChosenStrategy(),
              HbStrategy::kPerfectTreeTraversal);
    EXPECT_EQ(engine
                  .Score(f.data.values().data(), f.data.num_rows(),
                         f.data.num_features())
                  .predictions,
              f.reference);
}

TEST(HummingbirdTest, BothStrategiesHandleRegression)
{
    Dataset data = MakeSyntheticRegression(400, 6, 0.1, 30);
    auto f = MakeFixture(data, 5, 6);
    for (HbStrategy strategy :
         {HbStrategy::kGemm, HbStrategy::kPerfectTreeTraversal}) {
        HummingbirdParams params;
        params.strategy = strategy;
        HummingbirdGpuEngine engine(MakeGpu(), params);
        engine.LoadModel(f.ensemble, f.stats);
        auto preds = engine
                         .Score(f.data.values().data(), f.data.num_rows(),
                                f.data.num_features())
                         .predictions;
        ASSERT_EQ(preds.size(), f.reference.size());
        for (std::size_t i = 0; i < preds.size(); ++i) {
            ASSERT_NEAR(preds[i], f.reference[i], 1e-4);
        }
    }
}

TEST(HummingbirdTest, AutoPicksGemmOnlyForSmallTrees)
{
    // IRIS at shallow depth -> tiny trees -> GEMM; HIGGS at depth 10 ->
    // near-full trees -> PerfectTreeTraversal.
    auto small = MakeFixture(MakeIris(300, 31), 4, 3);
    auto large = MakeFixture(MakeHiggs(3000, 31), 4, 10);
    HummingbirdGpuEngine e1(MakeGpu(), HummingbirdParams{});
    HummingbirdGpuEngine e2(MakeGpu(), HummingbirdParams{});
    e1.LoadModel(small.ensemble, small.stats);
    e2.LoadModel(large.ensemble, large.stats);
    EXPECT_EQ(e1.ChosenStrategy(), HbStrategy::kGemm);
    EXPECT_EQ(e2.ChosenStrategy(), HbStrategy::kPerfectTreeTraversal);
}

TEST(HummingbirdTest, AnalyticLedgerMatchesFunctionalGemmRun)
{
    auto f = MakeFixture(MakeIris(250, 32), 5, 5);
    HummingbirdParams params;
    params.strategy = HbStrategy::kGemm;
    HummingbirdGpuEngine engine(MakeGpu(), params);
    engine.LoadModel(f.ensemble, f.stats);

    // Recompute functionally with a ledger via Score's internals: use a
    // fresh engine whose ScoreGemm we can observe through LedgerFor.
    CostLedger analytic = engine.LedgerFor(f.data.num_rows());
    // Functional run: ops record into a ledger with identical flops and
    // bytes (invocation counts differ: the analytic model assumes fused
    // batched kernels).
    // The public API exercises this indirectly: Score must agree with
    // Estimate, and Estimate is derived from LedgerFor.
    auto result = engine.Score(f.data.values().data(), f.data.num_rows(),
                               f.data.num_features());
    EXPECT_DOUBLE_EQ(
        result.breakdown.Total().seconds(),
        engine.Estimate(f.data.num_rows()).Total().seconds());
    EXPECT_GT(analytic.Cost(OpKind::kGemm).flops, 0u);
}

TEST(HummingbirdTest, EstimateScalesWithRows)
{
    auto f = MakeFixture(MakeHiggs(500, 33), 16, 10);
    HummingbirdGpuEngine engine(MakeGpu(), HummingbirdParams{});
    engine.LoadModel(f.ensemble, f.stats);
    SimTime t1 = engine.Estimate(1000).Total();
    SimTime t2 = engine.Estimate(1000000).Total();
    EXPECT_GT(t2, t1 * 10.0);
}

TEST(HummingbirdTest, PerfectTreeSizeSaturatesPastDepth60)
{
    // A 70-deep chain: its perfect-tree layout would need 2^70 leaf
    // slots, more bytes than 64 bits count. The estimate saturates
    // (finite, hopeless) instead of shifting past the word.
    DecisionTree chain;
    std::int32_t prev = chain.AddDecisionNode(0, 0.0f);
    for (int i = 1; i < 70; ++i) {
        const std::int32_t next =
            chain.AddDecisionNode(0, static_cast<float>(i));
        chain.SetChildren(prev, next, chain.AddLeafNode(0.0f));
        prev = next;
    }
    chain.SetChildren(prev, chain.AddLeafNode(0.0f), chain.AddLeafNode(1.0f));
    RandomForest forest(Task::kClassification, 2, 2);
    forest.AddTree(std::move(chain));
    ASSERT_GT(forest.MaxDepth(), 60u);

    HummingbirdParams params;
    params.strategy = HbStrategy::kPerfectTreeTraversal;
    HummingbirdGpuEngine engine(MakeGpu(), params);
    const auto card = engine.MakeCostCard(forest, ComputeModelStats(forest));
    const double seconds = card->Estimate(1000).Total().seconds();
    EXPECT_TRUE(std::isfinite(seconds));
    EXPECT_GT(seconds, 1e6);  // 2^64 bytes over PCIe

    // Loading it onto the perfect-tree layout is refused before any
    // shift or allocation sized by the depth.
    const TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    EXPECT_THROW(engine.LoadModel(ensemble, ComputeModelStats(forest)),
                 CapacityError);
}

// --------------------------------------------------------------- FPGA --

TEST(TreeLayoutTest, ImageWalkMatchesTree)
{
    auto f = MakeFixture(MakeHiggs(400, 34), 1, 8);
    const DecisionTree& tree = f.forest.Tree(0);
    TreeMemoryImage image = LayoutTree(tree, 10);
    EXPECT_EQ(image.NumSlots(), FullTreeSlots(10));
    for (std::size_t r = 0; r < f.data.num_rows(); ++r) {
        ASSERT_FLOAT_EQ(WalkTreeImage(image, f.data.Row(r)),
                        tree.Predict(f.data.Row(r)));
    }
}

TEST(TreeLayoutTest, FootprintFollowsPaddedDepth)
{
    // "each tree consumes a memory footprint equaling" the full tree.
    DecisionTree t;
    t.AddLeafNode(1.0f);
    TreeMemoryImage image = LayoutTree(t, 10);
    EXPECT_EQ(image.ByteSize(), FullTreeSlots(10) * 16);
}

TEST(TreeLayoutTest, RejectsOverDeepTree)
{
    auto f = MakeFixture(MakeHiggs(2000, 35), 1, 6);
    EXPECT_THROW(LayoutTree(f.forest.Tree(0), 3), CapacityError);
    EXPECT_THROW(LayoutTree(DecisionTree{}, 4), InvalidArgument);
}

TEST(FpgaEngineSimTest, FunctionalScoringMatchesReference)
{
    auto f = MakeFixture(MakeIris(300, 36), 12, 10);
    FpgaInferenceEngine engine{FpgaSpec{}};
    engine.LoadModel(f.forest);
    FpgaRunReport report;
    EXPECT_EQ(engine.Score(f.data.values().data(), f.data.num_rows(),
                           f.data.num_features(), &report),
              f.reference);
    EXPECT_EQ(report.passes, 1u);
    EXPECT_EQ(report.stream_cycles_per_record, 1u);  // 4 features / 4
    EXPECT_GT(report.total_cycles, f.data.num_rows());
}

TEST(FpgaEngineSimTest, WideDatasetsStreamSlower)
{
    // HIGGS (28 features) needs ceil(28/4) = 7 cycles per record.
    auto f = MakeFixture(MakeHiggs(200, 37), 2, 6);
    FpgaInferenceEngine engine{FpgaSpec{}};
    engine.LoadModel(f.forest);
    EXPECT_EQ(engine.StreamCyclesPerRecord(28), 7u);
    EXPECT_EQ(engine.StreamCyclesPerRecord(4), 1u);
    EXPECT_EQ(engine.StreamCyclesPerRecord(5), 2u);
}

TEST(FpgaEngineSimTest, MultiPassWhenTreesExceedPes)
{
    auto f = MakeFixture(MakeIris(200, 38), 10, 6);
    FpgaSpec spec;
    spec.num_pes = 4;  // force multiple passes
    FpgaInferenceEngine engine{spec};
    engine.LoadModel(f.forest);
    EXPECT_EQ(engine.NumPasses(), 3u);  // ceil(10/4)
    // Cycles scale with passes; predictions stay correct.
    FpgaRunReport report;
    EXPECT_EQ(engine.Score(f.data.values().data(), f.data.num_rows(),
                           f.data.num_features(), &report),
              f.reference);
    EXPECT_EQ(report.passes, 3u);

    FpgaInferenceEngine wide{FpgaSpec{}};
    wide.LoadModel(f.forest);
    EXPECT_LT(wide.CyclesFor(1000, 4), engine.CyclesFor(1000, 4));
}

TEST(FpgaEngineSimTest, RejectsDeepTreesAndBramOverflow)
{
    // Depth > 10: "they need to be processed by the CPU".
    auto deep = MakeFixture(MakeHiggs(4000, 39), 1, 14);
    ASSERT_GT(deep.forest.MaxDepth(), 10u);
    FpgaInferenceEngine engine{FpgaSpec{}};
    EXPECT_THROW(engine.LoadModel(deep.forest), CapacityError);

    // BRAM overflow: shrink the device until 64 trees don't fit.
    auto big = MakeFixture(MakeIris(300, 40), 64, 10);
    FpgaSpec tiny;
    tiny.bram_bytes = 3 * 1024 * 1024;
    FpgaInferenceEngine small{tiny};
    EXPECT_THROW(small.LoadModel(big.forest), CapacityError);
}

TEST(FpgaEngineSimTest, BramAccountingMatchesLayout)
{
    auto f = MakeFixture(MakeIris(300, 41), 8, 10);
    FpgaInferenceEngine engine{FpgaSpec{}};
    engine.LoadModel(f.forest);
    EXPECT_EQ(engine.BramBytesUsed(),
              8 * FullTreeSlots(10) * 16 +
                  FpgaSpec{}.result_buffer_bytes);
    EXPECT_EQ(engine.ModelBytes(), 8 * FullTreeSlots(10) * 16);
}

TEST(FpgaScoringEngineTest, BreakdownHasPaperComponents)
{
    auto f = MakeFixture(MakeHiggs(500, 42), 16, 10);
    FpgaScoringEngine engine(FpgaSpec{}, PcieLinkSpec{},
                             FpgaOffloadParams{});
    engine.LoadModel(f.ensemble, f.stats);

    OffloadBreakdown one = engine.Estimate(1);
    // For 1 record: input transfer + software overhead dominate; the
    // scoring itself is sub-microsecond-scale cycles (Fig. 7a).
    EXPECT_GT(one.software_overhead + one.input_transfer,
              one.compute * 10.0);
    // FPGA setup (CSRs) is cheaper than the interrupt completion.
    EXPECT_LT(one.setup, one.completion_signal);

    OffloadBreakdown big = engine.Estimate(1000000);
    // For 1M records scoring dominates (Fig. 7b).
    EXPECT_GT(big.compute, big.OverheadO());
    EXPECT_GT(big.compute, big.TransferL());
    // Offload overheads are independent of the record count.
    EXPECT_DOUBLE_EQ(one.setup.seconds(), big.setup.seconds());
    EXPECT_DOUBLE_EQ(one.completion_signal.seconds(),
                     big.completion_signal.seconds());
    EXPECT_DOUBLE_EQ(one.software_overhead.seconds(),
                     big.software_overhead.seconds());
}

TEST(FpgaScoringEngineTest, ScoreAgreesWithEstimateAndReference)
{
    auto f = MakeFixture(MakeIris(500, 43), 24, 10);
    FpgaScoringEngine engine(FpgaSpec{}, PcieLinkSpec{},
                             FpgaOffloadParams{});
    engine.LoadModel(f.ensemble, f.stats);
    auto result = engine.Score(f.data.values().data(), f.data.num_rows(),
                               f.data.num_features());
    EXPECT_EQ(result.predictions, f.reference);
    EXPECT_DOUBLE_EQ(result.breakdown.Total().seconds(),
                     engine.Estimate(f.data.num_rows()).Total().seconds());
}

// ----------------------------------------------------- cross-backend --

/** Property sweep: every backend agrees with the reference forest. */
class AllEnginesAgreeTest
    : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(AllEnginesAgreeTest, PredictionsIdenticalAcrossBackends)
{
    auto [trees, depth, use_higgs] = GetParam();
    Dataset data = use_higgs ? MakeHiggs(400, 44) : MakeIris(400, 44);
    auto f = MakeFixture(data, static_cast<std::size_t>(trees),
                         static_cast<std::size_t>(depth));

    std::vector<std::unique_ptr<ScoringEngine>> engines;
    engines.push_back(std::make_unique<SklearnCpuEngine>(CpuSpec{}, 52));
    engines.push_back(std::make_unique<OnnxCpuEngine>(CpuSpec{}, 1));
    engines.push_back(std::make_unique<HummingbirdGpuEngine>(
        MakeGpu(), HummingbirdParams{}));
    if (use_higgs) {
        engines.push_back(std::make_unique<RapidsFilEngine>(
            MakeGpu(), RapidsParams{}));
    }
    engines.push_back(std::make_unique<FpgaScoringEngine>(
        FpgaSpec{}, PcieLinkSpec{}, FpgaOffloadParams{}));

    for (auto& engine : engines) {
        engine->LoadModel(f.ensemble, f.stats);
        EXPECT_EQ(engine
                      ->Score(f.data.values().data(), f.data.num_rows(),
                              f.data.num_features())
                      .predictions,
                  f.reference)
            << engine->Name();
        // Estimate must equal Score's breakdown at the same size.
        EXPECT_DOUBLE_EQ(
            engine->Estimate(f.data.num_rows()).Total().seconds(),
            engine
                ->Score(f.data.values().data(), f.data.num_rows(),
                        f.data.num_features())
                .breakdown.Total()
                .seconds())
            << engine->Name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllEnginesAgreeTest,
    ::testing::Combine(::testing::Values(1, 8, 32),
                       ::testing::Values(4, 10),
                       ::testing::Bool()));

}  // namespace
}  // namespace dbscore
