/**
 * @file
 * Tests for the core offload framework: backend factory, scheduler,
 * LogCA model, and report rendering — including the paper's qualitative
 * scheduling claims (crossovers, regret magnitudes).
 */
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/core/backend_factory.h"
#include "dbscore/core/logca_model.h"
#include "dbscore/core/report.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/engines/gpu/hummingbird_engine.h"
#include "dbscore/forest/trainer.h"

namespace dbscore {
namespace {

struct SchedFixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
};

SchedFixture
MakeSchedFixture(bool higgs, std::size_t trees, std::size_t depth)
{
    SchedFixture f{higgs ? MakeHiggs(3000, 50) : MakeIris(3000, 50),
                   {}, {}};
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = 50;
    RandomForest forest = TrainForest(f.data, config);
    f.ensemble = TreeEnsemble::FromForest(forest);
    f.stats = ComputeModelStats(forest, &f.data);
    return f;
}

TEST(BackendFactoryTest, CreatesEveryKind)
{
    HardwareProfile profile = HardwareProfile::Paper();
    for (BackendKind kind : AllBackends()) {
        auto engine = CreateEngine(kind, profile);
        ASSERT_NE(engine, nullptr);
        EXPECT_EQ(engine->kind(), kind);
        EXPECT_FALSE(engine->loaded());
    }
    EXPECT_EQ(AllBackends().size(), 6u);
}

TEST(BackendFactoryTest, LoadedEngineRespectsCapacity)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(/*higgs=*/false, 4, 6);
    // IRIS is 3-class: RAPIDS cannot host it.
    EXPECT_EQ(CreateLoadedEngine(BackendKind::kGpuRapids, profile,
                                 f.ensemble, f.stats),
              nullptr);
    EXPECT_NE(CreateLoadedEngine(BackendKind::kFpga, profile, f.ensemble,
                                 f.stats),
              nullptr);
}

TEST(SchedulerTest, AvailabilityMirrorsPaperSeries)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto iris = MakeSchedFixture(false, 8, 10);
    OffloadScheduler iris_sched(profile, iris.ensemble, iris.stats);
    EXPECT_FALSE(iris_sched.Has(BackendKind::kGpuRapids));
    EXPECT_TRUE(iris_sched.Has(BackendKind::kFpga));
    EXPECT_TRUE(iris_sched.Has(BackendKind::kGpuHummingbird));

    auto higgs = MakeSchedFixture(true, 8, 10);
    OffloadScheduler higgs_sched(profile, higgs.ensemble, higgs.stats);
    EXPECT_TRUE(higgs_sched.Has(BackendKind::kGpuRapids));
    EXPECT_EQ(higgs_sched.Available().size(), 6u);
}

TEST(SchedulerTest, CpuWinsSmallAcceleratorWinsLarge)
{
    // The paper's Figure 1/8 structure.
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(true, 128, 10);
    OffloadScheduler sched(profile, f.ensemble, f.stats);

    SchedulerDecision tiny = sched.Choose(1);
    EXPECT_EQ(BackendDeviceClass(tiny.best), DeviceClass::kCpu);

    SchedulerDecision huge = sched.Choose(1000000);
    EXPECT_NE(BackendDeviceClass(huge.best), DeviceClass::kCpu);
    EXPECT_GT(huge.SpeedupOverCpu(), 10.0);
}

TEST(SchedulerTest, DecisionContainsAllEstimates)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(true, 8, 6);
    OffloadScheduler sched(profile, f.ensemble, f.stats);
    SchedulerDecision d = sched.Choose(10000);
    EXPECT_EQ(d.all.size(), 6u);
    EXPECT_TRUE(d.For(BackendKind::kFpga).has_value());
    EXPECT_FALSE(d.For(BackendKind::kFpga)->Total().is_zero());
    // Best really is the minimum.
    for (const auto& est : d.all) {
        EXPECT_GE(est.Total().seconds(), d.best_time.seconds());
    }
}

TEST(SchedulerTest, RegretOfWrongDecisionsIsLarge)
{
    // Paper: offloading tiny jobs costs up to ~10x latency; keeping
    // big compute-heavy jobs on the CPU costs ~70x throughput.
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(true, 128, 10);
    OffloadScheduler sched(profile, f.ensemble, f.stats);

    double offload_too_small = sched.Regret(BackendKind::kFpga, 1);
    EXPECT_GT(offload_too_small, 5.0);

    double stay_on_cpu = sched.Regret(BackendKind::kCpuOnnxMt, 1000000);
    EXPECT_GT(stay_on_cpu, 20.0);

    // Choosing the best backend has regret exactly 1.
    SchedulerDecision d = sched.Choose(1000000);
    EXPECT_DOUBLE_EQ(sched.Regret(d.best, 1000000), 1.0);
}

TEST(SchedulerTest, UnavailableBackendThrows)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(false, 4, 6);  // IRIS -> no RAPIDS
    OffloadScheduler sched(profile, f.ensemble, f.stats);
    EXPECT_THROW(sched.EstimateFor(BackendKind::kGpuRapids, 100),
                 NotFound);
}

// ------------------------------------------------- estimate parity --

/** Models that exercise each backend's capacity rules and strategies. */
enum class ParityModel {
    kIris3Class,       ///< RAPIDS rejects (multi-class)
    kHiggsDepth4,      ///< <= 32 internal nodes per tree: HB picks GEMM
    kHiggs32x8,        ///< HB picks perfect-tree traversal
    kTooDeepForFpga,   ///< deeper than FpgaSpec::max_tree_depth
    kRegression,       ///< regression forest
    kQuantizedFpga,    ///< profile with a fixed-point FPGA tree memory
};

struct ParityFixture {
    HardwareProfile profile = HardwareProfile::Paper();
    SchedFixture model;
};

ParityFixture
MakeParityFixture(ParityModel which)
{
    ParityFixture f;
    switch (which) {
      case ParityModel::kIris3Class:
        f.model = MakeSchedFixture(false, 8, 6);
        break;
      case ParityModel::kHiggsDepth4:
        f.model = MakeSchedFixture(true, 8, 4);
        break;
      case ParityModel::kHiggs32x8:
        f.model = MakeSchedFixture(true, 32, 8);
        break;
      case ParityModel::kTooDeepForFpga:
        f.model = MakeSchedFixture(true, 2, 14);
        break;
      case ParityModel::kRegression: {
        f.model.data = MakeSyntheticRegression(2000, 6, 0.1, 51);
        ForestTrainerConfig config;
        config.num_trees = 8;
        config.max_depth = 8;
        config.seed = 51;
        RandomForest forest = TrainForest(f.model.data, config);
        f.model.ensemble = TreeEnsemble::FromForest(forest);
        f.model.stats = ComputeModelStats(forest, &f.model.data);
        break;
      }
      case ParityModel::kQuantizedFpga:
        f.model = MakeSchedFixture(true, 16, 10);
        f.profile.fpga_offload.quantization = QuantizationSpec{16, 8};
        break;
    }
    return f;
}

/** Bit equality of every OffloadBreakdown component. */
::testing::AssertionResult
SameBits(const OffloadBreakdown& a, const OffloadBreakdown& b)
{
    static constexpr std::pair<SimTime OffloadBreakdown::*, const char*>
        kFields[] = {
            {&OffloadBreakdown::preprocessing, "preprocessing"},
            {&OffloadBreakdown::input_transfer, "input_transfer"},
            {&OffloadBreakdown::setup, "setup"},
            {&OffloadBreakdown::compute, "compute"},
            {&OffloadBreakdown::completion_signal, "completion_signal"},
            {&OffloadBreakdown::result_transfer, "result_transfer"},
            {&OffloadBreakdown::software_overhead, "software_overhead"},
        };
    for (const auto& [field, name] : kFields) {
        const double x = (a.*field).seconds();
        const double y = (b.*field).seconds();
        if (std::bit_cast<std::uint64_t>(x) !=
            std::bit_cast<std::uint64_t>(y)) {
            return ::testing::AssertionFailure()
                   << name << ": " << x << " vs " << y;
        }
    }
    return ::testing::AssertionSuccess();
}

class EstimateParityTest : public ::testing::TestWithParam<ParityModel> {};

TEST_P(EstimateParityTest, SchedulerPricesExactlyLikeLoadedEngines)
{
    const ParityFixture f = MakeParityFixture(GetParam());
    OffloadScheduler sched(f.profile, f.model.ensemble, f.model.stats);

    std::vector<BackendKind> accepted;
    for (BackendKind kind : AllBackends()) {
        auto engine = CreateLoadedEngine(kind, f.profile, f.model.ensemble,
                                         f.model.stats);
        if (engine == nullptr) {
            continue;
        }
        accepted.push_back(kind);
        for (std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{4096}, std::size_t{1000000}}) {
            EXPECT_TRUE(SameBits(sched.EstimateFor(kind, n),
                                 engine->Estimate(n)))
                << BackendName(kind) << " at " << n << " rows";
        }
        if (kind == BackendKind::kGpuHummingbird) {
            const HbStrategy strategy =
                dynamic_cast<const HummingbirdGpuEngine&>(*engine)
                    .ChosenStrategy();
            if (GetParam() == ParityModel::kHiggsDepth4) {
                EXPECT_EQ(strategy, HbStrategy::kGemm);
            }
            if (GetParam() == ParityModel::kHiggs32x8) {
                EXPECT_EQ(strategy, HbStrategy::kPerfectTreeTraversal);
            }
        }
    }
    EXPECT_EQ(sched.Available(), accepted);

    switch (GetParam()) {
      case ParityModel::kIris3Class:
        EXPECT_FALSE(sched.Has(BackendKind::kGpuRapids));
        break;
      case ParityModel::kTooDeepForFpga:
        ASSERT_GT(f.model.stats.max_depth,
                  static_cast<std::size_t>(f.profile.fpga.max_tree_depth));
        EXPECT_FALSE(sched.Has(BackendKind::kFpga));
        break;
      case ParityModel::kQuantizedFpga: {
        // The card really priced the narrower node words.
        OffloadScheduler full(HardwareProfile::Paper(), f.model.ensemble,
                              f.model.stats);
        EXPECT_LT(sched.EstimateFor(BackendKind::kFpga, 1).input_transfer,
                  full.EstimateFor(BackendKind::kFpga, 1).input_transfer);
        break;
      }
      default:
        EXPECT_EQ(sched.Available().size(), AllBackends().size());
        break;
    }
}

std::string
ParityModelName(const ::testing::TestParamInfo<ParityModel>& info)
{
    static const char* const kNames[] = {
        "Iris3Class", "HiggsDepth4", "Higgs32x8",
        "TooDeepForFpga", "Regression", "QuantizedFpga"};
    return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(
    Models, EstimateParityTest,
    ::testing::Values(ParityModel::kIris3Class, ParityModel::kHiggsDepth4,
                      ParityModel::kHiggs32x8, ParityModel::kTooDeepForFpga,
                      ParityModel::kRegression, ParityModel::kQuantizedFpga),
    ParityModelName);

TEST(LogCaTest, AffineFitInterpolatesProbes)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(true, 16, 8);
    OffloadScheduler sched(profile, f.ensemble, f.stats);
    LogCaModel model = LogCaModel::Fit(sched, 1, 100000);

    for (BackendKind kind : sched.Available()) {
        // Exact at the probe points.
        EXPECT_NEAR(model.Predict(kind, 1).seconds(),
                    sched.EstimateFor(kind, 1).Total().seconds(), 1e-12)
            << BackendName(kind);
        EXPECT_NEAR(model.Predict(kind, 100000).seconds(),
                    sched.EstimateFor(kind, 100000).Total().seconds(),
                    1e-9)
            << BackendName(kind);
        EXPECT_GT(model.Overhead(kind).seconds(), 0.0);
        EXPECT_GT(model.PerRecord(kind).seconds(), 0.0);
    }
}

TEST(LogCaTest, UnfittedBackendThrows)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(false, 4, 6);  // IRIS -> no RAPIDS fitted
    OffloadScheduler sched(profile, f.ensemble, f.stats);
    LogCaModel model = LogCaModel::Fit(sched);
    EXPECT_THROW(model.Predict(BackendKind::kGpuRapids, 1), NotFound);
}

TEST(LogCaTest, ChooseTracksOracleAtExtremes)
{
    HardwareProfile profile = HardwareProfile::Paper();
    auto f = MakeSchedFixture(true, 128, 10);
    OffloadScheduler sched(profile, f.ensemble, f.stats);
    LogCaModel model = LogCaModel::Fit(sched);
    EXPECT_EQ(model.Choose(1), sched.Choose(1).best);
    EXPECT_EQ(model.Choose(1000000), sched.Choose(1000000).best);
    EXPECT_THROW(LogCaModel::Fit(sched, 10, 10), InvalidArgument);
}

TEST(ReportTest, ShmooGridRendering)
{
    std::string grid = RenderShmooGrid(
        "test grid", {1, 1000}, {1, 128},
        {{{BackendKind::kCpuSklearn, 1.0},
          {BackendKind::kCpuOnnx, 1.0}},
         {{BackendKind::kGpuHummingbird, 6.7},
          {BackendKind::kFpga, 54.0}}});
    EXPECT_NE(grid.find("CPU_SKLearn (1.0x)"), std::string::npos);
    EXPECT_NE(grid.find("FPGA (54x)"), std::string::npos);
    EXPECT_NE(grid.find("GPU_HB (6.7x)"), std::string::npos);
}

TEST(ReportTest, BreakdownTableListsComponents)
{
    OffloadBreakdown b;
    b.input_transfer = SimTime::Micros(100);
    b.compute = SimTime::Millis(4);
    b.software_overhead = SimTime::Millis(1.9);
    std::string table =
        RenderBreakdownTable("fig", {{"IRIS 1 tree", b}});
    EXPECT_NE(table.find("input transfer"), std::string::npos);
    EXPECT_NE(table.find("scoring (compute)"), std::string::npos);
    EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

TEST(ReportTest, SeriesTableBothModes)
{
    std::vector<std::vector<SimTime>> series = {
        {SimTime::Millis(1), SimTime::Millis(10)}};
    std::string latency =
        RenderSeriesTable("t", {100, 1000}, {"FPGA"}, series, false);
    EXPECT_NE(latency.find("ms"), std::string::npos);
    std::string throughput =
        RenderSeriesTable("t", {100, 1000}, {"FPGA"}, series, true);
    EXPECT_NE(throughput.find("M/s"), std::string::npos);
    EXPECT_NE(throughput.find("0.100 M/s"), std::string::npos);
}

TEST(OffloadBreakdownTest, ComponentAlgebra)
{
    OffloadBreakdown b;
    b.preprocessing = SimTime::Millis(1);
    b.input_transfer = SimTime::Millis(2);
    b.setup = SimTime::Millis(3);
    b.compute = SimTime::Millis(4);
    b.completion_signal = SimTime::Millis(5);
    b.result_transfer = SimTime::Millis(6);
    b.software_overhead = SimTime::Millis(7);
    EXPECT_DOUBLE_EQ(b.Total().millis(), 28.0);
    EXPECT_DOUBLE_EQ(b.OverheadO().millis(), 15.0);
    EXPECT_DOUBLE_EQ(b.TransferL().millis(), 8.0);
    OffloadBreakdown c = b;
    c += b;
    EXPECT_DOUBLE_EQ(c.Total().millis(), 56.0);
}

}  // namespace
}  // namespace dbscore
