/**
 * @file
 * Tests for the bench harness utilities (bench_util): the model cache,
 * sweep grids, crossover search, and the CSV dumper used by the
 * reproduction program (bench/repro).
 */
#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "bench_util.h"
#include "dbscore/common/csv.h"
#include "dbscore/common/error.h"

namespace dbscore::bench {
namespace {

TEST(BenchUtilTest, DatasetDescriptors)
{
    EXPECT_STREQ(DatasetName(DatasetKind::kIris), "IRIS");
    EXPECT_STREQ(DatasetName(DatasetKind::kHiggs), "HIGGS");
    EXPECT_EQ(DatasetFeatures(DatasetKind::kIris), 4u);
    EXPECT_EQ(DatasetFeatures(DatasetKind::kHiggs), 28u);
    EXPECT_EQ(TrainingData(DatasetKind::kIris).num_features(), 4u);
    EXPECT_EQ(TrainingData(DatasetKind::kHiggs).num_features(), 28u);
}

TEST(BenchUtilTest, ModelCacheReturnsSameObject)
{
    const BenchModel& a = GetModel(DatasetKind::kIris, 4, 6);
    const BenchModel& b = GetModel(DatasetKind::kIris, 4, 6);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.forest.NumTrees(), 4u);
    EXPECT_LE(a.forest.MaxDepth(), 6u);
    const BenchModel& c = GetModel(DatasetKind::kIris, 4, 10);
    EXPECT_NE(&a, &c);
}

TEST(BenchUtilTest, SweepAndBestTimes)
{
    EXPECT_EQ(RecordSweep().front(), 1u);
    EXPECT_EQ(RecordSweep().back(), 1000000u);

    auto sched = MakeScheduler(GetModel(DatasetKind::kHiggs, 8, 8));
    SimTime cpu = BestCpuTime(sched, 1000);
    SimTime accel = BestAcceleratorTime(sched, 1000);
    EXPECT_GT(cpu.seconds(), 0.0);
    EXPECT_GT(accel.seconds(), 0.0);
    // The scheduler's oracle equals the min of the two class bests.
    SimTime best = sched.Choose(1000).best_time;
    EXPECT_DOUBLE_EQ(best.seconds(), Min(cpu, accel).seconds());
}

TEST(BenchUtilTest, CrossoverIsConsistentWithClassBests)
{
    auto sched = MakeScheduler(GetModel(DatasetKind::kHiggs, 128, 10));
    std::size_t crossover = FindCpuCrossover(sched);
    ASSERT_GT(crossover, 0u);
    EXPECT_LT(BestAcceleratorTime(sched, crossover).seconds(),
              BestCpuTime(sched, crossover).seconds());
    // Just below the crossover grid point the CPU still wins (use the
    // point one decade down where available).
    if (crossover > 10) {
        std::size_t below = crossover / 10;
        EXPECT_LE(BestCpuTime(sched, below).seconds(),
                  BestAcceleratorTime(sched, below).seconds() * 1.5);
    }
}

TEST(BenchUtilTest, CsvDumpRoundTrips)
{
    const std::string path = "/tmp/dbscore_bench_util_test.csv";
    std::vector<std::vector<SimTime>> series = {
        {SimTime::Millis(1), SimTime::Millis(10)},
        {SimTime::Micros(5), SimTime::Micros(50)},
    };
    DumpSeriesCsv(path, {100, 1000}, {"FPGA", "GPU_HB"}, series);

    std::ifstream in(path);
    CsvDocument doc = ReadCsv(in);
    ASSERT_EQ(doc.header.size(), 3u);
    EXPECT_EQ(doc.header[1], "FPGA");
    ASSERT_EQ(doc.rows.size(), 2u);
    EXPECT_EQ(doc.rows[0][0], "100");
    EXPECT_NEAR(std::stod(doc.rows[1][1]), 0.01, 1e-12);
    EXPECT_NEAR(std::stod(doc.rows[0][2]), 5e-6, 1e-15);
    std::remove(path.c_str());

    EXPECT_THROW(DumpSeriesCsv("/nonexistent-dir/x.csv", {1}, {"a"},
                               {{SimTime::Millis(1)}}),
                 InvalidArgument);
}

TEST(ZipfianGeneratorTest, DeterministicAndInBounds)
{
    ZipfianGenerator a(1000, 0.8, 42);
    ZipfianGenerator b(1000, 0.8, 42);
    ZipfianGenerator c(1000, 0.8, 43);
    bool seed_matters = false;
    for (int i = 0; i < 10000; ++i) {
        const std::size_t ka = a.Next();
        EXPECT_EQ(ka, b.Next());  // same (n, theta, seed) -> same keys
        EXPECT_LT(ka, 1000u);
        seed_matters = seed_matters || ka != c.Next();
    }
    EXPECT_TRUE(seed_matters);
}

TEST(ZipfianGeneratorTest, SkewConcentratesOnLowRanks)
{
    constexpr std::size_t kN = 100;
    constexpr int kDraws = 50000;
    ZipfianGenerator skewed(kN, 0.99, 7);
    ZipfianGenerator uniform(kN, 0.0, 7);
    std::size_t skewed_head = 0, uniform_head = 0;
    std::vector<std::size_t> counts(kN, 0);
    for (int i = 0; i < kDraws; ++i) {
        const std::size_t k = skewed.Next();
        ++counts[k];
        skewed_head += k < 10;
        uniform_head += uniform.Next() < 10;
    }
    // YCSB-hot: the top 10 of 100 keys draw the majority of traffic;
    // theta 0 stays near the uniform 10%.
    EXPECT_GT(skewed_head, static_cast<std::size_t>(kDraws) / 2);
    EXPECT_LT(uniform_head, static_cast<std::size_t>(kDraws) / 5);
    // Rank 0 is the most popular key.
    for (std::size_t k = 1; k < kN; ++k) {
        EXPECT_GE(counts[0], counts[k]);
    }
}

TEST(ZipfianGeneratorTest, RejectsBadParameters)
{
    EXPECT_THROW(ZipfianGenerator(0, 0.5, 1), InvalidArgument);
    EXPECT_THROW(ZipfianGenerator(10, 1.0, 1), InvalidArgument);
    EXPECT_THROW(ZipfianGenerator(10, -0.1, 1), InvalidArgument);
    ZipfianGenerator lone(1, 0.9, 5);  // n=1 is legal: always key 0
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(lone.Next(), 0u);
    }
}

}  // namespace
}  // namespace dbscore::bench
