/**
 * @file
 * Unit tests for dbscore/data: Dataset container, synthetic generators,
 * and CSV ingestion.
 */
#include <cmath>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/common/stats.h"
#include "dbscore/data/csv_loader.h"
#include "dbscore/data/dataset.h"
#include "dbscore/data/synthetic.h"

namespace dbscore {
namespace {

TEST(DatasetTest, AddRowAndAccess)
{
    Dataset d("t", Task::kClassification, 2, 2);
    d.AddRow({1.0f, 2.0f}, 0.0f);
    d.AddRow({3.0f, 4.0f}, 1.0f);
    EXPECT_EQ(d.num_rows(), 2u);
    EXPECT_EQ(d.num_features(), 2u);
    EXPECT_FLOAT_EQ(d.At(1, 0), 3.0f);
    EXPECT_FLOAT_EQ(d.Label(0), 0.0f);
    EXPECT_FLOAT_EQ(d.Row(1)[1], 4.0f);
    EXPECT_EQ(d.FeatureBytes(), 4u * sizeof(float));
}

TEST(DatasetTest, RejectsBadConstruction)
{
    EXPECT_THROW(Dataset("x", Task::kClassification, 0, 2), InvalidArgument);
    EXPECT_THROW(Dataset("x", Task::kClassification, 3, 1), InvalidArgument);
    EXPECT_THROW(Dataset("x", Task::kRegression, 3, 2), InvalidArgument);
}

TEST(DatasetTest, RejectsArityMismatch)
{
    Dataset d("t", Task::kClassification, 2, 2);
    EXPECT_THROW(d.AddRow({1.0f}, 0.0f), InvalidArgument);
}

TEST(DatasetTest, SliceAndBounds)
{
    Dataset d("t", Task::kRegression, 1, 0);
    for (int i = 0; i < 10; ++i) {
        d.AddRow({static_cast<float>(i)}, static_cast<float>(i));
    }
    Dataset s = d.Slice(3, 7);
    EXPECT_EQ(s.num_rows(), 4u);
    EXPECT_FLOAT_EQ(s.At(0, 0), 3.0f);
    EXPECT_THROW(d.Slice(5, 11), InvalidArgument);
    EXPECT_THROW(d.Slice(7, 3), InvalidArgument);
}

TEST(DatasetTest, ShuffleIsPermutation)
{
    Dataset d("t", Task::kRegression, 1, 0);
    for (int i = 0; i < 64; ++i) {
        d.AddRow({static_cast<float>(i)}, static_cast<float>(i));
    }
    Dataset s = d.Shuffled(99);
    std::multiset<float> a(d.labels().begin(), d.labels().end());
    std::multiset<float> b(s.labels().begin(), s.labels().end());
    EXPECT_EQ(a, b);
    // Feature stays paired with its label.
    for (std::size_t i = 0; i < s.num_rows(); ++i) {
        EXPECT_FLOAT_EQ(s.At(i, 0), s.Label(i));
    }
}

TEST(DatasetTest, SplitFractions)
{
    Dataset d("t", Task::kRegression, 1, 0);
    for (int i = 0; i < 100; ++i) {
        d.AddRow({static_cast<float>(i)}, 0.0f);
    }
    auto split = SplitTrainTest(d, 0.8, 1);
    EXPECT_EQ(split.train.num_rows(), 80u);
    EXPECT_EQ(split.test.num_rows(), 20u);
    EXPECT_THROW(SplitTrainTest(d, 0.0, 1), InvalidArgument);
    EXPECT_THROW(SplitTrainTest(d, 1.0, 1), InvalidArgument);
}

TEST(SyntheticTest, IrisShapeMatchesPaper)
{
    Dataset iris = MakeIris();
    EXPECT_EQ(iris.num_rows(), 150u);
    EXPECT_EQ(iris.num_features(), 4u);
    EXPECT_EQ(iris.num_classes(), 3);
    EXPECT_EQ(iris.feature_names().size(), 4u);
    // Balanced classes.
    int counts[3] = {};
    for (std::size_t i = 0; i < iris.num_rows(); ++i) {
        ++counts[static_cast<int>(iris.Label(i))];
    }
    EXPECT_EQ(counts[0], 50);
    EXPECT_EQ(counts[1], 50);
    EXPECT_EQ(counts[2], 50);
}

TEST(SyntheticTest, IrisClassMeansTrackRealIris)
{
    Dataset iris = MakeIris(15000, 3);
    // Petal length (feature 2) per class should approach the published
    // means: 1.46 (setosa), 4.26 (versicolor), 5.55 (virginica).
    RunningStats per_class[3];
    for (std::size_t i = 0; i < iris.num_rows(); ++i) {
        per_class[static_cast<int>(iris.Label(i))].Add(iris.At(i, 2));
    }
    EXPECT_NEAR(per_class[0].mean(), 1.462, 0.05);
    EXPECT_NEAR(per_class[1].mean(), 4.260, 0.05);
    EXPECT_NEAR(per_class[2].mean(), 5.552, 0.05);
}

TEST(SyntheticTest, IrisIsDeterministicPerSeed)
{
    Dataset a = MakeIris(150, 7);
    Dataset b = MakeIris(150, 7);
    Dataset c = MakeIris(150, 8);
    EXPECT_EQ(a.values(), b.values());
    EXPECT_NE(a.values(), c.values());
}

TEST(SyntheticTest, HiggsShapeMatchesPaper)
{
    Dataset higgs = MakeHiggs(1000);
    EXPECT_EQ(higgs.num_rows(), 1000u);
    EXPECT_EQ(higgs.num_features(), 28u);
    EXPECT_EQ(higgs.num_classes(), 2);
    // Roughly balanced binary labels.
    int ones = 0;
    for (std::size_t i = 0; i < higgs.num_rows(); ++i) {
        ones += static_cast<int>(higgs.Label(i));
    }
    EXPECT_GT(ones, 400);
    EXPECT_LT(ones, 600);
}

TEST(SyntheticTest, HiggsIsWeaklySeparable)
{
    // Class-conditional means differ but distributions overlap heavily:
    // the per-feature shift must be well under one standard deviation.
    Dataset higgs = MakeHiggs(20000, 5);
    RunningStats pos;
    RunningStats neg;
    for (std::size_t i = 0; i < higgs.num_rows(); ++i) {
        (higgs.Label(i) == 1.0f ? pos : neg).Add(higgs.At(i, 0));
    }
    double gap = std::fabs(pos.mean() - neg.mean());
    EXPECT_GT(gap, 0.01);
    EXPECT_LT(gap, pos.Stddev());
}

TEST(SyntheticTest, BlobsAndRegressionBasics)
{
    Dataset blobs = MakeGaussianBlobs(90, 5, 3, 4.0);
    EXPECT_EQ(blobs.num_rows(), 90u);
    EXPECT_EQ(blobs.num_classes(), 3);
    EXPECT_THROW(MakeGaussianBlobs(10, 2, 1, 1.0), InvalidArgument);

    Dataset reg = MakeSyntheticRegression(100, 6);
    EXPECT_EQ(reg.task(), Task::kRegression);
    EXPECT_EQ(reg.num_classes(), 0);
    EXPECT_THROW(MakeSyntheticRegression(10, 1), InvalidArgument);
}

TEST(CsvLoaderTest, LoadsLabeledData)
{
    std::istringstream in(
        "f1,f2,label\n"
        "1.0,2.0,0\n"
        "3.0,4.0,1\n"
        "5.0,6.0,2\n");
    CsvLoadOptions opt;
    Dataset d = LoadCsvDataset(in, opt);
    EXPECT_EQ(d.num_rows(), 3u);
    EXPECT_EQ(d.num_features(), 2u);
    EXPECT_EQ(d.num_classes(), 3);
    EXPECT_FLOAT_EQ(d.At(2, 1), 6.0f);
    EXPECT_FLOAT_EQ(d.Label(2), 2.0f);
    ASSERT_EQ(d.feature_names().size(), 2u);
    EXPECT_EQ(d.feature_names()[0], "f1");
}

TEST(CsvLoaderTest, LabelColumnSelection)
{
    std::istringstream in("label,f1\n1,10\n0,20\n");
    CsvLoadOptions opt;
    opt.label_column = 0;
    Dataset d = LoadCsvDataset(in, opt);
    EXPECT_FLOAT_EQ(d.At(0, 0), 10.0f);
    EXPECT_FLOAT_EQ(d.Label(0), 1.0f);
}

TEST(CsvLoaderTest, RegressionLabels)
{
    std::istringstream in("f,y\n1.5,0.25\n2.5,-1.75\n");
    CsvLoadOptions opt;
    opt.task = Task::kRegression;
    Dataset d = LoadCsvDataset(in, opt);
    EXPECT_EQ(d.task(), Task::kRegression);
    EXPECT_FLOAT_EQ(d.Label(1), -1.75f);
}

TEST(CsvLoaderTest, RejectsMalformedInput)
{
    CsvLoadOptions opt;
    {
        std::istringstream in("f,y\n1.0\n");
        EXPECT_THROW(LoadCsvDataset(in, opt), ParseError);
    }
    {
        std::istringstream in("f,y\nabc,1\n");
        EXPECT_THROW(LoadCsvDataset(in, opt), ParseError);
    }
    {
        std::istringstream in("f,y\n1.0,-3\n");
        EXPECT_THROW(LoadCsvDataset(in, opt), ParseError);
    }
    {
        std::istringstream in("");
        EXPECT_THROW(LoadCsvDataset(in, opt), ParseError);
    }
}

TEST(CsvLoaderTest, GivenClassCountBoundsEveryLabel)
{
    CsvLoadOptions opt;
    opt.num_classes = 2;
    {
        // 7 is past the count, 0.5 is no integer, -4 is negative.
        std::istringstream in("a,label\n1,7\n2,0.5\n3,-4\n");
        EXPECT_THROW(LoadCsvDataset(in, opt), ParseError);
    }
    for (const char* text : {"a,label\n1,2\n", "a,label\n1,1.5\n",
                             "a,label\n1,-1\n"}) {
        std::istringstream in(text);
        EXPECT_THROW(LoadCsvDataset(in, opt), ParseError) << text;
    }
    // A count above the largest label stands.
    opt.num_classes = 5;
    std::istringstream in("a,label\n1,0\n2,1\n");
    const Dataset d = LoadCsvDataset(in, opt);
    EXPECT_EQ(d.num_classes(), 5);
    EXPECT_EQ(d.Label(1), 1.0f);
}

}  // namespace
}  // namespace dbscore
