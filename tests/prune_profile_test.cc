/**
 * @file
 * Tests for depth pruning and hardware-profile serialization.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/common/string_util.h"
#include "dbscore/core/profile_io.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/engines/fpga/fpga_engine.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/prune.h"
#include "dbscore/forest/trainer.h"

namespace dbscore {
namespace {

// --------------------------------------------------------- pruning --

RandomForest
DeepHiggsForest(std::size_t trees, std::size_t depth, std::uint64_t seed)
{
    Dataset higgs = MakeHiggs(3000, seed);
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = seed;
    return TrainForest(higgs, config);
}

TEST(PruneTest, RespectsDepthAndKeepsShallowPartsIntact)
{
    RandomForest forest = DeepHiggsForest(4, 14, 110);
    ASSERT_GT(forest.MaxDepth(), 10u);
    RandomForest pruned = PruneForestToDepth(forest, 10);
    EXPECT_LE(pruned.MaxDepth(), 10u);
    EXPECT_NO_THROW(pruned.Validate());
    // Shallow trees survive pruning untouched (prediction-wise).
    RandomForest shallow = DeepHiggsForest(3, 4, 111);
    RandomForest same = PruneForestToDepth(shallow, 10);
    Dataset probe = MakeHiggs(300, 112);
    EXPECT_EQ(same.PredictBatch(probe), shallow.PredictBatch(probe));
}

TEST(PruneTest, CollapsedLeavesUseWeightedOutcome)
{
    // Hand-built: root (f0 <= 0) -> left leaf 0; right subtree with
    // leaves at different depths: a shallow leaf of class 1 (weight 1/2)
    // vs two deep leaves of class 2 and 0 (weight 1/4 each). Pruning at
    // depth 1 collapses the right subtree to class 1.
    DecisionTree t;
    std::int32_t root = t.AddDecisionNode(0, 0.0f);
    std::int32_t l0 = t.AddLeafNode(0.0f);
    std::int32_t right = t.AddDecisionNode(1, 0.0f);
    std::int32_t shallow = t.AddLeafNode(1.0f);
    std::int32_t deep = t.AddDecisionNode(2, 0.0f);
    std::int32_t deep_a = t.AddLeafNode(2.0f);
    std::int32_t deep_b = t.AddLeafNode(0.0f);
    t.SetChildren(root, l0, right);
    t.SetChildren(right, shallow, deep);
    t.SetChildren(deep, deep_a, deep_b);

    DecisionTree pruned =
        PruneTreeToDepth(t, 1, Task::kClassification, 3);
    EXPECT_EQ(pruned.Depth(), 1u);
    const float go_right[3] = {1.0f, 0.0f, 0.0f};
    EXPECT_FLOAT_EQ(pruned.Predict(go_right), 1.0f);
    const float go_left[3] = {-1.0f, 0.0f, 0.0f};
    EXPECT_FLOAT_EQ(pruned.Predict(go_left), 0.0f);
}

TEST(PruneTest, DisagreementSmallForDeepCuts)
{
    RandomForest forest = DeepHiggsForest(8, 13, 113);
    Dataset probe = MakeHiggs(2000, 114);
    double d10 = PruningDisagreement(forest, 10, probe);
    double d4 = PruningDisagreement(forest, 4, probe);
    // Cutting only the deepest levels changes few predictions; cutting
    // most of the tree changes many more.
    EXPECT_LT(d10, 0.12);
    EXPECT_GT(d4, d10);
}

TEST(PruneTest, PrunedDeepModelFitsThePlainFpgaEngine)
{
    RandomForest forest = DeepHiggsForest(8, 14, 115);
    HardwareProfile profile = HardwareProfile::Paper();
    FpgaScoringEngine engine(profile.fpga, profile.fpga_link,
                             profile.fpga_offload);
    // Unpruned: rejected. Pruned to 10: accepted and functional.
    ModelStats stats = ComputeModelStats(forest, nullptr);
    EXPECT_THROW(
        engine.LoadModel(TreeEnsemble::FromForest(forest), stats),
        CapacityError);

    RandomForest pruned = PruneForestToDepth(forest, 10);
    ModelStats pstats = ComputeModelStats(pruned, nullptr);
    EXPECT_NO_THROW(
        engine.LoadModel(TreeEnsemble::FromForest(pruned), pstats));
    Dataset probe = MakeHiggs(400, 116);
    EXPECT_EQ(engine
                  .Score(probe.values().data(), probe.num_rows(),
                         probe.num_features())
                  .predictions,
              pruned.PredictBatch(probe));
}

TEST(PruneTest, RejectsBadInput)
{
    RandomForest forest = DeepHiggsForest(2, 6, 117);
    EXPECT_THROW(PruneForestToDepth(forest, 0), InvalidArgument);
    EXPECT_THROW(
        PruneTreeToDepth(DecisionTree{}, 5, Task::kClassification, 2),
        InvalidArgument);
    Dataset wrong = MakeIris(50, 117);
    EXPECT_THROW(PruningDisagreement(forest, 5, wrong), InvalidArgument);
}

// ------------------------------------------------------ profile io --

TEST(ProfileIoTest, RoundTripsEveryKey)
{
    HardwareProfile paper = HardwareProfile::Paper();
    std::string text = SerializeProfile(paper);
    HardwareProfile parsed = ParseProfile(text);
    // Spot-check representative fields across subsystems.
    EXPECT_EQ(parsed.cpu.max_threads, paper.cpu.max_threads);
    EXPECT_DOUBLE_EQ(parsed.gpu.dram_bytes_per_second,
                     paper.gpu.dram_bytes_per_second);
    EXPECT_EQ(parsed.fpga.num_pes, paper.fpga.num_pes);
    EXPECT_EQ(parsed.gpu_link.generation, paper.gpu_link.generation);
    EXPECT_DOUBLE_EQ(parsed.rapids.preproc_fixed.seconds(),
                     paper.rapids.preproc_fixed.seconds());
    // Every advertised key appears in the serialized form.
    for (const auto& key : ProfileKeys()) {
        EXPECT_NE(text.find(key + " ="), std::string::npos) << key;
    }
}

TEST(ProfileIoTest, OverridesApplyOnTopOfPaper)
{
    HardwareProfile p = ParseProfile(
        "# a faster system\n"
        "\n"
        "gpu.dram_gbps = 900\n"
        "fpga.num_pes = 256\n"
        "gpu_link.generation = 4\n");
    EXPECT_DOUBLE_EQ(p.gpu.dram_bytes_per_second, 900e9);
    EXPECT_EQ(p.fpga.num_pes, 256);
    EXPECT_EQ(p.gpu_link.generation, 4);
    // Untouched fields keep paper values.
    EXPECT_EQ(p.cpu.max_threads,
              HardwareProfile::Paper().cpu.max_threads);
}

TEST(ProfileIoTest, RejectsUnknownKeysAndBadValues)
{
    EXPECT_THROW(ParseProfile("gpu.cores = 9000\n"), ParseError);
    EXPECT_THROW(ParseProfile("fpga.num_pes = many\n"), ParseError);
    EXPECT_THROW(ParseProfile("just some words\n"), ParseError);
    EXPECT_THROW(ParseProfile("fpga.num_pes = \n"), ParseError);
}

/**
 * Every backend the scheduler hosts @p model on gives finite,
 * non-negative estimates under @p profile at 1, 10^3 and 10^6 rows.
 */
::testing::AssertionResult
EstimatesAreSane(const HardwareProfile& profile, const TreeEnsemble& model,
                 const ModelStats& stats)
{
    const OffloadScheduler scheduler(profile, model, stats);
    for (const std::size_t rows :
         {std::size_t{1}, std::size_t{1000}, std::size_t{1000000}}) {
        for (const BackendEstimate& e : scheduler.Choose(rows).all) {
            const OffloadBreakdown& b = e.breakdown;
            for (const SimTime t :
                 {b.preprocessing, b.input_transfer, b.setup, b.compute,
                  b.completion_signal, b.result_transfer,
                  b.software_overhead, b.Total()}) {
                if (!std::isfinite(t.seconds()) || t.seconds() < 0.0) {
                    return ::testing::AssertionFailure()
                           << BackendName(e.kind) << " at " << rows
                           << " rows: " << t.seconds() << " s";
                }
            }
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(ProfileIoTest, HostileValuesEndInParseErrorOrSaneEstimates)
{
    // Each case is a ParseError naming the key, or a profile whose
    // modeled estimates are finite and non-negative: no value aborts
    // the process or produces a negative latency.
    Dataset higgs = MakeHiggs(400, 119);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 119;
    const RandomForest forest = TrainForest(higgs, config);
    const TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    const ModelStats stats = ComputeModelStats(forest, &higgs);
    const std::vector<std::string> keys = ProfileKeys();

    std::size_t parse_errors = 0;
    std::size_t accepted = 0;
    auto check = [&](const std::string& text, const std::string& key) {
        HardwareProfile profile;
        try {
            profile = ParseProfile(text);
        } catch (const ParseError& e) {
            ++parse_errors;
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << text << " -> " << e.what();
            return;
        }
        ++accepted;
        EXPECT_TRUE(EstimatesAreSane(profile, ensemble, stats)) << text;
    };

    // Every key with every hostile value.
    const std::vector<std::string> hostile = {
        "0", "-1", "1e308", "nan", "inf", "1e-300", "4294967297", "-0"};
    for (const std::string& key : keys) {
        for (const std::string& value : hostile) {
            check(key + " = " + value + "\n", key);
        }
    }
    EXPECT_EQ(parse_errors + accepted, keys.size() * hostile.size());

    // Seeded multi-key mutations: one to four keys, each set to a
    // hostile value or to its paper value scaled by 10^-8 .. 10^8.
    Rng rng(120);
    const std::string paper = SerializeProfile(HardwareProfile::Paper());
    std::map<std::string, double> paper_value;
    {
        std::istringstream lines(paper);
        std::string line;
        while (std::getline(lines, line)) {
            const std::size_t eq = line.find(" = ");
            if (line[0] != '#' && eq != std::string::npos) {
                paper_value[line.substr(0, eq)] =
                    std::strtod(line.c_str() + eq + 3, nullptr);
            }
        }
    }
    ASSERT_EQ(paper_value.size(), keys.size());
    constexpr int kMutations = 10000;
    const std::size_t errors_before = parse_errors;
    for (int i = 0; i < kMutations; ++i) {
        std::string text;
        const std::size_t edits = 1 + rng.NextBelow(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::string& key = keys[rng.NextBelow(keys.size())];
            std::string value;
            if (rng.NextBelow(3) == 0) {
                value = hostile[rng.NextBelow(hostile.size())];
            } else {
                const double scale = std::pow(
                    10.0, static_cast<double>(rng.NextBelow(17)) - 8.0);
                value = StrFormat("%.17g", paper_value[key] * scale);
            }
            text += key + " = " + value + "\n";
        }
        try {
            const HardwareProfile profile = ParseProfile(text);
            ++accepted;
            EXPECT_TRUE(EstimatesAreSane(profile, ensemble, stats)) << text;
        } catch (const ParseError&) {
            ++parse_errors;
        }
    }
    EXPECT_GT(parse_errors, errors_before);
    EXPECT_GT(accepted, static_cast<std::size_t>(kMutations / 10));

    // The built-in profile round-trips and stays sane.
    const HardwareProfile round_trip = ParseProfile(paper);
    EXPECT_EQ(SerializeProfile(round_trip), paper);
    EXPECT_TRUE(EstimatesAreSane(round_trip, ensemble, stats));
}

TEST(ProfileIoTest, ParsedProfileDrivesEngines)
{
    // A profile with twice the PEs halves the multi-pass scoring time.
    HardwareProfile p = ParseProfile("fpga.num_pes = 64\n");
    Dataset higgs = MakeHiggs(1000, 118);
    ForestTrainerConfig config;
    config.num_trees = 128;
    config.max_depth = 8;
    RandomForest forest = TrainForest(higgs, config);
    TreeEnsemble ensemble = TreeEnsemble::FromForest(forest);
    ModelStats stats = ComputeModelStats(forest, &higgs);

    FpgaScoringEngine narrow(p.fpga, p.fpga_link, p.fpga_offload);
    HardwareProfile paper = HardwareProfile::Paper();
    FpgaScoringEngine wide(paper.fpga, paper.fpga_link,
                           paper.fpga_offload);
    narrow.LoadModel(ensemble, stats);
    wide.LoadModel(ensemble, stats);
    EXPECT_NEAR(narrow.Estimate(1000000).compute.seconds(),
                2.0 * wide.Estimate(1000000).compute.seconds(), 1e-5);
}

}  // namespace
}  // namespace dbscore
