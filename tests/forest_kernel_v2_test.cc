/**
 * @file
 * Tests for the v2 forest kernel: SoA/SIMD exact layout, quantized
 * layout, the simd.h shim, the build-time autotuner, and the
 * options-aware kernel caches.
 *
 * The contract under test mirrors the v1 suite and extends it:
 *
 *  - v2 exact predictions are bit-identical to the scalar reference
 *    (and therefore to v1) across task type, shape, depth, and ragged
 *    batch sizes — the same 27-config sweep the v1 suite runs. Engine
 *    coverage rides on the AllEnginesAgree sweep, whose batch path now
 *    compiles v2 by default.
 *  - Quantized predictions are bit-identical whenever every distinct
 *    threshold received its own bin (quant_exact, the common case) and
 *    epsilon-close (argmax agreement) when a feature's thresholds were
 *    subsampled past the u16 bin budget.
 *  - Forced-SIMD and forced-scalar plans compute identical
 *    predictions, so the shim can be swapped out (DBSCORE_SIMD=OFF
 *    build leg, DBSCORE_SIMD=off env) without changing results.
 *  - Autotuned parameters are served deterministically from the
 *    process-wide shape cache, and every choice comes from the
 *    candidate grid.
 *  - Kernel caches key on the full option set (options used to be
 *    silently dropped when a kernel was already cached).
 */
#include <algorithm>
#include <cmath>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/kernel_autotune.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

namespace dbscore {
namespace {

/** Scalar ground truth: per-row Predict, no kernel involved. */
std::vector<float>
Reference(const RandomForest& forest, const float* rows,
          std::size_t num_rows, std::size_t num_cols)
{
    std::vector<float> out(num_rows);
    for (std::size_t i = 0; i < num_rows; ++i) {
        out[i] = forest.Predict(rows + i * num_cols);
    }
    return out;
}

RandomForest
TrainSmallIris(std::size_t trees, std::size_t depth, std::uint64_t seed)
{
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = seed;
    return TrainForest(MakeIris(200, seed), config);
}

ForestKernelOptions
V2Options(KernelMode mode = KernelMode::kExact,
          KernelLanes lanes = KernelLanes::kAuto)
{
    ForestKernelOptions options;
    options.version = KernelVersion::kV2;
    options.mode = mode;
    options.lanes = lanes;
    options.autotune = false;  // sweep speed; tuning has its own tests
    return options;
}

// ------------------------------------------------- property sweep --

/** (generator, trees, depth): generator 0 IRIS, 1 HIGGS, 2 regression. */
class ForestKernelV2SweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ForestKernelV2SweepTest, ExactBitIdenticalQuantizedEpsilon)
{
    auto [generator, trees, depth] = GetParam();
    const auto seed = static_cast<std::uint64_t>(
        2000 + generator * 100 + trees * 10 + depth);

    Dataset train = generator == 0 ? MakeIris(200, seed)
                    : generator == 1
                        ? MakeHiggs(300, seed)
                        : MakeSyntheticRegression(300, 6, 0.1, seed);
    Dataset eval = generator == 0 ? MakeIris(1025, seed + 1)
                   : generator == 1
                       ? MakeHiggs(1025, seed + 1)
                       : MakeSyntheticRegression(1025, 6, 0.1, seed + 1);

    ForestTrainerConfig config;
    config.num_trees = static_cast<std::size_t>(trees);
    config.max_depth = static_cast<std::size_t>(depth);
    config.seed = seed;
    RandomForest forest = TrainForest(train, config);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, 1025, cols);

    ForestKernel exact(forest, V2Options(KernelMode::kExact));
    EXPECT_EQ(exact.version(), KernelVersion::kV2);
    ForestKernel quant(forest, V2Options(KernelMode::kQuantized));
    EXPECT_EQ(quant.mode(), KernelMode::kQuantized);
    // Trained models stay far below the 2^16 - 2 bin budget, so every
    // distinct threshold gets its own bin: the rank encoding preserves
    // every comparison and the epsilon contract collapses to
    // bit-identity.
    EXPECT_TRUE(quant.quant_exact());

    // Ragged batch sizes straddling the row blocking and the SIMD
    // group width: empty, single row, one under/over a block.
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                          std::size_t{257}, std::size_t{1025}}) {
        const std::vector<float> want(expected.begin(),
                                      expected.begin() +
                                          static_cast<long>(n));
        EXPECT_EQ(exact.Predict(rows, n, cols), want)
            << "exact generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
        EXPECT_EQ(quant.Predict(rows, n, cols), want)
            << "quant generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestKernelV2SweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 8, 128),
                       ::testing::Values(1, 6, 10)));

// ------------------------------------------- SIMD/scalar equivalence --

TEST(ForestKernelV2Test, SimdAndScalarShimsAgree)
{
    RandomForest forest = TrainSmallIris(32, 8, 51);
    Dataset eval = MakeIris(1000, 52);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, eval.num_rows(), cols);

    for (KernelMode mode :
         {KernelMode::kExact, KernelMode::kQuantized}) {
        ForestKernel scalar(forest, V2Options(mode, KernelLanes::kScalar));
        ForestKernel simd(forest, V2Options(mode, KernelLanes::kSimd));
        EXPECT_FALSE(scalar.simd_active());
        // On machines without the vector backend, forced-SIMD degrades
        // to the scalar loop — the equality below still holds.
        auto got_scalar = scalar.Predict(rows, eval.num_rows(), cols);
        auto got_simd = simd.Predict(rows, eval.num_rows(), cols);
        EXPECT_EQ(got_scalar, got_simd);
        EXPECT_EQ(got_scalar, expected);
    }
}

TEST(ForestKernelV2Test, SimdGroupCountsAgree)
{
    RandomForest forest = TrainSmallIris(16, 7, 53);
    Dataset eval = MakeIris(515, 54);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, eval.num_rows(), cols);

    for (std::size_t groups : {std::size_t{1}, std::size_t{2},
                               std::size_t{4}}) {
        ForestKernelOptions options =
            V2Options(KernelMode::kExact, KernelLanes::kSimd);
        options.simd_groups = groups;
        ForestKernel kernel(forest, options);
        if (kernel.simd_active()) {
            EXPECT_EQ(kernel.simd_groups(), groups);
        }
        EXPECT_EQ(kernel.Predict(rows, eval.num_rows(), cols), expected);
    }
}

// ----------------------------------------------------- quantization --

TEST(ForestKernelV2Test, QuantizedSubsamplingKeepsEpsilonContract)
{
    // More distinct thresholds on one feature than the u16 bin budget
    // (2^16 - 2) can hold: one decision stump per threshold. Binning
    // must subsample, dropping quant_exact, but predictions may flip
    // only for rows landing between a dropped edge and its kept
    // neighbor — argmax agreement stays near 1.
    constexpr std::size_t kStumps = 70000;
    RandomForest forest(Task::kClassification, 2, 2);
    for (std::size_t i = 0; i < kStumps; ++i) {
        DecisionTree stump;
        const auto threshold =
            static_cast<float>(i) / static_cast<float>(kStumps);
        std::int32_t root = stump.AddDecisionNode(0, threshold);
        std::int32_t lo = stump.AddLeafNode(0.0f);
        std::int32_t hi = stump.AddLeafNode(1.0f);
        stump.SetChildren(root, lo, hi);
        forest.AddTree(std::move(stump));
    }

    ForestKernel exact(forest, V2Options(KernelMode::kExact));
    ForestKernel quant(forest, V2Options(KernelMode::kQuantized));
    EXPECT_FALSE(quant.quant_exact());
    EXPECT_LE(quant.quant_max_bins(), std::size_t{0xFFFE});
    EXPECT_GT(quant.quant_max_bins(), std::size_t{60000});

    std::vector<float> rows;
    constexpr std::size_t kRows = 512;
    for (std::size_t i = 0; i < kRows; ++i) {
        rows.push_back(static_cast<float>(i) /
                       static_cast<float>(kRows));  // feature 0
        rows.push_back(0.5f);                       // feature 1 (unused)
    }
    auto got_exact = exact.Predict(rows.data(), kRows, 2);
    auto got_quant = quant.Predict(rows.data(), kRows, 2);
    std::size_t agree = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
        agree += got_exact[i] == got_quant[i];
    }
    EXPECT_GE(static_cast<double>(agree) / kRows, 0.95);
}

TEST(ForestKernelV2Test, OversizedTreesFallBackToV1)
{
    // A single tree above the 17-bit local-index budget cannot use the
    // packed v2 word; the kernel silently compiles v1 instead.
    DecisionTree chain;
    std::int32_t prev = chain.AddDecisionNode(0, 0.5f);
    for (std::size_t i = 1; i < (std::size_t{1} << 16) + 4; ++i) {
        std::int32_t next = chain.AddDecisionNode(0, 0.5f);
        std::int32_t leaf = chain.AddLeafNode(0.0f);
        chain.SetChildren(prev, next, leaf);
        prev = next;
    }
    std::int32_t l = chain.AddLeafNode(0.0f);
    std::int32_t r = chain.AddLeafNode(1.0f);
    chain.SetChildren(prev, l, r);

    RandomForest forest(Task::kClassification, 1, 2);
    forest.AddTree(std::move(chain));
    ForestKernel kernel(forest, V2Options());
    EXPECT_EQ(kernel.version(), KernelVersion::kV1);
    EXPECT_EQ(kernel.mode(), KernelMode::kExact);
}

// --------------------------------------------------------- autotuner --

TEST(ForestKernelV2Test, AutotunerIsCachedAndDeterministicPerShape)
{
    AutotuneCacheClear();
    RandomForest forest = TrainSmallIris(16, 6, 55);
    ForestKernelOptions options;  // defaults: v2, kAuto, autotune on

    ForestKernel first(forest, options);
    EXPECT_TRUE(first.autotuned());
    // Winners come from the candidate grid.
    EXPECT_TRUE(first.tuned_row_block() == 64 ||
                first.tuned_row_block() == 256);
    EXPECT_GT(first.tuned_tile_node_budget(), 0u);

    // Same shape + seed: the cached winner is reused verbatim, making
    // rebuilds (and serve-path re-registrations) deterministic.
    ForestKernel second(forest, options);
    EXPECT_TRUE(second.autotuned());
    EXPECT_EQ(second.tuned_row_block(), first.tuned_row_block());
    EXPECT_EQ(second.tuned_tile_node_budget(),
              first.tuned_tile_node_budget());
    EXPECT_EQ(second.simd_active(), first.simd_active());
    EXPECT_EQ(second.simd_groups(), first.simd_groups());

    // Tuning never changes results, only speed.
    Dataset eval = MakeIris(700, 56);
    EXPECT_EQ(first.Predict(eval.values().data(), eval.num_rows(),
                            eval.num_features()),
              Reference(forest, eval.values().data(), eval.num_rows(),
                        eval.num_features()));
    AutotuneCacheClear();
}

TEST(ForestKernelV2Test, AutotuneOffHonorsExplicitParameters)
{
    RandomForest forest = TrainSmallIris(8, 5, 57);
    ForestKernelOptions options;
    options.autotune = false;
    options.row_block = 128;
    options.tile_node_budget = 96;
    ForestKernel kernel(forest, options);
    EXPECT_FALSE(kernel.autotuned());
    EXPECT_EQ(kernel.tuned_row_block(), 128u);
    EXPECT_EQ(kernel.tuned_tile_node_budget(), 96u);
    EXPECT_GT(kernel.NumTiles(), 1u);
}

// --------------------------------------------- options as cache key --

TEST(ForestKernelV2Test, KernelCacheKeysOnOptions)
{
    RandomForest forest = TrainSmallIris(4, 4, 58);

    auto v2_default = forest.Kernel();
    EXPECT_EQ(forest.Kernel().get(), v2_default.get());  // cached

    // Different options must rebuild, not serve the stale plan (they
    // used to be silently ignored whenever a kernel was cached).
    ForestKernelOptions v1_options;
    v1_options.version = KernelVersion::kV1;
    auto v1 = forest.Kernel(v1_options);
    EXPECT_NE(v1.get(), v2_default.get());
    EXPECT_EQ(v1->version(), KernelVersion::kV1);
    EXPECT_EQ(forest.Kernel(v1_options).get(), v1.get());  // re-cached

    // And switching back rebuilds again under the default options.
    auto v2_again = forest.Kernel();
    EXPECT_NE(v2_again.get(), v1.get());
    EXPECT_EQ(v2_again->version(), KernelVersion::kV2);

    // Both versions agree bit-for-bit.
    Dataset eval = MakeIris(333, 59);
    EXPECT_EQ(v1->Predict(eval.values().data(), eval.num_rows(),
                          eval.num_features()),
              v2_again->Predict(eval.values().data(), eval.num_rows(),
                                eval.num_features()));
}

// -------------------------------------------------------------- gbdt --

TEST(ForestKernelV2Test, GbdtKernelMatchesPerRowPredict)
{
    GbdtConfig config;
    config.num_trees = 20;
    config.max_depth = 4;
    config.seed = 61;

    Dataset train_r = MakeSyntheticRegression(300, 6, 0.1, 61);
    GradientBoostedModel reg = TrainGbdtRegressor(train_r, config);
    ASSERT_TRUE(ForestKernel::Supports(reg));
    Dataset eval_r = MakeSyntheticRegression(513, 6, 0.1, 62);
    auto kernel_r = reg.Kernel();
    EXPECT_EQ(kernel_r->combine(), KernelCombine::kMargin);
    auto got_r = kernel_r->Predict(eval_r.values().data(),
                                   eval_r.num_rows(),
                                   eval_r.num_features());
    for (std::size_t i = 0; i < eval_r.num_rows(); ++i) {
        ASSERT_EQ(got_r[i], reg.Predict(eval_r.Row(i))) << "row " << i;
    }

    Dataset train_c = MakeHiggs(300, 63);
    GradientBoostedModel cls = TrainGbdtClassifier(train_c, config);
    Dataset eval_c = MakeHiggs(513, 64);
    auto kernel_c = cls.Kernel();
    EXPECT_EQ(kernel_c->combine(), KernelCombine::kMarginClassify);
    auto got_c = kernel_c->Predict(eval_c.values().data(),
                                   eval_c.num_rows(),
                                   eval_c.num_features());
    for (std::size_t i = 0; i < eval_c.num_rows(); ++i) {
        ASSERT_EQ(got_c[i], cls.Predict(eval_c.Row(i))) << "row " << i;
    }

    // The batch entry point routes through the same kernel.
    EXPECT_EQ(cls.PredictBatch(eval_c), got_c);
    // And the cache invalidates on mutation, like the forest's.
    auto before = cls.Kernel();
    EXPECT_EQ(cls.Kernel().get(), before.get());
    DecisionTree stump;
    stump.AddLeafNode(0.5f);
    cls.AddTree(std::move(stump));
    EXPECT_NE(cls.Kernel().get(), before.get());
}

// -------------------------------------------------------------- trace --

TEST(ForestKernelV2Test, KernelBuildEmitsTraceStage)
{
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.Clear();
    AutotuneCacheClear();

    RandomForest forest = TrainSmallIris(8, 5, 65);
    ForestKernelOptions options;  // autotune on: expect the child span
    ForestKernel kernel(forest, options);
    (void)kernel;

    bool saw_build = false;
    bool saw_autotune = false;
    for (const auto& span : tracer.Spans()) {
        if (span.stage == trace::StageKind::kKernelBuild) {
            if (std::string_view(span.name) == "kernel-build") {
                saw_build = true;
            }
            if (std::string_view(span.name) == "kernel-autotune") {
                saw_autotune = true;
            }
        }
    }
    EXPECT_TRUE(saw_build);
    EXPECT_TRUE(saw_autotune);
    tracer.Clear();
    AutotuneCacheClear();
}

TEST(ForestKernelV2Test, BuildWallTimeIsStampedUnderBothVersions)
{
    RandomForest forest = TrainSmallIris(8, 5, 69);
    for (KernelVersion version : {KernelVersion::kV1, KernelVersion::kV2}) {
        ForestKernelOptions options;
        options.version = version;
        ForestKernel kernel(forest, options);
        EXPECT_EQ(kernel.version(), version);
        EXPECT_GT(kernel.build_wall_ms(), 0.0)
            << (version == KernelVersion::kV2 ? "v2" : "v1");
    }
}

// ------------------------------------------------------------ scratch --

TEST(ForestKernelV2Test, ScratchReusableAcrossModesAndBatches)
{
    RandomForest forest = TrainSmallIris(8, 6, 66);
    Dataset a = MakeIris(700, 67);
    Dataset b = MakeIris(130, 68);
    ForestKernel exact(forest, V2Options(KernelMode::kExact));
    ForestKernel quant(forest, V2Options(KernelMode::kQuantized));

    ForestKernel::Scratch scratch;
    std::vector<float> out_a(a.num_rows());
    std::vector<float> out_b(b.num_rows());
    // The same scratch serves exact and quantized plans back to back.
    exact.Run(a.values().data(), a.num_rows(), a.num_features(),
              out_a.data(), scratch);
    quant.Run(b.values().data(), b.num_rows(), b.num_features(),
              out_b.data(), scratch);
    EXPECT_EQ(out_a, Reference(forest, a.values().data(), a.num_rows(),
                               a.num_features()));
    EXPECT_EQ(out_b, Reference(forest, b.values().data(), b.num_rows(),
                               b.num_features()));
    quant.Run(a.values().data(), a.num_rows(), a.num_features(),
              out_a.data(), scratch);
    EXPECT_EQ(out_a, Reference(forest, a.values().data(), a.num_rows(),
                               a.num_features()));
}

}  // namespace
}  // namespace dbscore
