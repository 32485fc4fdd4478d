/**
 * @file
 * Tests for the logical/physical plan pipeline: SCORE parsing
 * round-trips, rewrite-rule plan shapes, the LRU plan cache, and
 * bit-identity between optimized and naive plans across both table
 * backings and model families.
 */
#include <filesystem>
#include <variant>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/plan/logical.h"
#include "dbscore/dbms/plan/physical.h"
#include "dbscore/dbms/plan/plan_cache.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/dbms/plan/rewrite.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/dbms/sql.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/serve/service_proc.h"
#include "dbscore/trace/trace.h"

namespace dbscore {
namespace {

SelectStatement
ParseSelect(const std::string& sql)
{
    Statement stmt = ParseSql(sql);
    return std::get<SelectStatement>(stmt);
}

// ------------------------------------------------------- SQL round-trips --

TEST(ScoreParseTest, ScoreInSelectList)
{
    SelectStatement s =
        ParseSelect("SELECT id, SCORE(m, f0, f1) FROM t");
    ASSERT_EQ(s.scores.size(), 1u);
    EXPECT_EQ(s.scores[0].model, "m");
    EXPECT_EQ(s.scores[0].features,
              (std::vector<std::string>{"f0", "f1"}));
    ASSERT_EQ(s.items.size(), 2u);
    EXPECT_EQ(s.items[0].kind, SelectItemKind::kColumn);
    EXPECT_EQ(s.items[1].kind, SelectItemKind::kScore);
    EXPECT_TRUE(s.HasScore());
    EXPECT_EQ(ScoreExprToString(s.scores[0]), "SCORE(m, f0, f1)");
}

TEST(ScoreParseTest, ScoreInWhereAndOrderBy)
{
    SelectStatement s = ParseSelect(
        "SELECT TOP 5 id FROM t WHERE SCORE(m) > 0.5 AND x <= 3 "
        "ORDER BY SCORE(m) DESC");
    ASSERT_EQ(s.where.size(), 2u);
    ASSERT_TRUE(s.where[0].score.has_value());
    EXPECT_EQ(s.where[0].score->model, "m");
    EXPECT_TRUE(s.where[0].score->features.empty());
    EXPECT_EQ(s.where[0].op, CompareOp::kGt);
    EXPECT_FALSE(s.where[1].score.has_value());
    ASSERT_TRUE(s.order_by.has_value());
    ASSERT_TRUE(s.order_by->score.has_value());
    EXPECT_TRUE(s.order_by->descending);
    EXPECT_EQ(s.top, std::size_t{5});
}

TEST(ScoreParseTest, ScoreInAggregates)
{
    SelectStatement s =
        ParseSelect("SELECT AVG(SCORE(m)), COUNT(*) FROM t");
    ASSERT_EQ(s.aggregates.size(), 2u);
    ASSERT_TRUE(s.aggregates[0].score.has_value());
    EXPECT_EQ(s.aggregates[0].func, AggFunc::kAvg);
    EXPECT_FALSE(s.aggregates[1].score.has_value());
}

TEST(ScoreParseTest, ColumnNamedScoreIsStillAColumn)
{
    // "score" only becomes the operator when followed by '('.
    SelectStatement s =
        ParseSelect("SELECT score FROM t WHERE score > 1 ORDER BY score");
    EXPECT_FALSE(s.HasScore());
    ASSERT_EQ(s.columns.size(), 1u);
    EXPECT_EQ(s.columns[0], "score");
    EXPECT_EQ(s.where[0].column, "score");
    EXPECT_EQ(s.order_by->column, "score");
}

TEST(ScoreParseTest, TrailingGarbageRejected)
{
    EXPECT_THROW(ParseSql("SELECT a FROM t banana"), ParseError);
    EXPECT_THROW(ParseSql("SELECT a FROM t; SELECT b FROM t"),
                 ParseError);
    // A single trailing semicolon stays legal.
    EXPECT_NO_THROW(ParseSql("SELECT a FROM t;"));
}

// ----------------------------------------------------------- fixtures --

/** Trained models + a 5-feature dataset stored both ways. */
class PlanTest : public ::testing::Test {
 protected:
    void SetUp() override
    {
        const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               (std::string("dbscore_plan_") + info->name());
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);

        data_ = MakeHiggs(600, 17);
        ForestTrainerConfig config;
        config.num_trees = 16;
        config.max_depth = 8;
        config.seed = 17;
        forest_ = TrainForest(data_, config);

        reg_data_ = MakeSyntheticRegression(600, 6, 0.1, 17);
        ForestTrainerConfig reg_config;
        reg_config.num_trees = 16;
        reg_config.max_depth = 8;
        reg_config.seed = 18;
        reg_forest_ = TrainForest(reg_data_, reg_config);

        db_.StoreDataset("mem", data_);
        storage::StorageOptions options;
        options.page_size = 1024;
        options.pool_pages = 4;
        db_.StoreDatasetPaged("paged", data_,
                              (dir_ / "t.dbpages").string(), options);
        db_.StoreDataset("reg_mem", reg_data_);
        db_.StoreDatasetPaged("reg_paged", reg_data_,
                              (dir_ / "r.dbpages").string(), options);
        db_.StoreModel("m", TreeEnsemble::FromForest(forest_));
        db_.StoreModel("reg", TreeEnsemble::FromForest(reg_forest_));
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    plan::LogicalPlan
    Optimized(const std::string& sql, const std::string& table)
    {
        plan::LogicalPlan plan = plan::BuildLogicalPlan(
            ParseSelect(sql), db_.GetTable(table));
        plan::RewritePlan(plan);
        return plan;
    }

    std::filesystem::path dir_;
    Database db_;
    Dataset data_{"empty", Task::kClassification, 1, 2};
    Dataset reg_data_{"empty", Task::kRegression, 1, 0};
    RandomForest forest_;
    RandomForest reg_forest_;
};

// --------------------------------------------------------- plan shapes --

TEST_F(PlanTest, NaivePlanShape)
{
    plan::LogicalPlan plan = plan::BuildLogicalPlan(
        ParseSelect("SELECT SCORE(m) FROM mem WHERE kin_0 > 1"),
        db_.GetTable("mem"));
    const std::string tree = plan.ToString();
    EXPECT_NE(tree.find("Project"), std::string::npos);
    EXPECT_NE(tree.find("Score"), std::string::npos);
    EXPECT_NE(tree.find("Filter"), std::string::npos);
    EXPECT_NE(tree.find("Scan"), std::string::npos);
    EXPECT_TRUE(plan.applied_rules.empty());
}

TEST_F(PlanTest, ScoreThresholdPushdownMarksEarlyExit)
{
    plan::LogicalPlan plan = Optimized(
        "SELECT COUNT(*) FROM mem WHERE SCORE(m) > 0.5", "mem");
    const std::string tree = plan.ToString();
    EXPECT_NE(tree.find("FilterScore"), std::string::npos);
    EXPECT_NE(tree.find("[early-exit]"), std::string::npos);
    // Aggregates fold into the morsel loop with no rule marking them:
    // the threshold pushdown is the one rule applied.
    EXPECT_EQ(tree.find("[fused]"), std::string::npos);
    ASSERT_EQ(plan.applied_rules.size(), 1u);
    EXPECT_NE(plan.applied_rules[0].find("score-threshold-pushdown"),
              std::string::npos);
}

TEST_F(PlanTest, ScoreValueNeededDisablesEarlyExit)
{
    // The score is projected, so the kernel must produce the value
    // anyway — pushing the threshold would double the traversals.
    plan::LogicalPlan plan = Optimized(
        "SELECT SCORE(m) FROM mem WHERE SCORE(m) > 0.5", "mem");
    const plan::LogicalOp* fs =
        plan.Find(plan::LogicalOpKind::kFilterScore);
    ASSERT_NE(fs, nullptr);
    ASSERT_EQ(fs->score_predicates.size(), 1u);
    EXPECT_FALSE(fs->score_predicates[0].early_exit);
}

TEST_F(PlanTest, ZonePushdownOnlyForPagedScans)
{
    plan::LogicalPlan mem = Optimized(
        "SELECT SCORE(m) FROM mem WHERE kin_0 > 2", "mem");
    EXPECT_EQ(mem.ToString().find("zone=["), std::string::npos);

    plan::LogicalPlan paged = Optimized(
        "SELECT SCORE(m) FROM paged WHERE kin_0 > 2", "paged");
    const std::string tree = paged.ToString();
    EXPECT_NE(tree.find("zone=["), std::string::npos);
    EXPECT_NE(tree.find("paged"), std::string::npos);
    const plan::LogicalOp* scan =
        paged.Find(plan::LogicalOpKind::kScan);
    ASSERT_NE(scan, nullptr);
    ASSERT_TRUE(scan->zone_predicate.has_value());
    EXPECT_FLOAT_EQ(scan->zone_predicate->min, 2.0F);
}

TEST_F(PlanTest, BadScoreReferencesThrow)
{
    EXPECT_THROW(
        plan::BuildLogicalPlan(
            ParseSelect("SELECT SCORE(m, nope) FROM mem"),
            db_.GetTable("mem")),
        NotFound);
    EXPECT_THROW(
        plan::BuildLogicalPlan(
            ParseSelect("SELECT SCORE(m, label) FROM mem"),
            db_.GetTable("mem")),
        InvalidArgument);
    // Arity mismatch surfaces at physical compile.
    plan::LogicalPlan bad = plan::BuildLogicalPlan(
        ParseSelect("SELECT SCORE(m, kin_0) FROM mem"),
        db_.GetTable("mem"));
    EXPECT_THROW(plan::PhysicalPlan(std::move(bad), db_),
                 InvalidArgument);
}

// ----------------------------------------------------------- plan cache --

TEST_F(PlanTest, PlanCacheHitsOnNormalizedText)
{
    plan::Planner planner(db_);
    const SelectStatement stmt =
        ParseSelect("SELECT SCORE(m) FROM mem");
    auto first = planner.Plan(stmt, "SELECT SCORE(m) FROM mem");
    auto second = planner.Plan(stmt, "select   SCORE(m)\n FROM mem");
    EXPECT_EQ(first.get(), second.get());  // same compiled plan object
    const plan::PlanCacheStats stats = planner.CacheStats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST_F(PlanTest, NormalizationPreservesStringLiterals)
{
    EXPECT_EQ(plan::Planner::NormalizeSql("SELECT  A FROM t"),
              "select a from t");
    EXPECT_EQ(plan::Planner::NormalizeSql("SELECT 'A  B' FROM t"),
              "select 'A  B' from t");
}

TEST_F(PlanTest, CatalogChangeInvalidatesCachedPlans)
{
    plan::Planner planner(db_);
    const SelectStatement stmt =
        ParseSelect("SELECT SCORE(m) FROM mem");
    auto first = planner.Plan(stmt, "SELECT SCORE(m) FROM mem");
    // Re-storing the model must recompile: the cached plan captured
    // the old blob.
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 4;
    config.seed = 99;
    db_.StoreModel("m",
                   TreeEnsemble::FromForest(TrainForest(data_, config)));
    auto second = planner.Plan(stmt, "SELECT SCORE(m) FROM mem");
    EXPECT_NE(first.get(), second.get());
    EXPECT_EQ(planner.CacheStats().invalidations, 1u);
}

TEST_F(PlanTest, LruEvictsAtCapacity)
{
    plan::PlanCache cache(2);
    auto make = [this](const std::string& sql) {
        plan::LogicalPlan logical = plan::BuildLogicalPlan(
            ParseSelect(sql), db_.GetTable("mem"));
        return std::make_shared<plan::PhysicalPlan>(std::move(logical),
                                                    db_);
    };
    cache.Insert("a", 0, make("SELECT kin_0 FROM mem"));
    cache.Insert("b", 0, make("SELECT kin_1 FROM mem"));
    EXPECT_NE(cache.Lookup("a", 0), nullptr);  // touch a -> b is LRU
    cache.Insert("c", 0, make("SELECT kin_2 FROM mem"));
    EXPECT_EQ(cache.Lookup("b", 0), nullptr);
    EXPECT_NE(cache.Lookup("a", 0), nullptr);
    EXPECT_NE(cache.Lookup("c", 0), nullptr);
    EXPECT_EQ(cache.Stats().evictions, 1u);
}

// ---------------------------------------------- optimized == naive --

/** Executes @p sql with and without the rewriter; results must match
 * bit for bit (same Value types, same order). */
void
ExpectRewriteInvariant(Database& db, const std::string& sql)
{
    plan::Planner naive(db, {/*optimize=*/false});
    plan::Planner optimized(db, {/*optimize=*/true});
    const SelectStatement stmt = ParseSelect(sql);
    const QueryResult a = naive.ExecuteSelect(stmt, sql);
    const QueryResult b = optimized.ExecuteSelect(stmt, sql);
    ASSERT_EQ(a.columns, b.columns) << sql;
    ASSERT_EQ(a.rows.size(), b.rows.size()) << sql;
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        ASSERT_EQ(a.rows[r].size(), b.rows[r].size()) << sql;
        for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
            EXPECT_EQ(a.rows[r][c], b.rows[r][c])
                << sql << " row " << r << " col " << c;
        }
    }
}

TEST_F(PlanTest, OptimizedMatchesNaiveAcrossShapes)
{
    for (const char* table : {"mem", "paged"}) {
        for (const std::string sql : {
                 std::string("SELECT SCORE(m) FROM ") + table,
                 std::string("SELECT kin_0, SCORE(m) FROM ") + table +
                     " WHERE SCORE(m) > 0.5",
                 std::string("SELECT COUNT(*) FROM ") + table +
                     " WHERE SCORE(m) > 0.5",
                 std::string("SELECT COUNT(*), AVG(SCORE(m)), "
                             "MAX(SCORE(m)) FROM ") +
                     table + " WHERE kin_0 > 0.5",
                 std::string("SELECT TOP 7 SCORE(m) FROM ") + table +
                     " WHERE kin_0 > 0.2 AND SCORE(m) >= 0.3 "
                     "ORDER BY SCORE(m) DESC",
                 std::string("SELECT SCORE(m) FROM ") + table +
                     " WHERE SCORE(m) > 0.1",  // 0.1 not float-exact
             }) {
            ExpectRewriteInvariant(db_, sql);
        }
    }
}

TEST_F(PlanTest, PlainLiteralTypesAreCheckedAtPlanTime)
{
    // kin_0 > 1e9 lets the paged zone map prune every page, so no row
    // ever reaches kin_1 = 'x'; the statement still fails, the same way
    // on both backings and through both planners, with SCORE or not.
    for (const char* table : {"mem", "paged"}) {
        for (const char* tail : {"", " AND SCORE(m) > 0.5"}) {
            const std::string sql = std::string("SELECT COUNT(*) FROM ") +
                                    table +
                                    " WHERE kin_1 = 'x' AND kin_0 > 1e9" +
                                    tail;
            for (const bool optimize : {true, false}) {
                plan::Planner planner(db_, {optimize});
                EXPECT_THROW(planner.PlanQuery(sql)->Execute(db_),
                             InvalidArgument)
                    << sql << (optimize ? " (optimized)" : " (naive)");
            }
        }
    }
    // Declared column types decide, not the rows: the table is empty.
    db_.CreateTable("typed", {{"name", ColumnType::kString},
                              {"n", ColumnType::kInt64},
                              {"x", ColumnType::kDouble},
                              {"b", ColumnType::kBlob}});
    plan::Planner planner(db_);
    for (const char* bad : {"SELECT n FROM typed WHERE name = 1",
                            "SELECT n FROM typed WHERE n = 'one'",
                            "SELECT n FROM typed WHERE x < 'one'",
                            "SELECT n FROM typed WHERE b = 'x'",
                            "SELECT n FROM typed WHERE b = 1"}) {
        EXPECT_THROW(planner.PlanQuery(bad), InvalidArgument) << bad;
    }
    for (const char* good : {"SELECT n FROM typed WHERE name = 'one'",
                             "SELECT n FROM typed WHERE n = 1.5",
                             "SELECT n FROM typed WHERE x < 2"}) {
        EXPECT_TRUE(planner.PlanQuery(good)->Execute(db_).rows.empty())
            << good;
    }
}

TEST_F(PlanTest, ScoreReadsOnlyItsOwnNumericColumns)
{
    // A 4-feature model over a table whose first column is text: a
    // SCORE reads its own columns, whatever else the statement reads.
    const Dataset train = MakeSyntheticRegression(200, 4, 0.1, 19);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 4;
    config.seed = 19;
    const RandomForest forest = TrainForest(train, config);
    db_.StoreModel("m4", TreeEnsemble::FromForest(forest));
    const std::vector<ColumnDef> schema = {{"name", ColumnType::kString},
                                           {"a", ColumnType::kDouble},
                                           {"b", ColumnType::kDouble},
                                           {"c", ColumnType::kDouble},
                                           {"d", ColumnType::kDouble}};
    Table& t = db_.CreateTable("t", schema);
    t.AppendRow({std::string("x"), 0.1, 0.9, 0.4, 0.3});
    t.AppendRow({std::string("y"), 0.7, 0.2, 0.6, 0.8});
    db_.CreateTable("e", schema);
    const std::vector<float> features = {0.1F, 0.9F, 0.4F, 0.3F,
                                         0.7F, 0.2F, 0.6F, 0.8F};
    const std::vector<float> want =
        forest.PredictBatch(RowView::Borrow(features.data(), 2, 4));
    for (const bool optimize : {true, false}) {
        plan::Planner planner(db_, {optimize});
        const std::string mode = optimize ? " (optimized)" : " (naive)";
        auto run = [&](const std::string& sql) {
            return planner.PlanQuery(sql)->Execute(db_);
        };
        const QueryResult scored =
            run("SELECT name, SCORE(m4, a, b, c, d) FROM t");
        ASSERT_EQ(scored.rows.size(), 2u) << mode;
        for (std::size_t r = 0; r < 2; ++r) {
            EXPECT_EQ(scored.rows[r][0], Value(std::string(r == 0 ? "x" : "y")))
                << mode;
            EXPECT_EQ(scored.rows[r][1], Value(static_cast<double>(want[r])))
                << mode;
        }
        const QueryResult top =
            run("SELECT TOP 1 name FROM t ORDER BY SCORE(m4, a, b, c, d) DESC");
        ASSERT_EQ(top.rows.size(), 1u) << mode;
        EXPECT_EQ(top.rows[0][0],
                  Value(std::string(want[1] > want[0] ? "y" : "x")))
            << mode;
        EXPECT_EQ(run("SELECT SCORE(m4, a, b, c, d) FROM t").rows.size(), 2u)
            << mode;
        const QueryResult count =
            run("SELECT COUNT(*) FROM t WHERE SCORE(m4, a, b, c, d) > 0.5");
        EXPECT_EQ(count.rows[0][0],
                  Value(static_cast<std::int64_t>((want[0] > 0.5F ? 1 : 0) +
                                                  (want[1] > 0.5F ? 1 : 0))))
            << mode;
        EXPECT_TRUE(
            run("SELECT name, SCORE(m4, a, b, c, d) FROM e").rows.empty())
            << mode;
        // A text or binary feature fails at plan time, on a filled table
        // and an empty one alike, naming the model, column and type.
        for (const char* bad : {"SELECT SCORE(m4, name, a, b, c) FROM t",
                                "SELECT SCORE(m4, name, a, b, c) FROM e",
                                "SELECT COUNT(*) FROM e WHERE "
                                "SCORE(m4, a, name, b, c) > 0.5"}) {
            try {
                (void)planner.PlanQuery(bad);
                ADD_FAILURE() << bad << mode << ": planned";
            } catch (const InvalidArgument& e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("m4"), std::string::npos) << what;
                EXPECT_NE(what.find("name"), std::string::npos) << what;
                EXPECT_NE(what.find("VARCHAR"), std::string::npos) << what;
            }
        }
    }
    db_.CreateTable("bin", {{"a", ColumnType::kDouble},
                            {"b", ColumnType::kDouble},
                            {"c", ColumnType::kDouble},
                            {"raw", ColumnType::kBlob}});
    plan::Planner planner(db_);
    EXPECT_THROW(planner.PlanQuery("SELECT SCORE(m4, a, b, c, raw) FROM bin"),
                 InvalidArgument);
    EXPECT_THROW(planner.PlanQuery("SELECT SCORE(m4) FROM bin"),
                 InvalidArgument);
}

TEST_F(PlanTest, OptimizedMatchesNaiveForRegression)
{
    for (const char* table : {"reg_mem", "reg_paged"}) {
        ExpectRewriteInvariant(
            db_, std::string("SELECT COUNT(*) FROM ") + table +
                     " WHERE SCORE(reg) > 0");
        ExpectRewriteInvariant(
            db_, std::string("SELECT SCORE(reg), f0 FROM ") + table +
                     " WHERE f1 <= 0.5 ORDER BY SCORE(reg)");
    }
}

TEST_F(PlanTest, ScoreMatchesReferencePredictions)
{
    plan::Planner planner(db_);
    const std::string sql = "SELECT SCORE(m) FROM mem";
    const QueryResult result =
        planner.ExecuteSelect(ParseSelect(sql), sql);
    const std::vector<float> expected = forest_.PredictBatch(data_);
    ASSERT_EQ(result.rows.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(std::get<double>(result.rows[i][0]),
                  static_cast<double>(expected[i]));
    }
}

TEST_F(PlanTest, EarlyExitActuallySkipsTreeWork)
{
    // Regression forests use the accumulate combiner, so a pushed
    // threshold no partial sum can reach decides every row at the
    // first suffix-bound checkpoint.
    const std::string sql =
        "SELECT COUNT(*) FROM mem WHERE SCORE(reg) > 1000000";
    Database db;
    db.StoreDataset("mem", reg_data_);
    db.StoreModel("reg", TreeEnsemble::FromForest(reg_forest_));
    plan::Planner planner(db);
    const SelectStatement stmt = ParseSelect(sql);
    auto plan = planner.Plan(stmt, sql);
    (void)plan->Execute(db);
    const ThresholdStats stats = plan->threshold_stats();
    EXPECT_EQ(stats.rows, reg_data_.num_rows());
    EXPECT_GT(stats.rows_decided_early, 0u);
    EXPECT_LT(stats.tree_traversals, stats.tree_traversals_full);
}

TEST_F(PlanTest, EarlyExitPlanCompilesOneKernelPerScore)
{
    // The early-exit predicate runs on the SCORE's one kernel: a cold
    // plan compiles it once, and the threshold path aliases it.
    const std::string sql =
        "SELECT COUNT(*) FROM reg_mem WHERE SCORE(reg) > 0.5";
    plan::Planner planner(db_);
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.Clear();
    auto plan = planner.Plan(ParseSelect(sql), sql);
    std::size_t builds = 0;
    for (const auto& span : tracer.Spans()) {
        builds += span.stage == trace::StageKind::kKernelBuild;
    }
    EXPECT_EQ(builds, 1u);
    ASSERT_EQ(plan->scores().size(), 1u);
    const plan::CompiledScore& cs = plan->scores()[0];
    ASSERT_NE(cs.kernel, nullptr);
    EXPECT_EQ(cs.threshold_kernel, cs.kernel);

    (void)plan->Execute(db_);
    EXPECT_GT(plan->threshold_stats().rows, 0u);
    tracer.Clear();
}

TEST_F(PlanTest, ScoreOverBadModelBlobIsATypedError)
{
    // A stored classification blob whose leaf is no class id must
    // fail the SCORE with a ParseError, not abort the process.
    TreeEnsemble bad = TreeEnsemble::FromForest(forest_);
    for (std::size_t i = 0; i < bad.NumNodes(); ++i) {
        if (bad.modes[i] == NodeMode::kLeaf) {
            bad.leaf_values[i] = 7.0f;
            break;
        }
    }
    db_.StoreModel("bad", bad);
    plan::Planner planner(db_);
    for (const char* sql :
         {"SELECT SCORE(bad) FROM mem",
          "SELECT COUNT(*) FROM mem WHERE SCORE(bad) > 0.5",
          "SELECT SCORE(bad) FROM paged"}) {
        EXPECT_THROW(planner.ExecuteSelect(ParseSelect(sql), sql),
                     ParseError)
            << sql;
    }
}

// --------------------------------------------------- engine + explain --

struct PlanEngineFixture {
    Database db;
    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    ScoringPipeline pipeline{db, profile, rt_params};
    QueryEngine engine{db, pipeline};
};

TEST(PlanEngineTest, SpExplainShowsRulesAndCache)
{
    PlanEngineFixture f;
    const Dataset data = MakeHiggs(300, 19);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 19;
    f.db.StoreDataset("t", data);
    f.db.StoreModel("m",
                    TreeEnsemble::FromForest(TrainForest(data, config)));

    QueryResult result = f.engine.Execute(
        "EXEC sp_explain "
        "@query='SELECT COUNT(*) FROM t WHERE SCORE(m) > 0.5'");
    const std::string text = result.ToString();
    EXPECT_NE(text.find("FilterScore"), std::string::npos);
    EXPECT_NE(text.find("score-threshold-pushdown"), std::string::npos);
    // No rule marks the aggregate: every SELECT folds it into the
    // morsel loop. The threshold pushdown is the one rewrite line, and
    // no logical or physical line tags the aggregate.
    std::size_t rewrite_lines = 0;
    for (const auto& row : result.rows) {
        rewrite_lines += ValueToString(row[0]) == "rewrite" ? 1 : 0;
    }
    EXPECT_EQ(rewrite_lines, 1u);
    EXPECT_EQ(text.find("[fused]"), std::string::npos);
    EXPECT_EQ(text.find("aggregate:"), std::string::npos);
    EXPECT_NE(text.find("kernel"), std::string::npos);
    EXPECT_NE(text.find("hits="), std::string::npos);

    // Executing the explained query hits the cached plan.
    (void)f.engine.Execute(
        "SELECT COUNT(*) FROM t WHERE SCORE(m) > 0.5");
    EXPECT_GE(f.engine.planner().CacheStats().hits, 1u);
}

TEST(PlanEngineTest, SpExplainShowsOneEarlyExitKernel)
{
    PlanEngineFixture f;
    const Dataset data = MakeSyntheticRegression(300, 4, 0.1, 20);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 20;
    f.db.StoreDataset("t", data);
    f.db.StoreModel("r",
                    TreeEnsemble::FromForest(TrainForest(data, config)));

    const std::string text =
        f.engine
            .Execute("EXEC sp_explain "
                     "@query='SELECT COUNT(*) FROM t WHERE SCORE(r) > 0.5'")
            .ToString();
    EXPECT_NE(text.find("kernel (8 trees) [early-exit]"), std::string::npos)
        << text;
    EXPECT_EQ(text.find("kernel ("), text.rfind("kernel (")) << text;
    EXPECT_EQ(text.find("threshold kernel"), std::string::npos) << text;
}

TEST(PlanEngineTest, SpExplainShowsTheRisingTopNThreshold)
{
    // Enough 1024-row morsels that some are offered after the TOP-N
    // heap is full, whatever the shared pool's size.
    PlanEngineFixture f;
    const Dataset data = MakeSyntheticRegression(
        (2 * ThreadPool::Shared().size() + 4) * 1024, 4, 0.1, 21);
    ForestTrainerConfig config;
    config.num_trees = 16;
    config.max_depth = 6;
    config.seed = 21;
    f.db.StoreDataset("t", data);
    f.db.StoreModel("r",
                    TreeEnsemble::FromForest(TrainForest(data, config)));
    const std::string sql =
        "SELECT TOP 10 f0, SCORE(r) FROM t ORDER BY SCORE(r) DESC";
    (void)f.engine.Execute(sql);
    const std::string text =
        f.engine.Execute("EXEC sp_explain @query='" + sql + "'").ToString();
    EXPECT_NE(
        text.find("score-topn-threshold(SCORE(r, f0, f1, f2, f3) DESC, 10)"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("[rising-threshold]"), std::string::npos) << text;
    EXPECT_NE(text.find("top-n: TOP 10"), std::string::npos) << text;
    EXPECT_EQ(text.find("top-n:"), text.rfind("top-n:")) << text;
    EXPECT_EQ(text.find("kernel ("), text.rfind("kernel (")) << text;
    EXPECT_NE(text.find("early-exit: "), std::string::npos) << text;

    // The naive plan, the oracle, shows neither the rule nor its work.
    plan::Planner naive(f.db, {false});
    const auto plan = naive.PlanQuery(sql);
    (void)plan->Execute(f.db);
    EXPECT_TRUE(plan->logical().applied_rules.empty());
    EXPECT_EQ(plan->logical().ToString().find("[rising-threshold]"),
              std::string::npos);
    for (const std::string& line : plan->ExplainPhysical()) {
        EXPECT_EQ(line.find("top-n"), std::string::npos) << line;
        EXPECT_EQ(line.find("early-exit"), std::string::npos) << line;
    }
}

TEST(PlanEngineTest, LegacyPlainSelectSemanticsPreserved)
{
    PlanEngineFixture f;
    f.engine.Execute("CREATE TABLE pets (name VARCHAR, age INT)");
    f.engine.Execute(
        "INSERT INTO pets VALUES ('rex', 3), ('ada', 5), ('bo', 5)");
    QueryResult ordered = f.engine.Execute(
        "SELECT name FROM pets ORDER BY age DESC");
    ASSERT_EQ(ordered.rows.size(), 3u);
    // stable sort: ties keep insertion order
    EXPECT_EQ(std::get<std::string>(ordered.rows[0][0]), "ada");
    EXPECT_EQ(std::get<std::string>(ordered.rows[1][0]), "bo");
    EXPECT_THROW(
        f.engine.Execute("SELECT AVG(age) FROM pets WHERE age > 99"),
        InvalidArgument);  // "AVG over zero rows"
    QueryResult count =
        f.engine.Execute("SELECT COUNT(*) FROM pets WHERE age = 5");
    EXPECT_EQ(std::get<std::int64_t>(count.rows[0][0]), 2);
}

TEST(PlanEngineTest, ModelInsertInvalidatesThroughEngine)
{
    PlanEngineFixture f;
    const Dataset data = MakeHiggs(200, 23);
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 5;
    config.seed = 23;
    f.db.StoreDataset("t", data);
    f.db.StoreModel("m",
                    TreeEnsemble::FromForest(TrainForest(data, config)));
    (void)f.engine.Execute("SELECT SCORE(m) FROM t");
    const std::uint64_t version = f.db.catalog_version();
    // Any INSERT into the models table bumps the catalog version.
    f.db.StoreModel("m2",
                    TreeEnsemble::FromForest(TrainForest(data, config)));
    EXPECT_GT(f.db.catalog_version(), version);
    (void)f.engine.Execute("SELECT SCORE(m) FROM t");
    EXPECT_GE(f.engine.planner().CacheStats().invalidations, 1u);
}

// ------------------------------------------------------ serve bridge --

TEST(PlanEngineTest, SpServeQueryMatchesInEngineExecution)
{
    PlanEngineFixture f;
    const Dataset data = MakeHiggs(400, 31);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 31;
    const RandomForest forest = TrainForest(data, config);
    f.db.StoreDataset("t", data);
    f.db.StoreModel("m", TreeEnsemble::FromForest(forest));

    serve::ScoringService service(f.profile, serve::ServiceConfig{});
    service.RegisterModel("m", TreeEnsemble::FromForest(forest),
                          ComputeModelStats(forest, &data));
    serve::RegisterServeProcedures(f.engine, service);
    service.Start();

    const std::string query =
        "SELECT SCORE(m) FROM t WHERE kin_0 > 0.5 AND "
        "SCORE(m) > 0.4";
    QueryResult served = f.engine.Execute(
        "EXEC sp_serve_query @query='" + query + "'");
    QueryResult local = f.engine.Execute(query);
    ASSERT_EQ(served.rows.size(), local.rows.size());
    for (std::size_t i = 0; i < served.rows.size(); ++i) {
        // served: (row_id, prediction); local: (prediction)
        EXPECT_EQ(std::get<double>(served.rows[i][1]),
                  std::get<double>(local.rows[i][0]));
    }

    // Statements whose in-engine result the served rows cannot
    // reproduce — a plain-column ORDER BY, an aggregate — are refused,
    // not answered with the wrong rows.
    for (const char* refused :
         {"SELECT TOP 5 SCORE(m) FROM t WHERE kin_0 > 0.5 "
          "ORDER BY kin_1 DESC",
          "SELECT COUNT(*) FROM t WHERE SCORE(m) > 0.4"}) {
        EXPECT_NO_THROW(f.engine.Execute(refused)) << refused;
        EXPECT_THROW(f.engine.Execute(std::string("EXEC sp_serve_query "
                                                  "@query='") +
                                      refused + "'"),
                     InvalidArgument)
            << refused;
    }
    service.Stop();
}

}  // namespace
}  // namespace dbscore
