/**
 * @file
 * Tests for the mini-DBMS: values, tables, catalog, the SQL parser, the
 * query engine, the external runtime cost model, and the end-to-end
 * scoring pipeline.
 */
#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/dbms/sql.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"

namespace dbscore {
namespace {

// -------------------------------------------------------------- value --

TEST(ValueTest, TypesAndRendering)
{
    Value i = std::int64_t{42};
    Value d = 2.5;
    Value s = std::string("abc");
    Value b = std::vector<std::uint8_t>{1, 2, 3};
    EXPECT_EQ(TypeOf(i), ColumnType::kInt64);
    EXPECT_EQ(TypeOf(d), ColumnType::kDouble);
    EXPECT_EQ(TypeOf(s), ColumnType::kString);
    EXPECT_EQ(TypeOf(b), ColumnType::kBlob);
    EXPECT_EQ(ValueToString(i), "42");
    EXPECT_EQ(ValueToString(d), "2.5");
    EXPECT_EQ(ValueToString(b), "<3 bytes>");
}

TEST(ValueTest, NumericCoercionAndComparison)
{
    EXPECT_DOUBLE_EQ(ValueAsDouble(Value(std::int64_t{3})), 3.0);
    EXPECT_THROW(ValueAsDouble(Value(std::string("x"))), InvalidArgument);
    EXPECT_EQ(CompareValues(Value(std::int64_t{2}), Value(2.0)), 0);
    EXPECT_LT(CompareValues(Value(1.5), Value(std::int64_t{2})), 0);
    EXPECT_GT(CompareValues(Value(std::string("b")),
                            Value(std::string("a"))),
              0);
    EXPECT_THROW(CompareValues(Value(std::string("a")), Value(1.0)),
                 InvalidArgument);
}

// -------------------------------------------------------------- table --

TEST(TableTest, SchemaAndRows)
{
    Table t("t", {{"id", ColumnType::kInt64},
                  {"score", ColumnType::kDouble}});
    t.AppendRow({std::int64_t{1}, 0.5});
    t.AppendRow({std::int64_t{2}, std::int64_t{3}});  // int -> FLOAT
    EXPECT_EQ(t.NumRows(), 2u);
    EXPECT_DOUBLE_EQ(std::get<double>(t.At(1, 1)), 3.0);
    EXPECT_EQ(t.ColumnIndex("SCORE"), 1u);  // case-insensitive
    EXPECT_THROW(t.ColumnIndex("nope"), NotFound);
    EXPECT_THROW(t.AppendRow({std::int64_t{1}}), InvalidArgument);
    EXPECT_THROW(t.AppendRow({0.5, std::int64_t{1}}), InvalidArgument);
}

TEST(DatabaseTest, CatalogOperations)
{
    Database db;
    db.CreateTable("a", {{"x", ColumnType::kInt64}});
    EXPECT_TRUE(db.HasTable("A"));  // case-insensitive
    EXPECT_THROW(db.CreateTable("a", {{"x", ColumnType::kInt64}}),
                 InvalidArgument);
    EXPECT_THROW(db.GetTable("missing"), NotFound);
    db.DropTable("a");
    EXPECT_FALSE(db.HasTable("a"));
    EXPECT_THROW(db.DropTable("a"), NotFound);
}

TEST(DatabaseTest, DatasetRoundTrip)
{
    Database db;
    Dataset iris = MakeIris(90, 60);
    db.StoreDataset("iris_data", iris);
    EXPECT_EQ(db.GetTable("iris_data").NumRows(), 90u);
    EXPECT_EQ(db.GetTable("iris_data").NumColumns(), 5u);  // 4 + label

    const Table& table = db.GetTable("iris_data");
    const std::size_t label_col = table.ColumnIndex("label");
    ASSERT_EQ(label_col, iris.num_features());
    for (std::size_t i = 0; i < iris.num_rows(); ++i) {
        ASSERT_FLOAT_EQ(table.FloatAt(i, label_col), iris.Label(i));
        for (std::size_t f = 0; f < iris.num_features(); ++f) {
            ASSERT_FLOAT_EQ(table.FloatAt(i, f), iris.At(i, f));
        }
    }
}

TEST(DatabaseTest, ModelStorageLastWriteWins)
{
    Database db;
    Dataset iris = MakeIris(120, 61);
    ForestTrainerConfig config;
    config.num_trees = 3;
    config.max_depth = 4;
    RandomForest first = TrainForest(iris, config);
    config.num_trees = 5;
    RandomForest second = TrainForest(iris, config);

    db.StoreModel("m", TreeEnsemble::FromForest(first));
    db.StoreModel("m", TreeEnsemble::FromForest(second));
    EXPECT_EQ(db.LoadModel("m").NumTrees(), 5u);
    EXPECT_GT(db.ModelBlobBytes("m"), 0u);
    EXPECT_THROW(db.LoadModel("absent"), NotFound);
}

// ---------------------------------------------------------------- sql --

TEST(SqlTest, ParsesCreateTable)
{
    auto stmt = std::get<CreateTableStatement>(ParseSql(
        "CREATE TABLE models (name VARCHAR(64), model VARBINARY(max))"));
    EXPECT_EQ(stmt.table, "models");
    ASSERT_EQ(stmt.columns.size(), 2u);
    EXPECT_EQ(stmt.columns[0].type, ColumnType::kString);
    EXPECT_EQ(stmt.columns[1].type, ColumnType::kBlob);
}

TEST(SqlTest, ParsesInsertMultiRow)
{
    auto stmt = std::get<InsertStatement>(
        ParseSql("INSERT INTO t VALUES (1, 2.5, 'a'), (2, -1e-3, 'b''c')"));
    ASSERT_EQ(stmt.rows.size(), 2u);
    EXPECT_EQ(std::get<std::int64_t>(stmt.rows[0][0]), 1);
    EXPECT_DOUBLE_EQ(std::get<double>(stmt.rows[0][1]), 2.5);
    EXPECT_EQ(std::get<std::string>(stmt.rows[1][2]), "b'c");
    EXPECT_DOUBLE_EQ(std::get<double>(stmt.rows[1][1]), -1e-3);
}

TEST(SqlTest, ParsesSelectWithWhereAndTop)
{
    auto stmt = std::get<SelectStatement>(ParseSql(
        "SELECT TOP 5 sepal_length, label FROM iris "
        "WHERE sepal_length >= 5.0 AND label <> 2"));
    EXPECT_FALSE(stmt.star);
    ASSERT_EQ(stmt.columns.size(), 2u);
    EXPECT_EQ(stmt.table, "iris");
    ASSERT_EQ(stmt.where.size(), 2u);
    EXPECT_EQ(stmt.where[0].op, CompareOp::kGe);
    EXPECT_EQ(stmt.where[1].op, CompareOp::kNe);
    ASSERT_TRUE(stmt.top.has_value());
    EXPECT_EQ(*stmt.top, 5u);
}

TEST(SqlTest, ParsesSelectStar)
{
    auto stmt = std::get<SelectStatement>(ParseSql("SELECT * FROM t;"));
    EXPECT_TRUE(stmt.star);
    EXPECT_TRUE(stmt.where.empty());
}

TEST(SqlTest, ParsesExecWithParams)
{
    auto stmt = std::get<ExecStatement>(ParseSql(
        "EXEC sp_score_model @model = 'iris_rf', @data = 'iris_data', "
        "@backend = 'FPGA', @top = 100"));
    EXPECT_EQ(stmt.procedure, "sp_score_model");
    EXPECT_EQ(std::get<std::string>(stmt.params.at("model")), "iris_rf");
    EXPECT_EQ(std::get<std::int64_t>(stmt.params.at("top")), 100);
}

TEST(SqlTest, RejectsMalformedStatements)
{
    EXPECT_THROW(ParseSql("DROP TABLE t"), ParseError);
    EXPECT_THROW(ParseSql("SELECT FROM t"), ParseError);
    EXPECT_THROW(ParseSql("SELECT * FROM"), ParseError);
    EXPECT_THROW(ParseSql("INSERT INTO t VALUES (1"), ParseError);
    EXPECT_THROW(ParseSql("SELECT * FROM t WHERE a ! 1"), ParseError);
    EXPECT_THROW(ParseSql("SELECT * FROM t extra junk"), ParseError);
    EXPECT_THROW(ParseSql("CREATE TABLE t (a FANCYTYPE)"), ParseError);
    EXPECT_THROW(ParseSql("INSERT INTO t VALUES ('unterminated)"),
                 ParseError);
}

TEST(SqlTest, EvalCompareOpTruthTable)
{
    EXPECT_TRUE(EvalCompareOp(CompareOp::kEq, 0));
    EXPECT_FALSE(EvalCompareOp(CompareOp::kEq, 1));
    EXPECT_TRUE(EvalCompareOp(CompareOp::kNe, -1));
    EXPECT_TRUE(EvalCompareOp(CompareOp::kLt, -1));
    EXPECT_TRUE(EvalCompareOp(CompareOp::kLe, 0));
    EXPECT_TRUE(EvalCompareOp(CompareOp::kGt, 1));
    EXPECT_FALSE(EvalCompareOp(CompareOp::kGe, -1));
}

// ---------------------------------------------------- external runtime --

TEST(ExternalRuntimeTest, ColdThenWarmInvocation)
{
    ExternalScriptRuntime rt{ExternalRuntimeParams{}};
    EXPECT_FALSE(rt.warm());
    SimTime first = rt.InvokeProcess();
    SimTime second = rt.InvokeProcess();
    EXPECT_GT(first, second * 5.0);
    EXPECT_TRUE(rt.warm());
    rt.ResetPool();
    EXPECT_DOUBLE_EQ(rt.InvokeProcess().seconds(), first.seconds());
}

TEST(ExternalRuntimeTest, StageCostsScale)
{
    ExternalScriptRuntime rt{ExternalRuntimeParams{}};
    EXPECT_GT(rt.TransferToProcess(200'000'000),
              rt.TransferToProcess(1'000'000) * 50.0);
    EXPECT_GT(rt.ModelPreprocessing(10'000'000),
              rt.ModelPreprocessing(1'000));
    EXPECT_DOUBLE_EQ(rt.DataPreprocessing(1000, 28).nanos(),
                     1000 * 28 *
                         ExternalRuntimeParams{}.data_preproc_ns_per_value);
}

TEST(ExternalRuntimeTest, ExplicitInvocationAccounting)
{
    ExternalScriptRuntime rt{ExternalRuntimeParams{}};
    InvocationCost first = rt.Invoke();
    EXPECT_TRUE(first.cold);
    InvocationCost second = rt.Invoke();
    EXPECT_FALSE(second.cold);
    EXPECT_GT(first.cost, second.cost * 5.0);
    EXPECT_EQ(rt.invocations(), 2u);
    EXPECT_EQ(rt.cold_invocations(), 1u);
    rt.ResetPool();
    EXPECT_TRUE(rt.Invoke().cold);
    EXPECT_EQ(rt.cold_invocations(), 2u);
}

TEST(ExternalRuntimeTest, PoolRecyclingHook)
{
    ExternalRuntimeParams params;
    params.pool_recycle_every = 3;
    ExternalScriptRuntime rt{params};
    // cold, warm, warm | cold, warm, warm | cold ...
    EXPECT_TRUE(rt.Invoke().cold);
    EXPECT_FALSE(rt.Invoke().cold);
    EXPECT_FALSE(rt.Invoke().cold);
    EXPECT_FALSE(rt.warm());  // recycle due: next invocation is cold
    EXPECT_TRUE(rt.Invoke().cold);
    EXPECT_TRUE(rt.warm());
    EXPECT_FALSE(rt.Invoke().cold);
    EXPECT_EQ(rt.invocations(), 5u);
    EXPECT_EQ(rt.cold_invocations(), 2u);
}

TEST(ExternalRuntimeTest, CrashKillsPoolAndRePaysWarmup)
{
    ExternalScriptRuntime rt{ExternalRuntimeParams{}};
    EXPECT_TRUE(rt.Invoke().cold);
    EXPECT_FALSE(rt.Invoke().cold);
    EXPECT_TRUE(rt.warm());

    // Out-of-band crash: the pool is dead and the next invocation
    // re-pays the cold start (unlike ResetPool, it counts as a crash).
    rt.CrashProcess();
    EXPECT_FALSE(rt.warm());
    EXPECT_EQ(rt.crashes(), 1u);
    EXPECT_TRUE(rt.Invoke().cold);
    EXPECT_TRUE(rt.warm());

    // Injected crash (kExternalInvoke): the invocation itself comes
    // back crashed — its launch cost was still paid, the pool dies —
    // and the invocation after the plan clears is cold again.
    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kExternalInvoke).every_nth = 1;
    {
        fault::ScopedFaultPlan guard(plan);
        InvocationCost crashed = rt.Invoke();
        EXPECT_TRUE(crashed.crashed);
        EXPECT_FALSE(crashed.cold);  // the pool was warm when it died
        EXPECT_GT(crashed.cost.seconds(), 0.0);
        EXPECT_EQ(rt.crashes(), 2u);
        EXPECT_FALSE(rt.warm());
    }
    InvocationCost after = rt.Invoke();
    EXPECT_TRUE(after.cold);
    EXPECT_FALSE(after.crashed);
    EXPECT_EQ(rt.cold_invocations(), 3u);
    EXPECT_EQ(rt.invocations(), 5u);
}

TEST(ExternalRuntimeTest, ConcurrentInvocationsAccountExactlyOnce)
{
    // One instance = one warm pool: with no recycling, exactly one of
    // many racing invocations observes the cold start.
    ExternalScriptRuntime rt{ExternalRuntimeParams{}};
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    std::atomic<int> cold_seen{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&rt, &cold_seen] {
            for (int i = 0; i < kPerThread; ++i) {
                if (rt.Invoke().cold) {
                    ++cold_seen;
                }
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(rt.invocations(),
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(rt.cold_invocations(), 1u);
    EXPECT_EQ(cold_seen.load(), 1);
}

// ------------------------------------------------------------ pipeline --

struct PipelineFixture {
    Database db;
    HardwareProfile profile = HardwareProfile::Paper();
    ExternalRuntimeParams rt_params;
    Dataset data;
    RandomForest forest;

    explicit PipelineFixture(bool higgs = false)
        : data(higgs ? MakeHiggs(400, 70) : MakeIris(400, 70))
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

TEST(PipelineTest, RunProducesReferencePredictions)
{
    PipelineFixture f;
    ScoringPipeline pipeline(f.db, f.profile, f.rt_params);
    PipelineRunResult run = pipeline.RunScoringQuery(
        "model_rf", "scoring_data", BackendKind::kCpuSklearn);
    EXPECT_EQ(run.predictions, f.forest.PredictBatch(f.data));
    EXPECT_GT(run.stages.python_invocation.millis(), 100.0);  // cold
    EXPECT_GT(run.stages.data_transfer.seconds(), 0.0);
    EXPECT_GT(run.stages.model_preprocessing.seconds(), 0.0);
    EXPECT_GT(run.stages.data_preprocessing.seconds(), 0.0);
    EXPECT_GT(run.stages.Total(), run.stages.scoring.Total());
}

TEST(PipelineTest, MaxRowsLimitsScoring)
{
    PipelineFixture f;
    ScoringPipeline pipeline(f.db, f.profile, f.rt_params);
    PipelineRunResult run = pipeline.RunScoringQuery(
        "model_rf", "scoring_data", BackendKind::kCpuOnnx, 50);
    EXPECT_EQ(run.predictions.size(), 50u);
}

TEST(PipelineTest, SecondQueryHitsWarmPool)
{
    PipelineFixture f;
    ScoringPipeline pipeline(f.db, f.profile, f.rt_params);
    auto first = pipeline.RunScoringQuery("model_rf", "scoring_data",
                                          BackendKind::kCpuSklearn);
    auto second = pipeline.RunScoringQuery("model_rf", "scoring_data",
                                           BackendKind::kCpuSklearn);
    EXPECT_GT(first.stages.python_invocation,
              second.stages.python_invocation * 5.0);
}

TEST(PipelineTest, UnsupportedBackendThrows)
{
    PipelineFixture f;  // IRIS: 3 classes -> RAPIDS refuses
    ScoringPipeline pipeline(f.db, f.profile, f.rt_params);
    EXPECT_THROW(pipeline.RunScoringQuery("model_rf", "scoring_data",
                                          BackendKind::kGpuRapids),
                 CapacityError);
    EXPECT_THROW(pipeline.RunScoringQuery("absent", "scoring_data",
                                          BackendKind::kCpuSklearn),
                 NotFound);
    EXPECT_THROW(pipeline.RunScoringQuery("model_rf", "absent",
                                          BackendKind::kCpuSklearn),
                 NotFound);
}

TEST(PipelineTest, EstimateMirrorsRunShape)
{
    PipelineFixture f(true);
    ScoringPipeline pipeline(f.db, f.profile, f.rt_params);
    PipelineStageTimes est =
        pipeline.EstimateQuery("model_rf", 1000000, BackendKind::kFpga);
    // At 1M records with accelerated scoring, pipeline overheads
    // dominate the query time (the paper's Fig. 11 punchline).
    EXPECT_GT(est.NonScoring(), est.scoring.Total());
    EXPECT_GT(est.data_transfer, est.model_preprocessing);
}

// -------------------------------------------------------- query engine --

struct EngineFixture : PipelineFixture {
    ScoringPipeline pipeline{db, profile, rt_params};
    QueryEngine engine{db, pipeline};
};

TEST(QueryEngineTest, CreateInsertSelectFlow)
{
    EngineFixture f;
    f.engine.Execute("CREATE TABLE pets (name VARCHAR, age INT)");
    f.engine.Execute("INSERT INTO pets VALUES ('rex', 3), ('ada', 5)");
    QueryResult result =
        f.engine.Execute("SELECT name FROM pets WHERE age > 3");
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(result.rows[0][0]), "ada");
    EXPECT_NE(result.ToString().find("ada"), std::string::npos);
}

TEST(QueryEngineTest, SelectStarAndTop)
{
    EngineFixture f;
    QueryResult all = f.engine.Execute("SELECT * FROM scoring_data");
    EXPECT_EQ(all.rows.size(), 400u);
    EXPECT_EQ(all.columns.size(), 5u);
    QueryResult top =
        f.engine.Execute("SELECT TOP 7 * FROM scoring_data");
    EXPECT_EQ(top.rows.size(), 7u);
}

TEST(SqlTest, ParsesAggregatesAndOrderBy)
{
    auto agg = std::get<SelectStatement>(ParseSql(
        "SELECT COUNT(*), AVG(price), MAX(price) FROM sales "
        "WHERE region = 'eu'"));
    ASSERT_EQ(agg.aggregates.size(), 3u);
    EXPECT_EQ(agg.aggregates[0].func, AggFunc::kCount);
    EXPECT_TRUE(agg.aggregates[0].column.empty());
    EXPECT_EQ(agg.aggregates[1].func, AggFunc::kAvg);
    EXPECT_EQ(agg.aggregates[1].column, "price");

    auto ordered = std::get<SelectStatement>(ParseSql(
        "SELECT TOP 2 name FROM pets ORDER BY age DESC"));
    ASSERT_TRUE(ordered.order_by.has_value());
    EXPECT_EQ(ordered.order_by->column, "age");
    EXPECT_TRUE(ordered.order_by->descending);

    // Mixing aggregates with plain columns is rejected.
    EXPECT_THROW(ParseSql("SELECT a, COUNT(*) FROM t"), ParseError);
    // '*' only inside COUNT.
    EXPECT_THROW(ParseSql("SELECT SUM(*) FROM t"), ParseError);
    // A column that merely *resembles* an aggregate name still works.
    auto plain = std::get<SelectStatement>(ParseSql(
        "SELECT count, sum FROM t"));
    ASSERT_EQ(plain.columns.size(), 2u);
    EXPECT_EQ(plain.columns[0], "count");
}

TEST(QueryEngineTest, AggregatesOverFilteredRows)
{
    EngineFixture f;
    f.engine.Execute("CREATE TABLE sales (region VARCHAR, price FLOAT)");
    f.engine.Execute(
        "INSERT INTO sales VALUES ('eu', 10.0), ('eu', 30.0), "
        "('us', 100.0), ('eu', 20.0)");
    QueryResult r = f.engine.Execute(
        "SELECT COUNT(*), SUM(price), AVG(price), MIN(price), "
        "MAX(price) FROM sales WHERE region = 'eu'");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(std::get<std::int64_t>(r.rows[0][0]), 3);
    EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][1]), 60.0);
    EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][2]), 20.0);
    EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][3]), 10.0);
    EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][4]), 30.0);
    EXPECT_EQ(r.columns[0], "COUNT(*)");

    // COUNT over zero rows is 0; AVG over zero rows errors.
    QueryResult zero = f.engine.Execute(
        "SELECT COUNT(*) FROM sales WHERE region = 'jp'");
    EXPECT_EQ(std::get<std::int64_t>(zero.rows[0][0]), 0);
    EXPECT_THROW(f.engine.Execute(
                     "SELECT AVG(price) FROM sales WHERE region = 'jp'"),
                 InvalidArgument);
}

TEST(QueryEngineTest, OrderByAndTopInteraction)
{
    EngineFixture f;
    f.engine.Execute("CREATE TABLE nums (v INT)");
    f.engine.Execute(
        "INSERT INTO nums VALUES (3), (1), (4), (1), (5), (9), (2)");
    QueryResult asc =
        f.engine.Execute("SELECT v FROM nums ORDER BY v");
    ASSERT_EQ(asc.rows.size(), 7u);
    EXPECT_EQ(std::get<std::int64_t>(asc.rows[0][0]), 1);
    EXPECT_EQ(std::get<std::int64_t>(asc.rows[6][0]), 9);

    // T-SQL semantics: TOP applies after ORDER BY.
    QueryResult top3 = f.engine.Execute(
        "SELECT TOP 3 v FROM nums ORDER BY v DESC");
    ASSERT_EQ(top3.rows.size(), 3u);
    EXPECT_EQ(std::get<std::int64_t>(top3.rows[0][0]), 9);
    EXPECT_EQ(std::get<std::int64_t>(top3.rows[1][0]), 5);
    EXPECT_EQ(std::get<std::int64_t>(top3.rows[2][0]), 4);
}

TEST(QueryEngineTest, ScoreModelProcedureMatchesReference)
{
    EngineFixture f;
    QueryResult result = f.engine.Execute(
        "EXEC sp_score_model @model = 'model_rf', "
        "@data = 'scoring_data', @backend = 'FPGA'");
    ASSERT_EQ(result.rows.size(), 400u);
    auto reference = f.forest.PredictBatch(f.data);
    for (std::size_t i = 0; i < 400; ++i) {
        ASSERT_DOUBLE_EQ(std::get<double>(result.rows[i][1]),
                         static_cast<double>(reference[i]));
    }
    ASSERT_TRUE(result.pipeline_stages.has_value());
    EXPECT_GT(result.modeled_time.seconds(), 0.0);
}

TEST(QueryEngineTest, ScoreModelRespectsTopAndBackendAliases)
{
    EngineFixture f;
    QueryResult result = f.engine.Execute(
        "EXEC sp_score_model @model = 'model_rf', "
        "@data = 'scoring_data', @backend = 'gpu', @top = 25");
    EXPECT_EQ(result.rows.size(), 25u);
}

TEST(QueryEngineTest, ProcedureErrors)
{
    EngineFixture f;
    EXPECT_THROW(f.engine.Execute("EXEC nope @x = 1"), NotFound);
    EXPECT_THROW(f.engine.Execute("EXEC sp_score_model @data = 'd'"),
                 InvalidArgument);
    EXPECT_THROW(
        f.engine.Execute("EXEC sp_score_model @model = 'model_rf', "
                         "@data = 'scoring_data', @backend = 'quantum'"),
        InvalidArgument);
    EXPECT_THROW(
        f.engine.Execute("EXEC sp_score_model @model = 'model_rf', "
                         "@data = 'scoring_data', @top = -1"),
        InvalidArgument);
}

TEST(QueryEngineTest, AutoBackendUsesScheduler)
{
    EngineFixture f;
    // 400 IRIS rows: small batch -> the scheduler should keep scoring on
    // a CPU engine, and the query must still succeed end to end.
    QueryResult result = f.engine.Execute(
        "EXEC sp_score_model @model = 'model_rf', "
        "@data = 'scoring_data', @backend = 'auto'");
    EXPECT_EQ(result.rows.size(), 400u);
    EXPECT_NE(result.message.find("CPU"), std::string::npos)
        << result.message;
}

TEST(QueryEngineTest, HybridBackendByName)
{
    EngineFixture f;
    QueryResult result = f.engine.Execute(
        "EXEC sp_score_model @model = 'model_rf', "
        "@data = 'scoring_data', @backend = 'FPGA_HYBRID', @top = 30");
    EXPECT_EQ(result.rows.size(), 30u);
    auto reference = f.forest.PredictBatch(f.data);
    for (std::size_t i = 0; i < 30; ++i) {
        ASSERT_DOUBLE_EQ(std::get<double>(result.rows[i][1]),
                         static_cast<double>(reference[i]));
    }
}

TEST(QueryEngineTest, CustomProcedureRegistration)
{
    EngineFixture f;
    f.engine.RegisterProcedure(
        "sp_answer", [](QueryEngine&, const ExecStatement&) {
            QueryResult r;
            r.columns = {"answer"};
            r.rows.push_back({std::int64_t{42}});
            return r;
        });
    QueryResult result = f.engine.Execute("EXEC sp_answer");
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(std::get<std::int64_t>(result.rows[0][0]), 42);
}

TEST(ParseBackendNameTest, AllNamesAndAliases)
{
    EXPECT_EQ(ParseBackendName("FPGA"), BackendKind::kFpga);
    EXPECT_EQ(ParseBackendName("gpu_hb"), BackendKind::kGpuHummingbird);
    EXPECT_EQ(ParseBackendName("GPU_RAPIDS"), BackendKind::kGpuRapids);
    EXPECT_EQ(ParseBackendName("cpu"), BackendKind::kCpuSklearn);
    EXPECT_EQ(ParseBackendName("CPU_ONNX_52th"), BackendKind::kCpuOnnxMt);
    EXPECT_THROW(ParseBackendName("tpu"), InvalidArgument);
}

}  // namespace
}  // namespace dbscore
