/**
 * @file
 * Seeded fuzzing of SQL -> plan -> execute (ROADMAP item 3's SQL
 * target).
 *
 * 10^4 generated SELECTs (two seeded shards of 5000, which ctest runs
 * in parallel) run four ways each: on an in-memory HIGGS
 * table and on a paged copy whose 6-frame buffer pool is smaller than
 * its file, each through the optimized and the naive planner. The
 * statements cover plain and SCORE conjuncts with numeric and string
 * literals (conjuncts on the label column included), `*` and
 * projections, every aggregate, ORDER BY a column or a SCORE, TOP 0
 * to past the table's size, and a few statements that must fail
 * (unknown columns, literals no column compares with, SCORE arity
 * mismatches). All four runs must return the same columns and rows,
 * Value for Value, or all four must throw the same dbscore::Error type
 * with the same message. Anything else, a foreign exception included,
 * fails the test.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iterator>
#include <string>
#include <typeinfo>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/forest/trainer.h"

namespace dbscore {
namespace {

constexpr std::size_t kRows = 300;
constexpr std::size_t kStatementsPerShard = 5000;
constexpr std::size_t kMaxReported = 20;

/** Regression forest over @p cols of @p data, target kin_0 + kin_3. */
RandomForest
TrainRegression(const Dataset& data, const std::vector<std::size_t>& cols,
                std::size_t trees, std::uint64_t seed)
{
    Dataset train("reg", Task::kRegression, cols.size(), 0);
    std::vector<float> row(cols.size());
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
        for (std::size_t j = 0; j < cols.size(); ++j) {
            row[j] = data.At(r, cols[j]);
        }
        train.AddRow(row, data.At(r, 0) + data.At(r, 3));
    }
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = 3;
    config.seed = seed;
    return TrainForest(train, config);
}

/** Random SELECT text over table "$" (substituted per backing). */
class StatementGen {
 public:
    StatementGen(const Dataset& data, std::uint64_t seed)
        : rng_(seed), data_(data)
    {
    }

    std::string
    Next()
    {
        std::string sql = "SELECT ";
        if (Chance(0.4)) {
            sql += "TOP " + std::to_string(Top()) + " ";
        }
        const double shape = rng_.NextDouble();
        if (shape < 0.15) {
            sql += "*";
        } else if (shape < 0.45) {
            sql += List([this] { return Aggregate(); });
        } else {
            sql += List([this] { return Chance(0.6) ? Column() : Score(); });
        }
        sql += " FROM $";
        const std::size_t conjuncts = rng_.NextBelow(4);
        for (std::size_t i = 0; i < conjuncts; ++i) {
            sql += i == 0 ? " WHERE " : " AND ";
            sql += Conjunct();
        }
        if (Chance(0.4)) {
            sql += " ORDER BY ";
            sql += Chance(0.5) ? Column() : Score();
            if (Chance(0.5)) {
                sql += Chance(0.5) ? " DESC" : " ASC";
            }
        }
        return sql;
    }

 private:
    bool Chance(double p) { return rng_.NextDouble() < p; }

    template <typename F>
    std::string
    List(F item)
    {
        std::string out = item();
        for (std::size_t i = rng_.NextBelow(3); i > 0; --i) {
            out += ", " + item();
        }
        return out;
    }

    std::size_t
    Top()
    {
        static const std::size_t kTops[] = {0,   1,   2,   5,   17,
                                            150, 299, 300, 301, 1000};
        return Chance(0.5) ? kTops[rng_.NextBelow(std::size(kTops))]
                           : rng_.NextBelow(kRows + 50);
    }

    /** A feature or the label; now and then a column that is not. */
    std::string
    Column()
    {
        if (Chance(0.005)) {
            return "no_such_column";
        }
        if (Chance(0.1)) {
            return "label";
        }
        const std::size_t f = rng_.NextBelow(data_.num_features());
        return data_.feature_names()[f];
    }

    /** SCORE over every feature (classifier, regressor) or a
     * non-prefix pair (the gather path); rarely a wrong arity. */
    std::string
    Score()
    {
        if (Chance(0.005)) {
            return "SCORE(m, kin_0)";
        }
        switch (rng_.NextBelow(3)) {
          case 0:
            return "SCORE(m)";
          case 1:
            return "SCORE(r)";
          default:
            return "SCORE(p, kin_2, kin_0)";
        }
    }

    std::string
    Aggregate()
    {
        static const char* const kFuncs[] = {"SUM", "AVG", "MIN", "MAX"};
        switch (rng_.NextBelow(4)) {
          case 0:
            return "COUNT(*)";
          case 1:
            return "COUNT(" + Column() + ")";
          default:
            return std::string(kFuncs[rng_.NextBelow(4)]) + "(" +
                   (Chance(0.5) ? Column() : Score()) + ")";
        }
    }

    std::string
    Op()
    {
        static const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
        return kOps[rng_.NextBelow(std::size(kOps))];
    }

    /** A number near the data (or a cell of @p column, so = can
     * hit), an integer, or far outside every zone map. */
    std::string
    Number(const std::string& column)
    {
        const double pick = rng_.NextDouble();
        if (pick < 0.3 && column != "label") {
            for (std::size_t f = 0; f < data_.num_features(); ++f) {
                if (data_.feature_names()[f] == column) {
                    char buf[32];
                    std::snprintf(buf, sizeof(buf), "%.9g",
                                  data_.At(rng_.NextBelow(kRows), f));
                    return buf;
                }
            }
        }
        if (pick < 0.5) {
            return std::to_string(static_cast<int>(rng_.NextBelow(7)) - 3);
        }
        if (pick < 0.55) {
            return Chance(0.5) ? "1e9" : "-1e9";
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.2f",
                      rng_.NextUniform(-3.0, 3.0));
        return buf;
    }

    std::string
    Conjunct()
    {
        if (Chance(0.3)) {
            const std::string literal =
                Chance(0.01) ? std::string("'x'") : Number("");
            return Score() + " " + Op() + " " + literal;
        }
        const std::string column = Column();
        if (Chance(0.04)) {
            return column + " " + Op() + " '" + column + "'";
        }
        return column + " " + Op() + " " + Number(column);
    }

    Rng rng_;
    const Dataset& data_;
};

/** One run's outcome: its result, or its error's type and message. */
struct Outcome {
    bool threw = false;
    std::string error;
    QueryResult result;
};

/** Parameter: the shard's generator seed. */
class SqlFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("dbscore_sql_fuzz_" + std::to_string(GetParam()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
    }

    std::filesystem::path dir_;
};

/** Runs @p sql with "$" naming @p table; the table's name in an error
 * message reads "$" again, so backings compare. */
Outcome
RunOn(plan::Planner& planner, std::string sql, const std::string& table)
{
    sql.replace(sql.find('$'), 1, table);
    Outcome out;
    try {
        out.result = planner.PlanQuery(sql)->Execute(planner.db());
    } catch (const Error& e) {
        out.threw = true;
        out.error = std::string(typeid(e).name()) + ": " + e.what();
        for (std::size_t at = out.error.find(table);
             at != std::string::npos; at = out.error.find(table, at)) {
            out.error.replace(at, table.size(), "$");
        }
    } catch (const std::exception& e) {
        ADD_FAILURE() << sql << ": foreign exception " << e.what();
        out.threw = true;
        out.error = "foreign";
    }
    return out;
}

bool
SameOutcome(const Outcome& a, const Outcome& b)
{
    if (a.threw || b.threw) {
        return a.threw == b.threw && a.error == b.error;
    }
    return a.result.columns == b.result.columns &&
           a.result.rows == b.result.rows;
}

std::string
Describe(const Outcome& o)
{
    if (o.threw) {
        return "threw " + o.error;
    }
    return std::to_string(o.result.rows.size()) + " row(s)";
}

TEST_P(SqlFuzzTest, PlannersAndBackingsAgreeOnGeneratedStatements)
{
    const Dataset data = MakeHiggs(kRows, 77);
    Database db;
    ForestTrainerConfig config;
    config.num_trees = 4;
    config.max_depth = 4;
    config.seed = 77;
    db.StoreModel("m", TreeEnsemble::FromForest(TrainForest(data, config)));
    std::vector<std::size_t> all(data.num_features());
    for (std::size_t c = 0; c < all.size(); ++c) {
        all[c] = c;
    }
    // 16 regression trees: enough 8-tree checkpoints for early exit.
    db.StoreModel("r",
                  TreeEnsemble::FromForest(TrainRegression(data, all, 16, 78)));
    db.StoreModel("p", TreeEnsemble::FromForest(
                           TrainRegression(data, {2, 0}, 4, 79)));
    db.StoreDataset("fz_mem", data);
    storage::StorageOptions options;
    options.page_size = 1024;  // 8 rows a page: 38 data pages
    options.pool_pages = 6;
    const Table& paged = db.StoreDatasetPaged(
        "fz_paged", data, (dir_ / "fz.dbpages").string(), options);
    ASSERT_GT(paged.store()->Stats().data_pages, options.pool_pages);

    plan::Planner optimized(db, {/*optimize=*/true});
    plan::Planner naive(db, {/*optimize=*/false});
    StatementGen gen(data, GetParam());
    std::size_t mismatches = 0;
    std::size_t with_rows = 0;
    std::size_t errors = 0;
    for (std::size_t i = 0; i < kStatementsPerShard; ++i) {
        const std::string sql = gen.Next();
        const Outcome want = RunOn(naive, sql, "fz_mem");
        const Outcome runs[] = {RunOn(optimized, sql, "fz_mem"),
                                RunOn(naive, sql, "fz_paged"),
                                RunOn(optimized, sql, "fz_paged")};
        bool same = true;
        for (const Outcome& got : runs) {
            same = same && SameOutcome(want, got);
        }
        if (!same) {
            if (++mismatches <= kMaxReported) {
                ADD_FAILURE() << "mismatch on " << sql
                              << "\n  naive/memory:     " << Describe(want)
                              << "\n  optimized/memory: " << Describe(runs[0])
                              << "\n  naive/paged:      " << Describe(runs[1])
                              << "\n  optimized/paged:  " << Describe(runs[2]);
            }
            continue;
        }
        errors += want.threw ? 1 : 0;
        with_rows += !want.threw && !want.result.rows.empty() ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << kStatementsPerShard
                              << " statements";
    // The generator must reach both outcomes often enough to matter.
    EXPECT_GT(with_rows, kStatementsPerShard / 3);
    EXPECT_GT(errors, kStatementsPerShard / 50);
}

INSTANTIATE_TEST_SUITE_P(Shards, SqlFuzzTest,
                         ::testing::Values(std::uint64_t{20261018},
                                           std::uint64_t{20261019}));

}  // namespace
}  // namespace dbscore
