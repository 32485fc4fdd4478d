/**
 * @file
 * Seeded mutation fuzzing of CSV input (ROADMAP item 3's CSV target).
 *
 * 10^4 cases (two seeded shards of 5000, which ctest runs in parallel)
 * each mutate a small numeric CSV file one to four times: byte edits,
 * inserts, deletes and truncations, plus a cell replaced by an extreme
 * number (1e30, inf, nan, -0, 4294967297). Each mutated text goes
 *
 *  - through LoadCsvDataset with a random label column (out of range
 *    included), header flag, task and class count, and
 *  - through Database::BulkLoadCsvPaged, whose label column is the
 *    header cell named "label" when one is.
 *
 * Every case must end in a dbscore::Error, or in a load whose result
 * holds together: a dataset with one label per row, a full block of
 * features, and class labels that are class ids (non-negative
 * integers below the class count, given or inferred); a
 * paged table that reopens from its file and scans as many rows, and
 * as many labels, as the load reported. Anything else (a foreign
 * exception, a crash, a sanitizer report) fails the test.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/data/csv_loader.h"
#include "dbscore/dbms/database.h"
#include "dbscore/storage/paged_table.h"

namespace dbscore {
namespace {

constexpr int kCasesPerShard = 5000;

class CsvFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
    void SetUp() override
    {
        dir_ = std::filesystem::temp_directory_path() /
               ("dbscore_csv_fuzz_" + std::to_string(GetParam()));
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

/** A well-formed CSV: a header, 1-12 rows of 2-6 numeric cells, and
 * (usually) one column named "label" holding small class ids. */
std::string
BaseCsv(Rng& rng)
{
    const std::size_t cols = 2 + rng.NextBelow(5);
    const std::size_t rows = 1 + rng.NextBelow(12);
    const std::size_t label = rng.NextBelow(cols + 1);  // cols: none
    std::ostringstream out;
    for (std::size_t c = 0; c < cols; ++c) {
        out << (c > 0 ? "," : "")
            << (c == label ? std::string("label") : "f" + std::to_string(c));
    }
    out << (rng.NextBelow(4) == 0 ? "\r\n" : "\n");
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            out << (c > 0 ? "," : "");
            if (c == label) {
                out << rng.NextBelow(3);
            } else {
                out << rng.NextUniform(-4.0, 4.0);
            }
        }
        out << "\n";
    }
    return out.str();
}

/** One random edit of @p text. */
void
Mutate(std::string& text, Rng& rng)
{
    static const std::string kBytes = ",\"\n\r .-+eE0123456789naifxlb\t";
    static const char* const kExtremes[] = {"1e30", "inf", "nan", "-0",
                                            "4294967297", "-1e-45", "1e39",
                                            "0x1p4", ""};
    auto byte = [&rng]() {
        return rng.NextBelow(8) == 0
                   ? static_cast<char>(rng.NextBelow(256))
                   : kBytes[rng.NextBelow(kBytes.size())];
    };
    const std::size_t at = text.empty() ? 0 : rng.NextBelow(text.size());
    switch (rng.NextBelow(5)) {
      case 0:  // byte edit
        if (!text.empty()) {
            text[at] = byte();
        }
        break;
      case 1:  // insert
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte());
        break;
      case 2:  // delete a short span
        if (!text.empty()) {
            text.erase(at, 1 + rng.NextBelow(4));
        }
        break;
      case 3:  // truncate
        text.resize(at);
        break;
      default: {  // an extreme number in place of the cell at `at`
        std::size_t begin = at;
        while (begin > 0 && text[begin - 1] != ',' && text[begin - 1] != '\n') {
            --begin;
        }
        std::size_t end = at;
        while (end < text.size() && text[end] != ',' && text[end] != '\n' &&
               text[end] != '\r') {
            ++end;
        }
        text.replace(begin, end - begin,
                     kExtremes[rng.NextBelow(std::size(kExtremes))]);
        break;
      }
    }
}

/** A loaded dataset's shape holds together. */
void
ExpectWholeDataset(const Dataset& data, const CsvLoadOptions& options,
                   const std::string& text)
{
    ASSERT_GE(data.num_features(), 1u) << text;
    ASSERT_EQ(data.values().size(), data.num_rows() * data.num_features())
        << text;
    ASSERT_GE(data.num_rows(), 1u) << text;
    if (data.task() == Task::kRegression) {
        ASSERT_EQ(data.num_classes(), 0) << text;
    } else {
        ASSERT_GE(data.num_classes(), 2) << text;
    }
    if (data.task() == Task::kClassification) {
        for (std::size_t r = 0; r < data.num_rows(); ++r) {
            const float label = data.Label(r);
            ASSERT_GE(label, 0.0f) << text;
            ASSERT_EQ(label, std::floor(label)) << text;
            ASSERT_LT(label, static_cast<float>(data.num_classes())) << text;
        }
    }
}

TEST_P(CsvFuzzTest, MutatedCsvLoadsWholeOrFailsTyped)
{
    Rng rng(GetParam());
    const std::string csv_path = (dir_ / "in.csv").string();
    const std::string page_path = (dir_ / "t.dbpages").string();
    std::size_t datasets = 0;
    std::size_t tables = 0;
    for (int i = 0; i < kCasesPerShard; ++i) {
        std::string text = BaseCsv(rng);
        const std::size_t edits = 1 + rng.NextBelow(4);
        for (std::size_t e = 0; e < edits; ++e) {
            Mutate(text, rng);
        }
        const std::string what = "case " + std::to_string(i) + ":\n" + text;

        CsvLoadOptions options;
        options.label_column = static_cast<int>(rng.NextBelow(9)) - 2;
        options.has_header = rng.NextBelow(4) != 0;
        options.task = rng.NextBelow(3) == 0 ? Task::kRegression
                                             : Task::kClassification;
        options.num_classes = static_cast<int>(rng.NextBelow(5)) - 1;
        try {
            std::istringstream in(text);
            const Dataset data = LoadCsvDataset(in, options);
            ExpectWholeDataset(data, options, what);
            ++datasets;
        } catch (const Error&) {
            // A typed rejection.
        } catch (const std::exception& e) {
            FAIL() << "LoadCsvDataset threw " << typeid(e).name() << ": "
                   << e.what() << "\n" << what;
        }

        {
            std::filesystem::remove(csv_path);
            std::ofstream out(csv_path, std::ios::binary);
            out << text;
        }
        std::filesystem::remove(page_path);
        std::uint64_t reported = 0;
        Database db;
        try {
            reported = db.BulkLoadCsvPaged("t", csv_path, page_path,
                                           storage::StorageOptions{})
                           .NumRows();
        } catch (const Error&) {
            continue;  // a typed rejection
        } catch (const std::exception& e) {
            FAIL() << "BulkLoadCsvPaged threw " << typeid(e).name() << ": "
                   << e.what() << "\n" << what;
        }
        db.DropTable("t");
        const auto table = storage::PagedTable::Open(page_path);
        ASSERT_EQ(table->num_rows(), reported) << what;
        storage::FeatureStream stream = table->Scan();
        storage::StreamChunk chunk;
        std::uint64_t rows = 0;
        while (stream.Next(chunk)) {
            ASSERT_EQ(chunk.row_begin, rows) << what;
            rows += chunk.view.rows();
        }
        ASSERT_EQ(rows, reported) << what;
        if (table->has_label()) {
            std::vector<float> labels;
            for (std::uint64_t r = 0; r < reported; r += labels.size()) {
                ASSERT_EQ(table->CopyLabelPage(r, labels), r) << what;
                ASSERT_FALSE(labels.empty()) << what;
            }
        }
        ++tables;
    }
    // The mutations must leave both outcomes common enough to matter.
    EXPECT_GT(datasets, kCasesPerShard / 20u);
    EXPECT_GT(tables, kCasesPerShard / 10u);
    EXPECT_LT(tables, kCasesPerShard * 9u / 10u);
}

INSTANTIATE_TEST_SUITE_P(Shards, CsvFuzzTest,
                         ::testing::Values(std::uint64_t{20261020},
                                           std::uint64_t{20261021}));

}  // namespace
}  // namespace dbscore
